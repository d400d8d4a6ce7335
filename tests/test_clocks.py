"""Unit + property tests for logical clocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import (
    DottedValueSet,
    HybridLogicalClock,
    LamportClock,
    LamportStamp,
    Ordering,
    VectorClock,
    VersionVector,
    joint_ceiling,
    reduce_siblings,
)


# ----------------------------------------------------------------------
# Lamport
# ----------------------------------------------------------------------

def test_lamport_tick_monotonic():
    clock = LamportClock("a")
    stamps = [clock.tick() for _ in range(5)]
    assert stamps == sorted(stamps)
    assert stamps[-1].counter == 5


def test_lamport_observe_jumps_past_sender():
    a, b = LamportClock("a"), LamportClock("b")
    for _ in range(10):
        sent = a.tick()
    received = b.observe(sent)
    assert received > sent
    assert received.counter == 11


def test_lamport_ties_broken_by_node_id():
    assert LamportStamp(3, "a") < LamportStamp(3, "b")
    assert LamportStamp(3, "b") < LamportStamp(4, "a")


def test_lamport_peek_does_not_advance():
    clock = LamportClock("a")
    clock.tick()
    assert clock.peek() == clock.peek() == LamportStamp(1, "a")


# ----------------------------------------------------------------------
# Vector clocks
# ----------------------------------------------------------------------

def test_vector_clock_basic_ordering():
    v = VectorClock().tick("a")
    w = v.tick("b")
    assert v.compare(w) is Ordering.BEFORE
    assert w.compare(v) is Ordering.AFTER
    assert v.compare(v) is Ordering.EQUAL


def test_vector_clock_concurrency():
    base = VectorClock().tick("a")
    left = base.tick("b")
    right = base.tick("c")
    assert left.compare(right) is Ordering.CONCURRENT
    assert left.concurrent_with(right)
    merged = left.merge(right)
    assert merged.dominates(left) and merged.dominates(right)


def test_vector_clock_zero_entries_normalized_away():
    assert VectorClock({"a": 0}) == VectorClock()
    assert len(VectorClock({"a": 0, "b": 2})) == 1


def test_vector_clock_immutable_and_hashable():
    v = VectorClock().tick("a")
    w = v.tick("a")
    assert v["a"] == 1 and w["a"] == 2
    assert len({v, w, VectorClock({"a": 1})}) == 2


def test_vector_clock_rejects_negative_counts():
    with pytest.raises(ValueError):
        VectorClock({"a": -1})


def test_strict_domination():
    v = VectorClock({"a": 2, "b": 1})
    assert v.strictly_dominates(VectorClock({"a": 1}))
    assert not v.strictly_dominates(v)


nodes_st = st.sampled_from(["a", "b", "c", "d"])
clock_st = st.dictionaries(nodes_st, st.integers(min_value=0, max_value=8)).map(
    VectorClock
)


@given(clock_st, clock_st)
def test_merge_commutative(v, w):
    assert v.merge(w) == w.merge(v)


@given(clock_st, clock_st, clock_st)
@settings(max_examples=60)
def test_merge_associative(u, v, w):
    assert u.merge(v).merge(w) == u.merge(v.merge(w))


@given(clock_st)
def test_merge_idempotent(v):
    assert v.merge(v) == v


@given(clock_st, clock_st)
def test_merge_is_least_upper_bound(v, w):
    m = v.merge(w)
    assert m.dominates(v) and m.dominates(w)
    for node in set(v) | set(w):
        assert m[node] == max(v[node], w[node])


@given(clock_st, clock_st)
def test_merge_is_pointwise_max_and_reuses_a_dominating_side(v, w):
    m = v.merge(w)
    assert m == VectorClock({n: max(v[n], w[n]) for n in set(v) | set(w)})
    if v.dominates(w):
        assert m is v


def test_vector_clock_copies_the_dict_it_is_given():
    counts = {"a": 1, "b": 2}
    v = VectorClock(counts)
    counts["a"] = 7
    counts["c"] = 1
    del counts["b"]
    assert v.entries() == {"a": 1, "b": 2}
    assert v == VectorClock({"a": 1, "b": 2})


@given(clock_st, clock_st)
def test_compare_antisymmetric(v, w):
    cv, cw = v.compare(w), w.compare(v)
    flip = {
        Ordering.BEFORE: Ordering.AFTER,
        Ordering.AFTER: Ordering.BEFORE,
        Ordering.EQUAL: Ordering.EQUAL,
        Ordering.CONCURRENT: Ordering.CONCURRENT,
    }
    assert cw is flip[cv]


@given(clock_st, st.sampled_from(["a", "b", "c"]))
def test_tick_strictly_advances(v, node):
    assert v.tick(node).strictly_dominates(v)


# ----------------------------------------------------------------------
# Version vectors
# ----------------------------------------------------------------------

def test_version_vector_bump_and_descent():
    v0 = VersionVector()
    v1 = v0.bump("r1")
    v2 = v1.bump("r2")
    assert v2.descends_from(v1) and v1.descends_from(v0)
    assert not v1.descends_from(v2)
    assert isinstance(v2, VersionVector)


def test_reduce_siblings_drops_dominated():
    v1 = VersionVector().bump("r1")
    v2 = v1.bump("r1")
    survivors = reduce_siblings([(v1, "old"), (v2, "new")])
    assert survivors == [(v2, "new")]


def test_reduce_siblings_keeps_concurrent():
    a = VersionVector().bump("r1")
    b = VersionVector().bump("r2")
    survivors = reduce_siblings([(a, "x"), (b, "y")])
    assert len(survivors) == 2


def test_reduce_siblings_equal_vectors_later_wins():
    v = VersionVector().bump("r1")
    survivors = reduce_siblings([(v, "first"), (v, "second")])
    assert survivors == [(v, "second")]


def test_reduce_siblings_new_dominates_several():
    a = VersionVector().bump("r1")
    b = VersionVector().bump("r2")
    top = a.merge(b).bump("r1")
    survivors = reduce_siblings([(a, "x"), (b, "y"), (top, "z")])
    assert survivors == [(top, "z")]


def test_joint_ceiling():
    a = VersionVector({"r1": 3})
    b = VersionVector({"r1": 1, "r2": 5})
    ceiling = joint_ceiling([a, b, {"r3": 2}])
    assert ceiling.entries() == {"r1": 3, "r2": 5, "r3": 2}


vv_st = st.dictionaries(nodes_st, st.integers(min_value=0, max_value=5)).map(
    VersionVector
)


@given(st.lists(st.tuples(vv_st, st.integers()), max_size=8))
@settings(max_examples=60)
def test_reduce_siblings_survivors_pairwise_incomparable(pairs):
    survivors = reduce_siblings(pairs)
    for i, (v, _) in enumerate(survivors):
        for j, (w, _) in enumerate(survivors):
            if i != j:
                assert v.compare(w) is Ordering.CONCURRENT
    # Nothing maximal is lost: every input is dominated by some survivor.
    for v, _ in pairs:
        assert any(w.dominates(v) for w, _ in survivors)


# ----------------------------------------------------------------------
# Dotted version vectors
# ----------------------------------------------------------------------

def test_dvv_blind_writes_become_siblings():
    s = DottedValueSet()
    empty = s.context()
    s = s.put("r1", "a", empty)
    s = s.put("r1", "b", empty)
    assert sorted(s.values()) == ["a", "b"]


def test_dvv_read_modify_write_collapses_siblings():
    s = DottedValueSet()
    s = s.put("r1", "a", s.context())
    s = s.put("r2", "b", VectorClock())  # concurrent via other replica
    assert len(s.values()) == 2
    s = s.put("r1", "winner", s.context())
    assert s.values() == ["winner"]


def test_dvv_sync_is_idempotent_commutative():
    s1 = DottedValueSet().put("r1", "a", VectorClock())
    s2 = DottedValueSet().put("r2", "b", VectorClock())
    merged_a = s1.sync(s2)
    merged_b = s2.sync(s1)
    assert sorted(map(repr, merged_a.values())) == sorted(map(repr, merged_b.values()))
    assert merged_a.sync(merged_a).values() == merged_a.values()
    assert sorted(merged_a.values()) == ["a", "b"]


def test_dvv_sync_drops_versions_other_side_saw_and_superseded():
    s1 = DottedValueSet().put("r1", "old", VectorClock())
    s2 = s1.put("r1", "new", s1.context())  # r1 advanced locally
    # s1 still has "old"; sync with s2 (which saw and superseded it)
    merged = s1.sync(s2)
    assert merged.values() == ["new"]


def test_dvv_no_sibling_explosion_through_one_coordinator():
    # Two clients interleave read-modify-writes through the same
    # coordinator.  With dotted version vectors the sibling set stays
    # bounded by the number of concurrent writers (here 2), instead of
    # growing with the number of writes (the classic VV explosion).
    s = DottedValueSet()
    for i in range(10):
        stale_ctx = s.context()                   # client 1 reads
        s = s.put("r1", f"c2-{i}", s.context())   # client 2 read+write
        s = s.put("r1", f"c1-{i}", stale_ctx)     # client 1 writes stale
        assert len(s.values()) <= 2
    assert len(s.values()) == 2


def test_dvv_blind_writes_legitimately_accumulate():
    # Writes that never read (empty context) really are pairwise
    # concurrent, so a correct DVV store must keep them all.
    s = DottedValueSet()
    for i in range(5):
        s = s.put("r1", i, VectorClock())
    assert len(s.values()) == 5


REPLICAS = ("r0", "r1", "r2")

# One step of a three-replica trace: ("put", at, read-from) writes at
# replica ``at`` with the context read from replica ``read-from`` (whose
# set may lag or lead ``at``'s), or None for a blind write;
# ("sync", at, other) merges ``other``'s set into ``at``'s.
step_st = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 2),
              st.one_of(st.none(), st.integers(0, 2))),
    st.tuples(st.just("sync"), st.integers(0, 2), st.integers(0, 2)),
)


@st.composite
def replica_sets_st(draw):
    """The three replicas' sets after a random put/sync trace."""
    sets = [DottedValueSet() for _ in REPLICAS]
    for i, (kind, at, other) in enumerate(draw(st.lists(step_st,
                                                         max_size=14))):
        if kind == "sync":
            sets[at] = sets[at].sync(sets[other])
        else:
            context = VectorClock() if other is None else sets[other].context()
            sets[at] = sets[at].put(REPLICAS[at], i, context)
    return sets


def dvv_state(s):
    """A set's value, independent of version order."""
    dots = sorted(
        (str(v.dot.replica), v.dot.counter, v.value) for v in s.versions
    )
    return dots, s.clock


@given(replica_sets_st())
@settings(max_examples=150)
def test_dvv_sync_commutative_over_traces(sets):
    a, b, c = sets
    for x, y in ((a, b), (b, c), (a, c)):
        assert dvv_state(x.sync(y)) == dvv_state(y.sync(x))


@given(replica_sets_st())
@settings(max_examples=150)
def test_dvv_sync_associative_over_traces(sets):
    a, b, c = sets
    assert dvv_state(a.sync(b).sync(c)) == dvv_state(a.sync(b.sync(c)))


@given(replica_sets_st())
@settings(max_examples=150)
def test_dvv_sync_idempotent_over_traces(sets):
    for s in sets:
        assert s.sync(s) is s
        twin = DottedValueSet(tuple(s.versions), VectorClock(s.clock))
        assert s.sync(twin) is s
        merged = s.sync(sets[0])
        assert dvv_state(merged.sync(sets[0])) == dvv_state(merged)


# ----------------------------------------------------------------------
# Hybrid logical clocks
# ----------------------------------------------------------------------

def test_hlc_tracks_physical_time_when_it_advances():
    t = {"now": 0.0}
    clock = HybridLogicalClock("n", lambda: t["now"])
    t["now"] = 5.0
    s1 = clock.now()
    assert (s1.physical, s1.logical) == (5.0, 0)
    t["now"] = 9.0
    s2 = clock.now()
    assert (s2.physical, s2.logical) == (9.0, 0)
    assert s1 < s2


def test_hlc_logical_component_breaks_same_instant():
    clock = HybridLogicalClock("n", lambda: 3.0)
    s1, s2 = clock.now(), clock.now()
    assert s1.physical == s2.physical == 3.0
    assert s2.logical == s1.logical + 1
    assert s1 < s2


def test_hlc_observe_respects_happened_before_despite_skew():
    fast = HybridLogicalClock("fast", lambda: 100.0)
    slow = HybridLogicalClock("slow", lambda: 1.0)  # 99ms behind
    sent = fast.now()
    received = slow.observe(sent)
    assert received > sent  # causality preserved despite slow's clock
    assert slow.drift > 0


def test_hlc_observe_stale_stamp_just_ticks():
    clock = HybridLogicalClock("n", lambda: 50.0)
    current = clock.now()
    stale = HybridLogicalClock("old", lambda: 1.0).now()
    received = clock.observe(stale)
    assert received > current
    assert received.physical == 50.0
