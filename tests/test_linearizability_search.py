"""The linearizability search against a brute-force oracle, and at depth.

The oracle below is written from the definition, independently of the
checker: a key's sub-history is linearizable iff some total order of
its completed ops, plus any subset of its writes that never responded,
respects real time and makes every read return the version of the last
write before it (0 when there is none).  Real time follows the
checker's convention for ties: ``a`` must precede ``b`` only when ``a``
responded strictly before ``b`` was invoked.  A read that never
responded constrains nothing and is left out.
"""

import sys
import time
from contextlib import contextmanager
from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers import check_linearizability, check_linearizability_key
from repro.histories import History, Operation, make_read, make_write

#: CPython's default; the checkers must not need more.
DEFAULT_RECURSION_LIMIT = 1_000


@contextmanager
def default_recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def _legal(order) -> bool:
    version = 0
    for position, op in enumerate(order):
        for later in order[position + 1:]:
            if later.completed and later.end < op.start:
                return False
        if op.is_write:
            version = op.version
        elif op.version != version:
            return False
    return True


def oracle_linearizable(ops) -> bool:
    completed = [op for op in ops if op.completed]
    pending_writes = [op for op in ops if op.is_write and not op.completed]
    for count in range(len(pending_writes) + 1):
        for applied in combinations(pending_writes, count):
            for order in permutations(completed + list(applied)):
                if _legal(order):
                    return True
    return False


# (is_write, start, duration, responded, read version before wrapping)
op_st = st.tuples(
    st.booleans(),
    st.integers(0, 6),
    st.integers(0, 3),
    st.sampled_from([True, True, True, False]),
    st.integers(0, 7),
)


def key_ops(key, specs):
    """Writes install versions 1, 2, ... in generation order; a read's
    version wraps into 0..number of writes."""
    writes = sum(1 for is_write, *_ in specs if is_write)
    ops, next_version = [], 1
    for is_write, start, duration, responded, raw in specs:
        end = start + duration if responded else None
        if is_write:
            ops.append(Operation("write", key, next_version, "s", start, end))
            next_version += 1
        else:
            ops.append(Operation("read", key, raw % (writes + 1), "s",
                                 start, end))
    return ops


@given(per_key=st.lists(st.lists(op_st, max_size=7), min_size=1,
                        max_size=2))
@settings(max_examples=200, deadline=None)
def test_search_matches_brute_force_oracle(per_key):
    keys = [f"k{i}" for i in range(len(per_key))]
    ops_of = {key: key_ops(key, specs) for key, specs in zip(keys, per_key)}
    history = History([op for ops in ops_of.values() for op in ops])
    expected = {key: oracle_linearizable(ops) for key, ops in ops_of.items()}

    verdict = check_linearizability(history)
    assert verdict.ok == all(expected.values())
    assert verdict.violation_count == sum(not ok for ok in expected.values())
    assert verdict.checked_ops == len(history.completed)
    for key in keys:
        assert check_linearizability_key(history, key) == expected[key]


def test_deep_single_key_history_needs_no_recursion():
    ops = []
    for i in range(5_000):
        ops.append(make_write("k", i + 1, start=4.0 * i, end=4.0 * i + 1))
        ops.append(make_read("k", i + 1, start=4.0 * i + 2,
                             end=4.0 * i + 3))
    history = History(ops)
    with default_recursion_limit():
        started = time.perf_counter()
        verdict = check_linearizability(history)
        elapsed = time.perf_counter() - started
    assert verdict.ok and verdict.checked_ops == 10_000
    assert elapsed < 1.0


def test_deep_single_key_violation_is_found():
    # The same chain with its last read stale: the search must unwind
    # all the way back before it can report the violation.
    ops = []
    for i in range(2_000):
        ops.append(make_write("k", i + 1, start=4.0 * i, end=4.0 * i + 1))
        ops.append(make_read("k", i if i == 1_999 else i + 1,
                             start=4.0 * i + 2, end=4.0 * i + 3))
    with default_recursion_limit():
        verdict = check_linearizability(History(ops))
    assert verdict.violation_count == 1
    assert "no linearization of 4000 ops exists" in str(verdict.violations[0])


def test_pending_write_never_blocks_later_ops():
    # A write that never responded overlaps everything after it; the
    # completed ops around it linearize with or without it.
    ops = [make_write("k", 1, start=0, end=None)]
    for i in range(200):
        ops.append(make_read("k", 0, start=1.0 + 2 * i, end=2.0 + 2 * i))
    ops.append(make_read("k", 1, start=500, end=501))
    assert check_linearizability(History(ops)).ok
    ops.append(make_read("k", 0, start=502, end=503))
    assert not check_linearizability(History(ops)).ok
