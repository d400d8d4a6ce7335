"""Tests for history recording and views."""

from repro.histories import History, HistoryRecorder, make_read, make_write
from repro.sim import Simulator


def test_history_sorted_by_start_time():
    h = History([
        make_read("k", 1, start=5.0, end=6.0),
        make_write("k", 1, start=1.0, end=2.0),
    ])
    assert [op.kind for op in h] == ["write", "read"]
    assert len(h) == 2
    assert h[0].is_write and h[1].is_read


def test_history_views():
    h = History([
        make_write("a", 1, session="s1", start=0, end=1),
        make_read("a", 1, session="s2", start=2, end=3),
        make_write("b", 1, session="s1", start=4, end=5),
        make_read("b", 0, session="s1", start=6, end=7),
    ])
    assert h.sessions == ["s1", "s2"]
    assert h.keys == ["a", "b"]
    assert len(h.by_session("s1")) == 3
    assert len(h.by_key("a")) == 2
    assert len(h.reads()) == 2
    assert len(h.writes()) == 2


def test_history_incomplete_ops_excluded_from_session_view():
    h = History([
        make_write("a", 1, session="s1", start=0, end=None),
        make_read("a", 0, session="s1", start=2, end=3),
    ])
    assert len(h.by_session("s1")) == 1
    assert len(h.completed) == 1


def test_latest_version_before():
    h = History([
        make_write("k", 1, start=0, end=1),
        make_write("k", 2, start=2, end=3),
        make_write("k", 3, start=4, end=None),  # never completed
    ])
    assert h.latest_version_before("k", 0.5) == 0
    assert h.latest_version_before("k", 1.0) == 1
    assert h.latest_version_before("k", 10.0) == 2


def test_add_and_extend_return_new_histories():
    h = History()
    h2 = h.add(make_write("k", 1))
    h3 = h2.extend([make_read("k", 1, start=1, end=2)])
    assert len(h) == 0 and len(h2) == 1 and len(h3) == 2


def test_recorder_tracks_invocation_and_response_times():
    sim = Simulator()
    recorder = HistoryRecorder(sim)
    handles = {}

    def invoke():
        handles["h"] = recorder.begin("read", "k", "s1", replica="r1")

    def respond():
        recorder.complete_token(handles["h"], 4, value="v")

    sim.schedule(1.0, invoke)
    sim.schedule(5.0, respond)
    sim.run()
    history = recorder.history()
    assert len(history) == 1
    op = history[0]
    assert (op.start, op.end) == (1.0, 5.0)
    # The only token recorded for the key densifies to version 1.
    assert op.version == 1 and op.value == "v" and op.replica == "r1"
    assert recorder.pending_count == 0


def test_recorder_fail_records_incomplete_op():
    sim = Simulator()
    recorder = HistoryRecorder(sim)
    handle = recorder.begin("write", "k", "s1")
    recorder.fail(handle)
    op = recorder.history()[0]
    assert not op.completed and op.end is None


def test_recorder_replica_override_on_complete():
    sim = Simulator()
    recorder = HistoryRecorder(sim)
    handle = recorder.begin("read", "k", "s1", replica="guess")
    recorder.complete_token(handle, 1, replica="actual")
    assert recorder.history()[0].replica == "actual"


def test_indexed_views_keep_start_then_op_id_order():
    # Ties on start are broken by op_id, whatever the input order.
    ops = [
        make_write("a", 1, session="s1", start=3, end=4),
        make_read("a", 1, session="s1", start=1, end=2),
        make_write("a", 2, session="s1", start=1, end=5),
        make_read("b", 0, session="s2", start=1, end=None),
        make_read("b", 0, session="s1", start=0, end=1),
    ]
    h = History(reversed(ops))
    in_order = sorted(ops, key=lambda op: (op.start, op.op_id))
    assert h.by_key("a") == [op for op in in_order if op.key == "a"]
    assert h.by_key("b") == [op for op in in_order if op.key == "b"]
    assert h.by_session("s1") == [op for op in in_order if op.session == "s1"]
    assert h.by_session("s2") == []      # its only op never completed
    assert h.sessions == ["s1", "s2"]
    assert h.keys == ["b", "a"]
    assert h.by_key("missing") == [] and h.by_session("missing") == []


def test_indexed_views_return_fresh_lists():
    h = History([
        make_write("k", 1, session="s", start=0, end=1),
        make_read("k", 1, session="s", start=2, end=3),
    ])
    h.by_key("k").clear()
    h.by_session("s").append(None)
    h.keys.append("other")
    h.sessions.clear()
    assert len(h.by_key("k")) == 2 and len(h.by_session("s")) == 2
    assert h.keys == ["k"] and h.sessions == ["s"]


def test_add_and_extend_results_are_reindexed():
    h = History([make_write("k", 1, session="s", start=0, end=1)])
    assert len(h.by_key("k")) == 1 and h.sessions == ["s"]  # index built
    h2 = h.add(make_read("k", 1, session="t", start=2, end=3))
    h3 = h2.extend([make_write("j", 1, session="s", start=4, end=5)])
    assert len(h2.by_key("k")) == 2 and h2.sessions == ["s", "t"]
    assert h3.keys == ["k", "j"] and len(h3.by_session("s")) == 2
    assert h3.latest_version_before("j", 5.0) == 1
    assert len(h.by_key("k")) == 1 and h.keys == ["k"]


#: Densifies one fixed Lamport-stamped history and prints how many
#: stamp comparisons that took, and the versions it produced.
DENSIFY_SCRIPT = """
import json, random
from repro.clocks import LamportStamp
from repro.histories.recorder import TokenHistoryRecorder
from repro.sim import Simulator

calls = 0
less_than = LamportStamp.__lt__

def counting(self, other):
    global calls
    calls += 1
    return less_than(self, other)

LamportStamp.__lt__ = counting
recorder = TokenHistoryRecorder(Simulator())
rng = random.Random(7)
for i in range(300):
    stamp = LamportStamp(rng.randrange(60), f"node-{rng.randrange(5)}")
    handle = recorder.begin("write", f"k{i % 3}", "s")
    recorder.complete_token(handle, stamp, f"v{i}")
versions = [op.version for op in recorder.history()]
print(json.dumps([calls, versions]))
"""


def test_densifying_does_not_depend_on_the_hash_seed():
    # Sorting a set of stamps compares them in hash order, which moves
    # with PYTHONHASHSEED; first-seen order does not.
    import json
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", DENSIFY_SCRIPT], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        runs.append(json.loads(out))
    (calls_1, versions_1), (calls_2, versions_2) = runs
    assert calls_1 > 0
    assert calls_1 == calls_2
    assert versions_1 == versions_2


def test_unhashable_values_are_recorded():
    # Values the driver writes need not be hashable (a cart is a list);
    # they only skip the failed-write version inference.
    recorder = HistoryRecorder(Simulator())
    write = recorder.begin("write", "cart", "s1")
    recorder.complete_token(write, 1, ["milk"])
    lost = recorder.begin("write", "cart", "s1")
    recorder.fail(lost, value=["eggs"])
    history = recorder.history()
    assert [(op.value, op.version) for op in history] == [
        (["milk"], 1), (["eggs"], 0),
    ]
