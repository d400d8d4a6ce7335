"""Tests for the client-side session-guarantee layer."""

import pytest

from repro.checkers import check_monotonic_reads, check_read_your_writes
from repro.client import SessionClient, timeline_session
from repro.errors import TimeoutError as ReproTimeoutError
from repro.histories import HistoryRecorder
from repro.replication import TimelineCluster
from repro.sim import FixedLatency, Future, Network, Simulator, spawn

from .drive import client_session, drive, get, put, sleep


def make_timeline(seed=0, propagation_delay=100.0, latency=3.0):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    cluster = TimelineCluster(sim, net, nodes=3,
                              propagation_delay=propagation_delay)
    return sim, net, cluster


def non_master_home(cluster, key="k"):
    master = cluster.master_of(key)
    return next(n for n in cluster.node_ids if n != master)


def session_lane(raw, session):
    """A driver session issuing ``session``'s reads and writes: the
    driver's history is what the application saw."""
    return client_session(
        raw,
        write=lambda key, value, timeout: session.write(key, value),
        read=lambda key, timeout: session.read(key),
    )


def recorded(recorder, raw, kind, fn):
    """``fn`` (a raw timeline call) that also records into ``recorder``
    every reply the store gave, stale or not."""
    def call(key, *args):
        handle = recorder.begin(kind, key, raw.session)
        future = fn(key, *args)

        def done(future):
            if future.error is not None:
                recorder.fail(handle)
            elif kind == "write":
                recorder.complete_token(handle, future.value, args[0])
            else:
                value, version = future.value
                recorder.complete_token(handle, version, value)

        future.add_callback(done)
        return future

    return call


def test_unknown_guarantee_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        SessionClient(sim, lambda k: None, lambda k, v: None,
                      guarantees=["ryw", "linearizable"])


def test_ryw_enforced_by_retry():
    sim, _net, cluster = make_timeline()
    raw = cluster.connect(home=non_master_home(cluster))
    session = timeline_session(raw, guarantees=("ryw",), retry_delay=15.0)
    out = {}

    def script():
        yield session.write("k", "mine")
        value, version = yield session.read("k")
        out["read"] = (value, version)

    spawn(sim, script())
    sim.run()
    assert out["read"] == ("mine", 1)
    assert session.stats.read_retries > 0      # it had to wait out the lag
    assert session.stats.reads_rejected_stale > 0


def test_without_guarantees_stale_read_accepted():
    sim, _net, cluster = make_timeline()
    raw = cluster.connect(home=non_master_home(cluster))
    session = timeline_session(raw, guarantees=())
    history = drive(
        sim, (session_lane(raw, session), [put("k", "mine"), get("k")]),
    ).history
    assert len(history) == 2
    (read,) = history.reads()
    assert (read.value, read.version) == (None, 0)  # stale accepted
    assert session.stats.read_retries == 0          # ... with no retries
    assert not check_read_your_writes(history).ok


def test_session_history_passes_checkers_with_guarantees():
    sim, _net, cluster = make_timeline(seed=2, propagation_delay=60.0)
    raw = cluster.connect(home=non_master_home(cluster))
    store_level = HistoryRecorder(sim)
    session = SessionClient(
        sim,
        recorded(store_level, raw, "read", raw.read_any),
        recorded(store_level, raw, "write", raw.write),
        guarantees=("ryw", "mr"),
        retry_delay=10.0,
    )
    # The *session-level* history (accepted replies only) is clean...
    history = drive(
        sim,
        (session_lane(raw, session),
         [op for i in range(5) for op in (put("k", i), get("k"),
                                          sleep(20.0))]),
    ).history
    assert len(history) == len(history.completed) == 10
    assert check_read_your_writes(history).ok
    assert check_monotonic_reads(history).ok
    # ...while the raw store history shows the stale replies the
    # floors rejected — the enforcement is real work, not luck.
    raw_history = store_level.history()
    assert len(raw_history) == 10 + session.stats.read_retries
    assert not check_read_your_writes(raw_history).ok


def test_monotonic_reads_floor_advances():
    sim, _net, cluster = make_timeline(propagation_delay=0.0)
    raw = cluster.connect()
    session = timeline_session(raw, guarantees=("mr",))
    out = {}

    def script():
        yield session.write("k", "v1")
        yield session.read("k")
        out["floor"] = session.state.read_floor.get("k")

    spawn(sim, script())
    sim.run()
    assert out["floor"] == 1


def test_read_gives_up_after_max_retries():
    sim, net, cluster = make_timeline(propagation_delay=10_000.0)
    raw = cluster.connect(home=non_master_home(cluster))
    session = timeline_session(raw, guarantees=("ryw",), retry_delay=5.0)
    session.max_retries = 3
    out = {}

    def script():
        yield session.write("k", "v")
        try:
            yield session.read("k")
            out["r"] = "ok"
        except ReproTimeoutError:
            out["r"] = "gave-up"

    spawn(sim, script())
    sim.run()
    assert out["r"] == "gave-up"
    assert session.stats.reads_rejected_stale == 3


def test_spread_replicas_rotates_home():
    sim, _net, cluster = make_timeline(propagation_delay=200.0, seed=5)
    raw = cluster.connect(home=non_master_home(cluster))
    session = timeline_session(
        raw, guarantees=("ryw",), retry_delay=5.0, spread_replicas=True,
    )
    out = {}

    def script():
        yield session.write("k", "v")
        started = sim.now
        out["read"] = yield session.read("k")
        out["latency"] = sim.now - started

    spawn(sim, script())
    sim.run()
    # Rotation eventually lands on the master, which is fresh.
    assert out["read"] == ("v", 1)
    # And it resolved much faster than the 200ms propagation delay
    # would allow by waiting (a handful of 5ms retries).
    assert out["latency"] < 100.0


def test_write_failure_propagates():
    sim = Simulator()

    def failing_write(key, value):
        future = Future(sim)
        future.fail(ReproTimeoutError("store down"))
        return future

    def read_fn(key):
        future = Future(sim)
        future.resolve((None, 0))
        return future

    session = SessionClient(sim, read_fn, failing_write)
    result = session.write("k", 1)
    sim.run()
    assert isinstance(result.error, ReproTimeoutError)


def test_stats_count_operations():
    sim, _net, cluster = make_timeline(propagation_delay=0.0)
    raw = cluster.connect()
    session = timeline_session(raw)

    def script():
        yield session.write("a", 1)
        yield session.read("a")
        yield session.read("a")

    spawn(sim, script())
    sim.run()
    assert session.stats.writes == 1
    assert session.stats.reads == 2
