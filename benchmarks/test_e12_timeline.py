"""E12 ("Figure 8"): timeline consistency — stale but never forked.

Claims (PNUTS): (a) the stale-read fraction of ``read_any`` grows with
asynchronous propagation lag; (b) reads never observe versions out of
per-record order (monotonic at a fixed replica, single master ⇒ no
forks); (c) ``read_critical`` converts staleness into bounded waiting;
(d) moving a record's master to its writer's site trades write latency
against remote-read freshness.
"""

import pytest

from common import emit
from repro import Network, Simulator, spawn
from repro.analysis import LatencyStats, render_table
from repro.checkers import (
    check_convergence,
    check_monotonic_reads,
    stale_read_fraction,
)
from repro.histories import HistoryRecorder
from repro.replication import TimelineCluster
from repro.sim import FixedLatency

ROUNDS = 20


def run_lag(propagation_delay, critical=False, seed=3):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(3.0))
    cluster = TimelineCluster(sim, net, nodes=3,
                              propagation_delay=propagation_delay)
    master = cluster.master_of("rec")
    replica = next(n for n in cluster.node_ids if n != master)
    writer = cluster.connect(session="writer")
    reader = cluster.connect(session="reader", home=replica)
    read_latency = LatencyStats()
    # Critical reads take a protocol argument the store API has no
    # mode for, so the scripts record their own ops.
    recorder = HistoryRecorder(sim)

    def write_loop():
        for i in range(ROUNDS):
            handle = recorder.begin("write", "rec", "writer")
            version = yield writer.write("rec", f"v{i}")
            recorder.complete_token(handle, version, f"v{i}")
            yield 12.0

    def read_loop():
        yield 6.0
        for i in range(ROUNDS):
            start = sim.now
            handle = recorder.begin("read", "rec", "reader")
            if critical:
                # The reader demands a version it knows exists (round
                # i ⇒ the writer has committed at least version i) —
                # how PNUTS apps use read_critical after out-of-band
                # notification.  The replica blocks until propagation
                # delivers it.
                future = reader.read_critical("rec", min_version=max(1, i))
            else:
                future = reader.read_any("rec")
            value, version = yield future
            recorder.complete_token(handle, version, value)
            read_latency.record(sim.now - start)
            yield 12.0

    spawn(sim, write_loop())
    spawn(sim, read_loop())
    sim.run()
    sim.run(until=sim.now + 5 * propagation_delay + 100.0)
    history = recorder.history()
    assert len(history) == len(history.completed) == 2 * ROUNDS
    return {
        "stale": stale_read_fraction(history),
        "monotonic": check_monotonic_reads(history).ok,
        "read_ms": read_latency.mean,
        "converged": check_convergence(cluster.snapshots()).ok,
    }


def run_mastership(master_site_is_writer, seed=4):
    """Writer colocated with tl1; does moving the record master to tl1
    make its writes local (PNUTS's mastership-migration motivation)?"""
    from repro.sim import MatrixLatency

    sim = Simulator(seed=seed)
    site_of = {"tl0": "east", "tl1": "west", "tl2": "asia",
               "tlclient-1": "west", "tl0-fwd": "east"}
    latency = MatrixLatency(
        {("east", "west"): 25.0, ("east", "asia"): 50.0,
         ("west", "asia"): 60.0, ("east", "east"): 0.5,
         ("west", "west"): 0.5, ("asia", "asia"): 0.5},
        site_of=lambda node: site_of[node],
        jitter=0.0,
    )
    net = Network(sim, latency=latency)
    cluster = TimelineCluster(sim, net, nodes=3, propagation_delay=10.0)
    cluster.set_master("rec", "tl1" if master_site_is_writer else "tl0")
    writer = cluster.connect(session="w", home="tl1")
    write_latency = LatencyStats()

    def script():
        for i in range(10):
            start = sim.now
            yield writer.write("rec", i)
            write_latency.record(sim.now - start)
            yield 5.0

    spawn(sim, script())
    sim.run()
    return write_latency.mean


def test_e12_timeline(benchmark, capsys):
    lags = (0.0, 4.0, 8.0, 15.0, 60.0)
    results = {lag: run_lag(lag) for lag in lags}
    emit(capsys, render_table(
        ["propagation lag (ms)", "stale read frac", "monotonic reads",
         "replicas converged"],
        [
            [lag, round(results[lag]["stale"], 3),
             results[lag]["monotonic"], results[lag]["converged"]]
            for lag in lags
        ],
        title="E12a: read_any staleness vs. asynchronous lag "
              "(remote replica reader)",
    ))

    critical = run_lag(60.0, critical=True)
    emit(capsys, render_table(
        ["mode", "stale frac", "mean read ms"],
        [["read_any", round(results[60.0]["stale"], 3),
          round(results[60.0]["read_ms"], 1)],
         ["read_critical", round(critical["stale"], 3),
          round(critical["read_ms"], 1)]],
        title="E12b: staleness traded for waiting at 60ms lag",
    ))

    near = run_mastership(True)
    far = run_mastership(False)
    emit(capsys, render_table(
        ["record master", "writer's mean write ms"],
        [["writer's node", round(near, 1)], ["remote node", round(far, 1)]],
        title="E12c: mastership migration (PNUTS write locality)",
    ))

    # (a) staleness grows with lag.
    staleness = [results[lag]["stale"] for lag in lags]
    assert staleness[0] <= staleness[1] <= staleness[3]
    assert staleness[3] > 0.5
    # (b) never off-timeline: monotonic reads hold at every lag, and
    #     replicas converge once propagation drains.
    assert all(results[lag]["monotonic"] for lag in lags)
    assert all(results[lag]["converged"] for lag in lags)
    # (c) critical reads remove the reader's own staleness... at the
    #     price of waiting for propagation.
    assert critical["read_ms"] > results[60.0]["read_ms"]
    # (d) local mastership makes writes local.
    assert near < far / 3

    benchmark.pedantic(run_lag, args=(20.0,), rounds=2, iterations=1)
