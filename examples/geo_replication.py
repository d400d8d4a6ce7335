"""The consistency spectrum, measured: five protocols, one geo layout.

Five replication designs serve the same read/write workload across
us-east / eu / asia, with the client in the EU:

* eventual       — Dynamo quorums, R=W=1
* quorum R+W>N   — Dynamo quorums, R=W=2
* timeline       — PNUTS per-record master (reads local, writes remote)
* session (RYW)  — timeline + read-your-writes client floors
* strong (Paxos) — Multi-Paxos log, leader in us-east
* strong (chain) — chain replication across the three sites

For each we report client-observed latency and what the checkers say
— the tutorial's central table, produced by measurement instead of
citation.

Run:  python examples/geo_replication.py
      python examples/geo_replication.py --trace geo.trace.jsonl
      REPRO_TRACE=geo.trace.jsonl python examples/geo_replication.py

With tracing enabled, the eventual-consistency run records every
executed event, message send/deliver/drop and protocol annotation;
the dump is summarized with ``python -m repro trace geo.trace.jsonl``.
"""

import os
import sys

from repro import Network, Simulator
from repro.analysis import LatencyStats, print_table
from repro.api import FnSession
from repro.checkers import (
    check_linearizability,
    check_read_your_writes,
    stale_read_fraction,
)
from repro.client import timeline_session
from repro.replication import (
    ChainCluster,
    DynamoCluster,
    MultiPaxosCluster,
    TimelineCluster,
)
from repro.sim import THREE_CONTINENTS
from repro.workload import OpSpec, WorkloadDriver

SITES = ("us-east", "eu", "asia")
CLIENT_SITE = "eu"
ROUNDS = 15


def geo_network(sim, node_ids, client_ids, extra=()):
    placement = {}
    for index, node_id in enumerate(node_ids):
        placement[node_id] = SITES[index % len(SITES)]
    for client_id in client_ids:
        placement[client_id] = CLIENT_SITE
    for node_id, site in extra:
        placement[node_id] = site
    return Network(
        sim, latency=THREE_CONTINENTS.latency_model(placement, jitter=0.05)
    )


def measure(history):
    reads = LatencyStats()
    writes = LatencyStats()
    for op in history.completed:
        (reads if op.is_read else writes).record(op.end - op.start)
    return reads, writes


def put(i):
    return OpSpec("update", f"key-{i % 3}", f"v{i}")


def get(i):
    return OpSpec("read", f"key-{i % 3}")


def pause(ms):
    return OpSpec("sleep", "", ms)


def session(name, write_fn=None, read_fn=None):
    """A driver session over one protocol's write/read calls."""
    return FnSession(
        name,
        put_fn=lambda key, value, _timeout: write_fn(key, value),
        read_fns={"read": lambda key, _timeout: read_fn(key)},
        default_mode="read",
    )


def drive(sim, *lanes):
    """Run ``(session, ops)`` lanes through the workload driver and
    return the history it recorded at the session boundary."""
    driver = WorkloadDriver(sim)
    for lane_session, ops in lanes:
        driver.add_session(lane_session, ops)
    return driver.run().history


def write_then_read(write_fn, read_fn, rounds=ROUNDS):
    """The EU client's lane: write a key, pause, read it back, pause."""
    ops = [op for i in range(rounds)
           for op in (put(i), pause(5.0), get(i), pause(5.0))]
    return session("eu", write_fn, read_fn), ops


def run_dynamo(r, w, label, seed=1, remote_reader=False, tracer=None):
    sim = Simulator(seed=seed, tracer=tracer)
    ids = [f"dyn{i}" for i in range(3)]
    client_ids = ["dclient-1"]
    extra = []
    if remote_reader:
        extra.append(("dclient-2", "asia"))
    net = geo_network(sim, ids, client_ids, extra=extra)
    cluster = DynamoCluster(sim, net, nodes=3, n=3, r=r, w=w, node_ids=ids,
                            op_deadline=2_000.0, client_timeout=4_000.0)
    client = cluster.connect(coordinator="dyn1")  # the EU node is local
    if remote_reader:
        # A second user in Asia reads through their local node while
        # the EU user writes: the eventual-consistency anomaly is in
        # *their* reads, racing the asynchronous replication.
        reader = cluster.connect(coordinator="dyn2")
        history = drive(
            sim,
            (session("eu", write_fn=client.put),
             [op for i in range(ROUNDS) for op in (put(i), pause(10.0))]),
            (session("asia", read_fn=reader.get),
             [pause(2.0)] + [op for i in range(ROUNDS)
                             for op in (get(i), pause(10.0))]),
        )
    else:
        history = drive(sim, write_then_read(client.put, client.get))
    reads, writes = measure(history)
    if tracer is not None:
        # Show what the observability layer collected for this run.
        print("metrics registry for the traced run "
              f"({label}):\n{sim.metrics.render(prefix='quorum')}\n")
    return [label, round(reads.mean, 1), round(writes.mean, 1),
            round(stale_read_fraction(history), 3),
            check_linearizability(history).ok]


def run_timeline(with_session, label, seed=1):
    sim = Simulator(seed=seed)
    ids = [f"tl{i}" for i in range(3)]
    net = geo_network(sim, ids, ["tlclient-1"], extra=[("tl0-fwd", "us-east")])
    cluster = TimelineCluster(sim, net, nodes=3, propagation_delay=20.0,
                              node_ids=ids)
    for i in range(3):
        cluster.set_master(f"key-{i}", "tl0")   # mastered in us-east
    raw = cluster.connect(home="tl1")           # EU reads local
    if with_session:
        client = timeline_session(raw, guarantees=("ryw", "mr"),
                                  retry_delay=10.0)
        history = drive(sim, write_then_read(client.write, client.read))
    else:
        history = drive(sim, write_then_read(raw.write, raw.read_any))
    reads, writes = measure(history)
    return [label, round(reads.mean, 1), round(writes.mean, 1),
            round(stale_read_fraction(history), 3),
            check_linearizability(history).ok]


def run_paxos(seed=1):
    sim = Simulator(seed=seed)
    ids = [f"px{i}" for i in range(3)]
    net = geo_network(sim, ids, ["pxclient-1"])
    cluster = MultiPaxosCluster(sim, net, nodes=3, node_ids=ids)
    cluster.elect()
    sim.run()
    client = cluster.connect()
    history = drive(sim, write_then_read(client.put, client.get))
    reads, writes = measure(history)
    return ["strong (paxos)", round(reads.mean, 1), round(writes.mean, 1),
            round(stale_read_fraction(history), 3),
            check_linearizability(history).ok]


def run_chain(seed=1):
    sim = Simulator(seed=seed)
    ids = [f"ch{i}" for i in range(3)]
    net = geo_network(sim, ids, ["chclient-1"])
    cluster = ChainCluster(sim, net, nodes=3, node_ids=ids)
    client = cluster.connect()
    history = drive(sim, write_then_read(client.put, client.get))
    reads, writes = measure(history)
    return ["strong (chain)", round(reads.mean, 1), round(writes.mean, 1),
            round(stale_read_fraction(history), 3),
            check_linearizability(history).ok]


def main(trace_path=None) -> None:
    print(__doc__)
    tracer = None
    if trace_path:
        from repro.sim import Tracer

        tracer = Tracer()
    rows = [
        run_dynamo(1, 1, "eventual (R=W=1)", tracer=tracer),
        run_dynamo(1, 1, "eventual + far reader", remote_reader=True),
        run_dynamo(2, 2, "quorum (R=W=2)"),
        run_timeline(False, "timeline (read local)"),
        run_timeline(True, "session RYW+MR"),
        run_paxos(),
        run_chain(),
    ]
    print_table(
        ["protocol", "read ms", "write ms", "stale reads", "linearizable"],
        rows,
        title=f"EU client, replicas in {', '.join(SITES)}",
    )
    print(
        "\nReading down the table is walking up the tutorial's spectrum:"
        "\neach rung buys anomalies away with round trips."
    )
    if tracer is not None:
        count = tracer.dump_jsonl(trace_path)
        summary = tracer.message_summary()
        print(f"\nwrote {count} trace events to {trace_path} "
              f"({len(summary)} message types); inspect with:")
        print(f"  python -m repro trace {trace_path} --summary-only")


if __name__ == "__main__":
    # Lightweight arg handling so the script stays runnable through
    # `python -m repro run geo_replication` (which leaves foreign argv).
    trace_path = os.environ.get("REPRO_TRACE")
    argv = sys.argv[1:]
    if "--trace" in argv and argv.index("--trace") + 1 < len(argv):
        trace_path = argv[argv.index("--trace") + 1]
    main(trace_path=trace_path)
