"""Integration tests for the COPS-style causal store."""

import pytest

from repro.checkers import (
    check_all_session_guarantees,
    check_causal,
    check_convergence,
    check_linearizability,
)
from repro.api import registry
from repro.replication import CausalCluster
from repro.sim import ExponentialLatency, FixedLatency, Network, Simulator, spawn

from .drive import client_session, drive, get, put, sleep


def make_cluster(seed=0, latency=None, nodes=3):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency or FixedLatency(10.0))
    cluster = CausalCluster(sim, net, nodes=nodes)
    return sim, net, cluster


def test_local_write_read_roundtrip():
    sim, _net, cluster = make_cluster()
    client = cluster.connect(home="cc0")
    out = {}

    def script():
        yield client.put("k", "v")
        out["read"] = yield client.get("k")

    spawn(sim, script())
    sim.run()
    value, rank = out["read"]
    assert value == "v" and rank is not None


def test_session_put_and_get_resolve_rank_tuples():
    """The causal adapter hands the replica's replies straight through:
    a put resolves with its ``(vector sum, origin)`` rank tuple, a read
    with ``(value, rank)`` or ``(None, None)`` for a missing key."""
    sim = Simulator(seed=0)
    net = Network(sim, latency=FixedLatency(10.0))
    session = registry.get("causal").build(sim, net, nodes=3).session(
        "s", home="cc0")
    out = {}

    def script():
        out["missing"] = yield session.get("k")
        out["put"] = yield session.put("k", "v")
        out["read"] = yield session.get("k")

    spawn(sim, script())
    sim.run()
    assert out["missing"] == (None, None)
    assert out["put"] == (1, "cc0") and type(out["put"]) is tuple
    value, rank = out["read"]
    assert value == "v" and rank == out["put"] and type(rank) is tuple


def test_writes_propagate_and_converge():
    sim, _net, cluster = make_cluster(seed=1)
    a = cluster.connect(home="cc0")
    b = cluster.connect(home="cc1")

    def script(client, tag):
        for i in range(5):
            yield client.put(f"{tag}-{i}", i)
            yield 7.0

    spawn(sim, script(a, "a"))
    spawn(sim, script(b, "b"))
    sim.run()
    sim.run(until=sim.now + 500.0)
    assert cluster.pending_total() == 0
    assert check_convergence(cluster.snapshots()).ok
    assert len(cluster.replicas[2].snapshot()) == 10


def test_concurrent_writes_arbitrated_identically():
    sim, _net, cluster = make_cluster(seed=2)
    a = cluster.connect(home="cc0")
    b = cluster.connect(home="cc1")

    def script(client, value):
        yield client.put("shared", value)

    spawn(sim, script(a, "from-a"))
    spawn(sim, script(b, "from-b"))
    sim.run()
    sim.run(until=sim.now + 300.0)
    snapshots = cluster.snapshots()
    assert all(s == snapshots[0] for s in snapshots)
    assert snapshots[0]["shared"] in ("from-a", "from-b")


def test_causal_dependency_never_reordered():
    # cc0 writes X, then (after seeing X) writes Y at cc1's behest...
    # Classic: Alice posts (X), Bob reads it at cc0 and replies (Y at
    # cc0 too? no—) Bob is homed at cc1: he can only reply after X
    # reaches cc1.  Then no replica ever shows Y without X.
    sim, _net, cluster = make_cluster(
        seed=3, latency=ExponentialLatency(base=2.0, mean=20.0),
    )
    alice = cluster.connect(home="cc0", session="alice")
    bob = cluster.connect(home="cc1", session="bob")
    observations = []

    def alice_script():
        yield alice.put("post", "hello world")

    def bob_script():
        # Poll until the post is visible at cc1, then reply.
        while True:
            value, _rank = yield bob.get("post")
            if value is not None:
                break
            yield 5.0
        yield bob.put("reply", "hi alice!")

    def observer_script():
        # Watch cc2: if the reply is visible, the post must be too.
        for _ in range(60):
            reply, _ = yield carol.get("reply")
            post, _ = yield carol.get("post")
            observations.append((post, reply))
            yield 3.0

    carol = cluster.connect(home="cc2", session="carol")
    spawn(sim, alice_script())
    spawn(sim, bob_script())
    spawn(sim, observer_script())
    sim.run()
    assert any(reply is not None for _post, reply in observations)
    for post, reply in observations:
        if reply is not None:
            assert post is not None, "reply visible before its cause!"


def test_history_is_causal_but_not_linearizable():
    # Clients are colocated with their home replica (1ms) while the
    # replicas are 40ms apart — local ops are fast, propagation lags.
    from repro.sim import MatrixLatency

    sim = Simulator(seed=4)
    site_of = {"cc0": "s0", "cc1": "s1", "cc2": "s2",
               "ccclient-1": "s0", "ccclient-2": "s1"}
    latency = MatrixLatency(
        {(a, b): (0.5 if a == b else 40.0)
         for a in ("s0", "s1", "s2") for b in ("s0", "s1", "s2")},
        site_of=lambda n: site_of[n], jitter=0.0,
    )
    net = Network(sim, latency=latency)
    cluster = CausalCluster(sim, net, nodes=3)
    writer = client_session(cluster.connect(home="cc0", session="writer"))
    reader = client_session(cluster.connect(home="cc1", session="reader"))
    history = drive(
        sim,
        (writer, [op for i in range(8) for op in (put("k", i), sleep(10.0))]),
        (reader, [sleep(5.0)] + [get("k"), sleep(10.0)] * 10),
    ).history
    sim.run(until=sim.now + 500.0)
    assert len(history) == len(history.completed) == 18
    assert check_causal(history).ok
    assert not check_linearizability(history).ok  # stale remote reads


def test_session_guarantees_hold_for_pinned_clients():
    sim, _net, cluster = make_cluster(seed=5)
    lanes = [
        (client_session(cluster.connect(home=f"cc{index}",
                                        session=f"s{index}")),
         [op for i in range(6)
          for op in (put(f"key-{index}", i), get(f"key-{index}"),
                     get(f"key-{(index + 1) % 3}"), sleep(8.0))])
        for index in range(3)
    ]
    history = drive(sim, *lanes).history
    sim.run(until=sim.now + 500.0)
    assert len(history) == len(history.completed) == 54
    for name, verdict in check_all_session_guarantees(history).items():
        assert verdict.ok, f"{name}: {verdict.violations[:2]}"
    assert check_causal(history).ok


def test_duplicated_messages_tolerated():
    sim = Simulator(seed=6)
    net = Network(sim, latency=FixedLatency(5.0), duplicate_rate=0.4)
    cluster = CausalCluster(sim, net, nodes=3)
    client = cluster.connect(home="cc0")

    def script():
        for i in range(10):
            yield client.put("k", i)
            yield 6.0

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 300.0)
    assert check_convergence(cluster.snapshots()).ok
    assert cluster.replicas[1].snapshot()["k"] == 9


def test_read_of_missing_key():
    sim, _net, cluster = make_cluster()
    client = cluster.connect(home="cc0")
    out = {}

    def script():
        out["read"] = yield client.get("ghost")

    spawn(sim, script())
    sim.run()
    assert out["read"] == (None, None)
