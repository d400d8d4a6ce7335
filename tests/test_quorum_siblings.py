"""Integration tests for sibling-mode (multi-value) Dynamo."""

import pytest

from repro.errors import QuorumError, TimeoutError as ReproTimeoutError
from repro.replication import SiblingDynamoCluster
from repro.sim import FixedLatency, Network, Simulator, spawn


def make_cluster(seed=0, latency=2.0, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    kwargs.setdefault("nodes", 5)
    cluster = SiblingDynamoCluster(sim, net, **kwargs)
    return sim, net, cluster


def test_put_get_roundtrip_single_value():
    sim, _net, cluster = make_cluster()
    client = cluster.connect()
    out = {}

    def script():
        yield client.put("cart", ["milk"])
        out["read"] = yield client.get("cart")

    spawn(sim, script())
    sim.run()
    values, context = out["read"]
    assert values == [["milk"]]
    assert context  # non-empty causal context


def test_chained_writes_supersede_no_siblings():
    sim, _net, cluster = make_cluster()
    client = cluster.connect()
    out = {}

    def script():
        yield client.put("k", "v1")
        yield client.put("k", "v2")   # context chained automatically
        yield client.put("k", "v3")
        out["read"] = yield client.get("k")

    spawn(sim, script())
    sim.run()
    values, _context = out["read"]
    assert values == ["v3"]


def test_concurrent_blind_writes_become_siblings():
    sim, _net, cluster = make_cluster(seed=2)
    alice = cluster.connect(session="alice")
    bob = cluster.connect(session="bob")
    out = {}

    def alice_script():
        yield alice.put("k", "from-alice")

    def bob_script():
        yield bob.put("k", "from-bob")

    def reader_script():
        yield 100.0
        out["read"] = yield alice.get("k")

    spawn(sim, alice_script())
    spawn(sim, bob_script())
    spawn(sim, reader_script())
    sim.run()
    values, _context = out["read"]
    assert sorted(values) == ["from-alice", "from-bob"]


def test_read_then_write_resolves_siblings():
    sim, _net, cluster = make_cluster(seed=3)
    alice = cluster.connect(session="alice")
    bob = cluster.connect(session="bob")
    out = {}

    def script():
        yield alice.put("k", "a")
        yield bob.put("k", "b")      # concurrent: bob has no context
        yield 50.0
        values, context = yield alice.get("k")
        out["siblings"] = sorted(values)
        yield alice.put("k", "merged", context=context)
        yield 50.0
        out["resolved"] = (yield alice.get("k"))[0]

    spawn(sim, script())
    sim.run()
    assert out["siblings"] == ["a", "b"]
    assert out["resolved"] == ["merged"]


def test_cart_merge_no_lost_adds():
    """The Dynamo cart property: concurrent adds from two clients both
    survive, unlike LWW where one write silently wins."""
    sim, _net, cluster = make_cluster(seed=4)
    east = cluster.connect(session="east")
    west = cluster.connect(session="west")
    out = {}

    def east_script():
        values, ctx = yield east.get("cart")
        yield east.put("cart", ("milk",), context=ctx)

    def west_script():
        values, ctx = yield west.get("cart")
        yield west.put("cart", ("laptop",), context=ctx)

    def check_script():
        yield 100.0
        values, ctx = yield east.get("cart")
        # Application-level merge of siblings:
        merged = sorted(item for sibling in values for item in sibling)
        yield east.put("cart", tuple(merged), context=ctx)
        yield 50.0
        out["final"] = (yield east.get("cart"))[0]

    spawn(sim, east_script())
    spawn(sim, west_script())
    spawn(sim, check_script())
    sim.run()
    assert out["final"] == [("laptop", "milk")]


def test_replicas_converge_after_sweep():
    sim, _net, cluster = make_cluster(seed=5)
    clients = [cluster.connect(session=f"s{i}") for i in range(3)]

    def script(client, tag):
        for i in range(4):
            yield client.put("shared", f"{tag}-{i}")
            yield 9.0

    for i, client in enumerate(clients):
        spawn(sim, script(client, f"c{i}"))
    sim.run()
    cluster.anti_entropy_sweep()
    snapshots = cluster.snapshots()
    assert all(s == snapshots[0] for s in snapshots)


def test_read_repair_heals_stale_home():
    sim, _net, cluster = make_cluster(seed=6, r=3, w=1, read_repair=True)
    client = cluster.connect()
    out = {}

    def script():
        yield client.put("k", "v")
        yield 100.0
        out["read"] = yield client.get("k")
        yield 100.0

    spawn(sim, script())
    sim.run()
    homes = cluster.ring.preference_list("k", cluster.n)
    for home in homes:
        assert cluster.node(home).entry("k").values() == ["v"]


def test_sloppy_quorum_with_sibling_hints():
    sim, net, cluster = make_cluster(seed=7, nodes=6, sloppy=True,
                                     hint_interval=30.0)
    client = cluster.connect()
    homes = cluster.ring.preference_list("k", cluster.n)
    reachable = [client.node_id, homes[0]] + [
        n for n in cluster.ring.nodes if n not in homes
    ]
    net.partition(reachable)
    out = {}

    def script():
        try:
            yield client.put("k", "v", timeout=600.0)
            out["result"] = "ok"
        except (QuorumError, ReproTimeoutError) as exc:
            out["result"] = type(exc).__name__

    spawn(sim, script())
    sim.run()
    assert out["result"] == "ok"
    assert cluster.hinted_writes >= 1
    net.heal()
    sim.run(until=sim.now + 500.0)
    assert cluster.hints_delivered >= 1
    for home in homes:
        assert cluster.node(home).entry("k").values() == ["v"]


def test_shared_sets_keep_value_semantics():
    """Replicas receive the coordinator's stored set by reference; a
    later put at the coordinator must leave both the replica's stored
    set and the message it received as they were."""
    sim, _net, cluster = make_cluster()
    coordinator, replica = cluster.ring.preference_list("k", cluster.n)[:2]
    node = cluster.node(replica)
    received = []
    handle = node.handle_SibStoreMsg

    def spy(src, msg):
        received.append((msg, msg.entry.wire_form()))
        handle(src, msg)

    node.handle_SibStoreMsg = spy
    client = cluster.connect(coordinator=coordinator)
    out = {}

    def script():
        yield client.put("k", "v1")
        yield 50.0
        out["stored"] = node.entry("k")
        out["wire"] = out["stored"].wire_form()
        yield client.put("k", "v2")
        yield 50.0

    spawn(sim, script())
    sim.run()
    first, first_wire = received[0]
    assert first.entry.wire_form() == first_wire
    assert first.entry.values() == ["v1"]
    assert out["stored"].wire_form() == out["wire"]
    assert out["stored"].values() == ["v1"]
    assert node.entry("k").values() == ["v2"]
    assert cluster.node(coordinator).entry("k").values() == ["v2"]


def test_strict_quorum_unavailable_when_homes_cut():
    sim, net, cluster = make_cluster(seed=8, sloppy=False)
    client = cluster.connect()
    homes = cluster.ring.preference_list("k", cluster.n)
    net.partition([client.node_id, homes[0]])
    out = {}

    def script():
        try:
            yield client.put("k", "v", timeout=600.0)
            out["result"] = "ok"
        except (QuorumError, ReproTimeoutError) as exc:
            out["result"] = type(exc).__name__

    spawn(sim, script())
    sim.run()
    assert out["result"] in ("QuorumError", "TimeoutError")


def test_parameter_validation():
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(ValueError):
        SiblingDynamoCluster(sim, net, nodes=3, n=3, r=0)
    with pytest.raises(ValueError):
        SiblingDynamoCluster(sim, net, nodes=2, n=3)
