"""Tests for single-decree Paxos and the Multi-Paxos KV cluster."""

import pytest

from repro.checkers import check_convergence, check_linearizability
from repro.errors import NotLeaderError, TimeoutError as ReproTimeoutError
from repro.replication import Acceptor, MultiPaxosCluster, Proposer
from repro.sim import ExponentialLatency, FixedLatency, Network, Simulator, spawn

from .drive import client_session, drive, get, put, sleep


# ----------------------------------------------------------------------
# Single-decree Paxos
# ----------------------------------------------------------------------

def make_synod(n_acceptors=3, n_proposers=1, seed=0, latency=None):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency or FixedLatency(2.0))
    acceptor_ids = [f"acc{i}" for i in range(n_acceptors)]
    acceptors = [Acceptor(sim, net, a) for a in acceptor_ids]
    decided = []
    proposers = [
        Proposer(
            sim, net, f"prop{i}", acceptor_ids,
            on_decided=lambda v, i=i: decided.append((i, v)),
        )
        for i in range(n_proposers)
    ]
    return sim, net, acceptors, proposers, decided


def test_single_proposer_decides_its_value():
    sim, _net, _acceptors, proposers, decided = make_synod()
    proposers[0].propose("alpha")
    sim.run()
    assert decided == [(0, "alpha")]
    assert proposers[0].decided_value == "alpha"


def test_decision_survives_minority_acceptor_crash():
    sim, _net, acceptors, proposers, decided = make_synod(n_acceptors=5)
    acceptors[0].crash()
    acceptors[1].crash()
    proposers[0].propose("beta")
    sim.run()
    assert decided == [(0, "beta")]


def test_no_decision_without_majority():
    sim, _net, acceptors, proposers, decided = make_synod(n_acceptors=3)
    acceptors[0].crash()
    acceptors[1].crash()
    proposers[0].propose("gamma")
    sim.run(until=10_000.0)
    assert decided == []


def test_dueling_proposers_agree_on_one_value():
    sim, _net, _acceptors, proposers, decided = make_synod(
        n_proposers=2, seed=3, latency=ExponentialLatency(base=1.0, mean=3.0),
    )
    proposers[0].propose("left")
    proposers[1].propose("right")
    sim.run()
    values = {value for _proposer, value in decided}
    assert len(values) == 1
    assert values.pop() in ("left", "right")


@pytest.mark.parametrize("seed", [1, 2, 5, 8, 13])
def test_safety_across_seeds_with_three_proposers(seed):
    sim, _net, _acceptors, proposers, decided = make_synod(
        n_acceptors=5, n_proposers=3, seed=seed,
        latency=ExponentialLatency(base=0.5, mean=4.0),
    )
    for index, proposer in enumerate(proposers):
        sim.schedule(index * 1.0, proposer.propose, f"value-{index}")
    sim.run()
    assert len({value for _p, value in decided}) == 1


def test_late_proposer_adopts_chosen_value():
    sim, _net, _acceptors, proposers, decided = make_synod(n_proposers=2)
    proposers[0].propose("first")
    sim.run()
    # Now a second proposer arrives with its own value; it must learn
    # and re-propose "first", not override it.
    proposers[1].propose("second")
    sim.run()
    values = {value for _p, value in decided}
    assert values == {"first"}


def test_acceptor_crash_recovery_keeps_promises():
    sim, _net, acceptors, proposers, decided = make_synod()
    proposers[0].propose("durable")
    sim.run()
    acceptor = acceptors[0]
    promised_before = acceptor.promised
    accepted_before = acceptor.accepted_value
    acceptor.crash()
    acceptor.recover()
    assert acceptor.promised == promised_before
    assert acceptor.accepted_value == accepted_before


# ----------------------------------------------------------------------
# Multi-Paxos KV
# ----------------------------------------------------------------------

def make_mp(nodes=3, seed=0, latency=2.0):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    cluster = MultiPaxosCluster(sim, net, nodes=nodes)
    cluster.elect()
    sim.run()
    return sim, net, cluster


def test_election_produces_leader():
    sim, _net, cluster = make_mp()
    assert cluster.leader is cluster.replicas[0]
    assert cluster.leader.is_leader


def test_put_get_through_log():
    sim, _net, cluster = make_mp()
    client = cluster.connect()
    out = {}

    def script():
        out["version"] = yield client.put("k", "v1")
        out["read"] = yield client.get("k")

    spawn(sim, script())
    sim.run()
    assert out["version"] == 1
    assert out["read"] == ("v1", 1)


def test_log_applies_in_order_on_all_replicas():
    sim, _net, cluster = make_mp()
    client = cluster.connect()

    def script():
        for i in range(5):
            yield client.put("k", i)
        yield client.put("other", "x")

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 100.0)  # let commits reach all learners
    assert check_convergence(cluster.snapshots()).ok
    for replica in cluster.replicas:
        assert replica.store["k"] == (4, 5)
        assert replica.applied_through == 5


def test_multipaxos_history_linearizable():
    sim, _net, cluster = make_mp(nodes=5, seed=4)
    writer = client_session(cluster.connect(session="w"))
    reader = client_session(cluster.connect(session="r"))
    history = drive(
        sim,
        (writer, [op for i in range(6) for op in (put("k", i), sleep(3.0))]),
        (reader, [sleep(2.0)] + [get("k"), sleep(4.0)] * 8),
    ).history
    assert len(history) == len(history.completed) == 14
    assert check_linearizability(history).ok


def test_local_read_can_be_stale_but_timeline_consistent():
    sim, _net, cluster = make_mp(latency=25.0)
    client = cluster.connect()
    out = {}

    def script():
        yield client.put("k", "new")
        # Immediately read a follower's state machine: commit broadcast
        # may not have reached it yet.
        out["local"] = yield client.local_get("k", cluster.replicas[2])

    spawn(sim, script())
    sim.run()
    value, version = out["local"]
    assert (value, version) in ((None, 0), ("new", 1))


def test_writes_rejected_by_non_leader():
    sim, _net, cluster = make_mp()
    from repro.replication.multipaxos import PutCmd, SubmitCmd

    client = cluster.connect()
    out = {}

    def script():
        try:
            yield client.request(
                cluster.replicas[1].node_id, SubmitCmd(PutCmd("k", 1))
            )
        except NotLeaderError:
            out["rejected"] = True

    spawn(sim, script())
    sim.run()
    assert out.get("rejected")


def test_commit_blocks_without_majority():
    sim, net, cluster = make_mp(nodes=3)
    client = cluster.connect()
    # Partition the leader (plus client) away from both followers.
    net.partition([cluster.leader.node_id, client.node_id])
    out = {}

    def script():
        try:
            yield client.put("k", "v", timeout=500.0)
            out["result"] = "committed"
        except ReproTimeoutError:
            out["result"] = "timeout"

    spawn(sim, script())
    sim.run()
    assert out["result"] == "timeout"
    # No replica applied the write.
    for replica in cluster.replicas:
        assert "k" not in replica.store


def test_failover_preserves_committed_writes():
    sim, _net, cluster = make_mp(nodes=3)
    client = cluster.connect()

    def script():
        yield client.put("k", "committed")

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 50.0)
    old_leader = cluster.leader
    old_leader.crash()
    cluster.elect(cluster.replicas[1])
    sim.run(until=sim.now + 200.0)
    assert cluster.leader is cluster.replicas[1]
    client2 = cluster.connect()
    out = {}

    def script2():
        out["read"] = yield client2.get("k")

    spawn(sim, script2())
    sim.run()
    assert out["read"] == ("committed", 1)


def test_uncommitted_writes_recovered_or_dropped_safely():
    sim, net, cluster = make_mp(nodes=3, latency=20.0)
    client = cluster.connect()
    # Leader accepts a command but crashes before majority accept.
    net.partition([cluster.leader.node_id, client.node_id])
    failed = {}

    def script():
        try:
            yield client.put("k", "maybe", timeout=300.0)
        except ReproTimeoutError:
            failed["timeout"] = True

    spawn(sim, script())
    sim.run()
    assert failed.get("timeout")
    net.heal()
    cluster.replicas[0].crash()
    cluster.elect(cluster.replicas[1])
    sim.run(until=sim.now + 300.0)
    # New leader must be functional; the old command either committed
    # nowhere or was re-proposed as-is — either way the log stays sane.
    client2 = cluster.connect()
    out = {}

    def script2():
        out["v"] = yield client2.put("k2", "after")
        out["read"] = yield client2.get("k2")

    spawn(sim, script2())
    sim.run()
    assert out["read"] == ("after", out["v"])
