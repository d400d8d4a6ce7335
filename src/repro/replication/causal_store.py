"""A causally consistent replicated KV store (COPS-style).

The tutorial's "causal consistency" rung as a *server-side* mechanism
(complementing the client-side session layer): every replica accepts
writes locally (always available, like EC) but replicates them through
a reliable **causal broadcast** — a write becomes visible at a remote
replica only after every write it causally depends on.  Dependencies
are the writer's context: its own previous writes plus the writes its
replica had applied (COPS's dependency tracking collapsed into a
vector clock, which over-approximates the dependency set but never
under-delivers).

Guarantees (and their checkers):

* causal consistency across replicas — :func:`repro.checkers.check_causal`
  passes on any recorded history;
* all four session guarantees for a client pinned to one replica;
* convergence: concurrent writes to a key are arbitrated by a
  causality-compatible total rank, so replicas agree.

Not guaranteed: linearizability — remote reads can be stale, which is
the point: causal is the strongest model compatible with
always-available local operation (Mahajan et al.), sitting between the
session rungs and the quorum rungs of E1's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..crdt.opbased import CausalBuffer, OpEnvelope
from ..sim import Future, Network, Simulator
from .common import ClientNode, ServerNode

#: Arbitration rank of a write: grows along causality (vector-clock
#: sum strictly increases on causal successors) and breaks concurrent
#: ties by origin — a Lamport-style total order compatible with the
#: causal partial order.
Rank = tuple[int, str]


@dataclass
class CPutLocal:
    """Client → replica: write at this replica."""

    key: Hashable
    value: Any


@dataclass
class CGetLocal:
    """Client → replica: read this replica's view."""

    key: Hashable


@dataclass(frozen=True)
class _WritePayload:
    key: Hashable
    value: Any


def _rank_of(envelope: OpEnvelope) -> Rank:
    return (sum(envelope.clock.entries().values()), str(envelope.origin))


class CausalReplica(ServerNode):
    """One replica: local reads/writes + causal broadcast of writes."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "CausalCluster",
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.buffer = CausalBuffer(node_id, self._apply)
        self.data: dict[Hashable, tuple[Any, Rank]] = {}
        #: Every envelope this replica has applied, in application
        #: order — the anti-entropy exchange set.  Replays are cheap:
        #: :class:`CausalBuffer` drops duplicates by vector clock.
        self.applied_log: list[OpEnvelope] = []

    # -- client-facing -----------------------------------------------------
    def serve_CPutLocal(self, src: Hashable, payload: CPutLocal):
        envelope = self.buffer.stamp_local(
            _WritePayload(payload.key, payload.value)
        )
        self.cluster._c_writes_local.inc()
        for peer in self.cluster.node_ids:
            if peer != self.node_id:
                self.send(peer, envelope)
        return _rank_of(envelope)

    def serve_CGetLocal(self, src: Hashable, payload: CGetLocal):
        self.cluster._c_reads_local.inc()
        value, rank = self.data.get(payload.key, (None, None))
        return value, rank

    # -- replication --------------------------------------------------------
    def handle_OpEnvelope(self, src: Hashable, envelope: OpEnvelope) -> None:
        self.buffer.receive(envelope)

    def _apply(self, envelope: OpEnvelope) -> None:
        payload: _WritePayload = envelope.payload
        rank = _rank_of(envelope)
        self.applied_log.append(envelope)
        self.cluster._c_ops_applied.inc()
        current = self.data.get(payload.key)
        if current is None or rank > current[1]:
            self.data[payload.key] = (payload.value, rank)

    def snapshot(self) -> dict:
        return {key: value for key, (value, _rank) in self.data.items()}


class CausalClient(ClientNode):
    """A client pinned to one replica (its 'local datacenter')."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "CausalCluster",
        session: Hashable,
        home: Hashable,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.session = session
        self.home = home

    def _endpoints(self) -> list:
        """Failover order: the home replica, then every other replica —
        any COPS replica accepts local reads and writes."""
        return [self.home] + [
            node for node in self.cluster.node_ids if node != self.home
        ]

    def put(self, key: Hashable, value: Any, timeout: float | None = None) -> Future:
        """Local write; resolves with the write's arbitration rank."""
        return self.call(self._endpoints(), CPutLocal(key, value), timeout,
                         idempotent=True)

    def get(self, key: Hashable, timeout: float | None = None) -> Future:
        """Local read; resolves with ``(value, rank-or-None)``."""
        return self.call(self._endpoints(), CGetLocal(key), timeout)


class CausalCluster:
    """COPS-style causal KV: local ops + causal broadcast."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
    ) -> None:
        ids = node_ids or [f"cc{i}" for i in range(nodes)]
        self.sim = sim
        self.network = network
        self.node_ids = list(ids)
        metrics = sim.metrics
        self._c_writes_local = metrics.counter("causal.writes_local")
        self._c_reads_local = metrics.counter("causal.reads_local")
        self._c_ops_applied = metrics.counter("causal.ops_applied")
        self._g_pending = metrics.gauge("causal.pending")
        self.replicas = [CausalReplica(sim, network, i, self) for i in ids]
        self._clients = 0

    def replica(self, node_id: Hashable) -> CausalReplica:
        for replica in self.replicas:
            if replica.node_id == node_id:
                return replica
        raise KeyError(node_id)

    def connect(
        self,
        home: Hashable,
        session: Hashable | None = None,
        client_id: Hashable | None = None,
    ) -> CausalClient:
        self._clients += 1
        session = session if session is not None else f"session-{self._clients}"
        client_id = client_id if client_id is not None else f"ccclient-{self._clients}"
        return CausalClient(self.sim, self.network, client_id, self,
                            session, home)

    def snapshots(self) -> list[dict]:
        return [replica.snapshot() for replica in self.replicas]

    def anti_entropy_sweep(self) -> None:
        """Instantaneous pairwise exchange of applied logs until a
        fixpoint: each live replica replays everything it has applied
        into every other live replica's causal buffer (duplicates are
        dropped by vector clock; hold-back delivers in causal order).
        Used by the chaos runner to quiesce after healing — the causal
        broadcast sends each write exactly once, so writes broadcast
        into a partition are otherwise lost forever."""
        while True:
            before = sum(len(r.applied_log) for r in self.replicas
                         if not r.crashed)
            for source in self.replicas:
                if source.crashed:
                    continue
                for envelope in list(source.applied_log):
                    for target in self.replicas:
                        if target is not source and not target.crashed:
                            target.buffer.receive(envelope)
            after = sum(len(r.applied_log) for r in self.replicas
                        if not r.crashed)
            if after == before:
                return

    def pending_total(self) -> int:
        """Writes still held back waiting for causal dependencies."""
        total = sum(r.buffer.pending_count for r in self.replicas)
        self._g_pending.set(total)
        return total
