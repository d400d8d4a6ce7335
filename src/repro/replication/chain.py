"""Chain replication (van Renesse & Schneider).

The strong-consistency alternative to primary–backup the tutorial's
mechanism survey includes: replicas form a chain; writes enter at the
**head**, flow down, and are acknowledged by the **tail**; reads are
served by the tail alone.  Because the tail only exposes writes that
reached *every* replica, reads are linearizable without any quorum —
at the price of write latency proportional to chain length (measured
in the E1 spectrum as the strong-and-cheap-reads point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..errors import NotLeaderError
from ..sim import Future, Network, Simulator
from .common import ClientNode, ServerNode


@dataclass
class CPut:
    key: Hashable
    value: Any


@dataclass
class CGet:
    key: Hashable


@dataclass
class ChainForward:
    write_id: int
    key: Hashable
    value: Any
    version: int


@dataclass
class ChainAck:
    write_id: int


class ChainReplica(ServerNode):
    """One link: knows its successor/predecessor by cluster position."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "ChainCluster",
        index: int,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.index = index
        self.data: dict[Hashable, tuple[Any, int]] = {}
        self._versions: dict[Hashable, int] = {}
        self._pending: dict[int, tuple[Future, int]] = {}
        self._write_ids = 0

    @property
    def is_head(self) -> bool:
        return self.index == 0

    @property
    def is_tail(self) -> bool:
        return self.index == len(self.cluster.replicas) - 1

    @property
    def successor(self) -> "ChainReplica | None":
        if self.is_tail:
            return None
        return self.cluster.replicas[self.index + 1]

    def _install(self, key: Hashable, value: Any, version: int) -> None:
        current = self.data.get(key)
        if current is None or version > current[1]:
            self.data[key] = (value, version)
        self._versions[key] = max(self._versions.get(key, 0), version)

    # -- client-facing -----------------------------------------------------
    def serve_CPut(self, src: Hashable, payload: CPut):
        if not self.is_head:
            raise NotLeaderError("writes must enter at the head")
        version = self._versions.get(payload.key, 0) + 1
        self._install(payload.key, payload.value, version)
        if self.is_tail:  # single-node chain
            return version
        self._write_ids += 1
        write_id = self._write_ids
        future = Future(self.sim, label=f"chain-write#{write_id}")
        self._pending[write_id] = (future, version)
        self.send(
            self.successor.node_id,
            ChainForward(write_id, payload.key, payload.value, version),
        )
        return future

    def serve_CGet(self, src: Hashable, payload: CGet):
        if not self.is_tail:
            raise NotLeaderError("reads are served by the tail")
        return self.data.get(payload.key, (None, 0))

    # -- chain propagation -------------------------------------------------
    def handle_ChainForward(self, src: Hashable, msg: ChainForward) -> None:
        self._install(msg.key, msg.value, msg.version)
        if self.is_tail:
            # Ack flows straight back to the head.
            self.send(self.cluster.replicas[0].node_id, ChainAck(msg.write_id))
        else:
            self.send(self.successor.node_id, msg)

    def handle_ChainAck(self, src: Hashable, msg: ChainAck) -> None:
        entry = self._pending.pop(msg.write_id, None)
        if entry is None:
            return
        future, version = entry
        if not future.done:
            future.resolve(version)

    def snapshot(self) -> dict:
        return {key: value for key, (value, _version) in self.data.items()}


class ChainClient(ClientNode):
    def __init__(self, sim, network, node_id, cluster, session):
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.session = session

    def put(self, key: Hashable, value: Any, timeout: float | None = None) -> Future:
        # Chain roles are fixed (writes at head, reads at tail), so
        # there are no failover endpoints — retries re-ask the same
        # node, deduped by the idempotency key.
        return self.call(self.cluster.head.node_id, CPut(key, value),
                         timeout, idempotent=True)

    def get(self, key: Hashable, timeout: float | None = None) -> Future:
        return self.call(self.cluster.tail.node_id, CGet(key), timeout)


class ChainCluster:
    """A static chain of replicas: head = replicas[0], tail = last."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
    ) -> None:
        if nodes < 1:
            raise ValueError("need at least one replica")
        ids = node_ids or [f"ch{i}" for i in range(nodes)]
        self.sim = sim
        self.network = network
        self.replicas = [
            ChainReplica(sim, network, node_id, self, index)
            for index, node_id in enumerate(ids)
        ]
        self._clients = 0

    @property
    def head(self) -> ChainReplica:
        return self.replicas[0]

    @property
    def tail(self) -> ChainReplica:
        return self.replicas[-1]

    def connect(self, session=None, client_id=None) -> ChainClient:
        self._clients += 1
        session = session if session is not None else f"session-{self._clients}"
        client_id = client_id if client_id is not None else f"chclient-{self._clients}"
        return ChainClient(self.sim, self.network, client_id, self, session)

    def snapshots(self) -> list[dict]:
        return [replica.snapshot() for replica in self.replicas]

    def anti_entropy_sweep(self) -> None:
        """Instantaneous chain repair between live replicas: flood
        every record through the version-guarded ``_install`` path so
        the per-key max version wins everywhere.  A ``ChainForward``
        dropped by a partition is never re-sent, so the chaos runner
        calls this after healing to restore the chain invariant."""
        for source in self.replicas:
            if source.crashed:
                continue
            for key, (value, version) in list(source.data.items()):
                for target in self.replicas:
                    if target is not source and not target.crashed:
                        target._install(key, value, version)
