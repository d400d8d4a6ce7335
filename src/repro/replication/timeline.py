"""PNUTS-style per-record timeline consistency.

Yahoo!'s PNUTS point in the design space: every *record* has a master
replica; all writes to the record funnel through its master, which
assigns a per-record sequence number and propagates asynchronously.
Replicas may lag, but every replica moves along the *same* version
timeline — no forks, no siblings.  Clients choose per read:

* ``read_any``      — any replica, possibly stale, never off-timeline,
* ``read_critical`` — any replica that has reached a required version
  (waits for propagation; serves session guarantees),
* ``read_latest``   — the record's master (up-to-date),

plus ``write`` (forwarded to the record's master).  E12 measures the
stale-read fraction vs. propagation lag, and that timeline order makes
monotonic-reads violations impossible once ``read_critical`` carries
the session's floor version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..errors import UnavailableError
from ..sim import Future, Network, Simulator
from .common import ClientNode, ServerNode
from .ring import HashRing


@dataclass
class TWrite:
    key: Hashable
    value: Any


@dataclass
class TReadAny:
    key: Hashable


@dataclass
class TReadCritical:
    key: Hashable
    min_version: int


@dataclass
class PropagateMsg:
    key: Hashable
    value: Any
    version: int


class TimelineReplica(ServerNode):
    """Holds every record; masters the records the ring assigns it."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "TimelineCluster",
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.data: dict[Hashable, tuple[Any, int]] = {}
        self._waiters: dict[Hashable, list[tuple[int, Future]]] = {}

    # -- mastering ---------------------------------------------------------
    def is_master_of(self, key: Hashable) -> bool:
        return self.cluster.master_of(key) == self.node_id

    def serve_TWrite(self, src: Hashable, payload: TWrite):
        if not self.is_master_of(payload.key):
            # Forward to the record master and relay its answer.
            return self._forwarded_write(payload)
        value, version = self.data.get(payload.key, (None, 0))
        version += 1
        self._install(payload.key, payload.value, version)
        delay = self.cluster.propagation_delay
        message = PropagateMsg(payload.key, payload.value, version)
        for peer in self.cluster.node_ids:
            if peer != self.node_id:
                if delay > 0:
                    self.set_timer(
                        delay * self.sim.rng.uniform(0.5, 1.5),
                        self.send,
                        peer,
                        message,
                    )
                else:
                    self.send(peer, message)
        return version

    def _forwarded_write(self, payload: TWrite) -> Future:
        master = self.cluster.master_of(payload.key)
        future = Future(self.sim, label=f"fwd-write({payload.key!r})")
        proxy = self.cluster._forwarder
        proxy.request(master, payload).add_callback(
            lambda inner: (
                future.fail(inner.error)
                if inner.error is not None
                else future.resolve(inner.value)
            )
        )
        return future

    # -- reads ------------------------------------------------------------
    def serve_TReadAny(self, src: Hashable, payload: TReadAny):
        return self.data.get(payload.key, (None, 0))

    def serve_TReadCritical(self, src: Hashable, payload: TReadCritical):
        value, version = self.data.get(payload.key, (None, 0))
        if version >= payload.min_version:
            return (value, version)
        future = Future(self.sim, label=f"critical({payload.key!r})")
        self._waiters.setdefault(payload.key, []).append(
            (payload.min_version, future)
        )
        return future

    # -- propagation ---------------------------------------------------------
    def handle_PropagateMsg(self, src: Hashable, msg: PropagateMsg) -> None:
        self._install(msg.key, msg.value, msg.version)

    def _install(self, key: Hashable, value: Any, version: int) -> None:
        current = self.data.get(key)
        if current is None or version > current[1]:
            self.data[key] = (value, version)
        stored_value, stored_version = self.data[key]
        waiters = self._waiters.get(key)
        if not waiters:
            return
        still_waiting = []
        for min_version, future in waiters:
            if stored_version >= min_version:
                future.try_resolve((stored_value, stored_version))
            else:
                still_waiting.append((min_version, future))
        if still_waiting:
            self._waiters[key] = still_waiting
        else:
            del self._waiters[key]

    def snapshot(self) -> dict:
        return {key: value for key, (value, _version) in self.data.items()}


class TimelineClient(ClientNode):
    """Client with per-session read floors (for critical reads)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "TimelineCluster",
        session: Hashable,
        home: Hashable | None = None,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.session = session
        self.home = home  # preferred replica for reads (nearest site)
        self.floors: dict[Hashable, int] = {}  # key -> min acceptable version

    def _reader(self, key: Hashable) -> Hashable:
        if self.home is not None:
            return self.home
        nodes = self.cluster.node_ids
        return nodes[self.sim.rng.randrange(len(nodes))]

    def _read_endpoints(self, target: Hashable) -> list:
        """Failover order for any/critical reads: the preferred replica,
        then the rest — every replica serves timeline reads (critical
        reads block at the floor wherever they land).  ``read_latest``
        is pinned to the master and does not fail over."""
        return [target] + [
            node for node in self.cluster.node_ids if node != target
        ]

    def write(self, key: Hashable, value: Any, timeout: float | None = None) -> Future:
        """Resolves with the new version (master-assigned seqno)."""
        master = self.cluster.master_of(key)
        # Writes are mastered: there is no useful failover target (a
        # non-master would only forward back to the same master), but
        # retries still dedup server-side via the idempotency key.
        inner = self.call(master, TWrite(key, value), timeout,
                          idempotent=True)

        def bump_floor(future: Future) -> None:
            if future.error is None:
                self.floors[key] = max(self.floors.get(key, 0), future.value)

        inner.add_callback(bump_floor)
        return inner

    def read_any(self, key: Hashable, timeout: float | None = None) -> Future:
        """Fast read from the home replica; may be stale."""
        target = self._reader(key)
        return self.call(self._read_endpoints(target), TReadAny(key), timeout)

    def read_critical(
        self, key: Hashable, min_version: int | None = None,
        timeout: float | None = None,
    ) -> Future:
        """Read at least the session's floor version (or an explicit
        one); blocks until propagation catches up."""
        floor = (
            min_version
            if min_version is not None
            else self.floors.get(key, 0)
        )
        target = self._reader(key)
        inner = self.call(self._read_endpoints(target),
                          TReadCritical(key, floor), timeout)

        def bump_floor(future: Future) -> None:
            if future.error is None:
                self.floors[key] = max(self.floors.get(key, 0), future.value[1])

        inner.add_callback(bump_floor)
        return inner

    def read_latest(self, key: Hashable, timeout: float | None = None) -> Future:
        """Read from the record master (up-to-date)."""
        return self.call(self.cluster.master_of(key), TReadAny(key), timeout)


class TimelineCluster:
    """Replicas with ring-assigned per-record mastership."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        propagation_delay: float = 0.0,
        node_ids: list[Hashable] | None = None,
    ) -> None:
        ids = node_ids or [f"tl{i}" for i in range(nodes)]
        self.sim = sim
        self.network = network
        self.node_ids = list(ids)
        self.propagation_delay = propagation_delay
        self.ring = HashRing(ids, vnodes=16)
        self.replicas = [TimelineReplica(sim, network, i, self) for i in ids]
        self._clients = 0
        self._masters: dict[Hashable, Hashable] = {}
        # Internal client node used for write forwarding between replicas.
        self._forwarder = ClientNode(sim, network, f"{ids[0]}-fwd")

    def master_of(self, key: Hashable) -> Hashable:
        master = self._masters.get(key)
        if master is None:
            master = self.ring.coordinator(key)
            self._masters[key] = master
        return master

    def set_master(self, key: Hashable, node_id: Hashable) -> None:
        """Mastership migration (PNUTS moves masters to write locality)."""
        if node_id not in self.node_ids:
            raise UnavailableError(f"unknown node {node_id!r}")
        self._masters[key] = node_id

    def replica(self, node_id: Hashable) -> TimelineReplica:
        for replica in self.replicas:
            if replica.node_id == node_id:
                return replica
        raise KeyError(node_id)

    def connect(
        self,
        session: Hashable | None = None,
        client_id: Hashable | None = None,
        home: Hashable | None = None,
    ) -> TimelineClient:
        self._clients += 1
        session = session if session is not None else f"session-{self._clients}"
        client_id = client_id if client_id is not None else f"tlclient-{self._clients}"
        return TimelineClient(self.sim, self.network, client_id, self, session, home)

    def snapshots(self) -> list[dict]:
        return [replica.snapshot() for replica in self.replicas]

    def anti_entropy_sweep(self) -> None:
        """Instantaneous state exchange between live replicas: every
        record flows to every replica through the version-guarded
        install path, so the per-key max version wins everywhere.
        Timeline propagation sends each write once — a propagation
        dropped by a partition never re-sends, so the chaos runner
        calls this after healing to quiesce."""
        for source in self.replicas:
            if source.crashed:
                continue
            for key, (value, version) in list(source.data.items()):
                for target in self.replicas:
                    if target is not source and not target.crashed:
                        target._install(key, value, version)
