"""Dynamo partial quorums in **multi-value (sibling) mode**.

Where :mod:`repro.replication.quorum` arbitrates conflicts with
last-writer-wins, this variant is the design the Dynamo paper actually
shipped for carts: concurrent writes are *kept* as siblings, tracked by
dotted version vectors, and returned together with a causal **context**
the client echoes on its next write — which is how read-modify-write
collapses siblings.

The read path syncs the R replies' sibling sets (a commutative join),
optionally read-repairing stale replicas with the merged set; the
write path mints a new dotted version at the coordinator that
supersedes exactly what the client's context covers.

Messages carry the sender's :class:`~repro.clocks.DottedValueSet`
itself, shared by reference: safe only because sets, versions and
clocks are immutable values, so nothing here may ever mutate one.

Use :class:`SiblingDynamoCluster` when the application can merge
(carts, sets); use the LWW cluster when it can't.  The "LWW loses
writes / siblings keep them" ablation is measured in
``benchmarks/test_ablations.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from ..clocks import DottedValueSet, VectorClock
from ..errors import QuorumError
from ..sim import Future, Network, Simulator
from .common import ClientNode, ServerNode
from .ring import HashRing


@dataclass
class SibPut:
    """Client → coordinator: write with the client's read context."""

    key: Hashable
    value: Any
    context: dict      # the client's VectorClock entries, as a plain dict


@dataclass
class SibGet:
    key: Hashable


@dataclass
class SibStoreMsg:
    op_id: int
    key: Hashable
    entry: DottedValueSet    # the sender's set, shared (never mutated)
    hint_for: Hashable | None = None


@dataclass
class SibStoreAck:
    op_id: int


@dataclass
class SibFetchMsg:
    op_id: int
    key: Hashable


@dataclass
class SibFetchReply:
    op_id: int
    key: Hashable
    entry: DottedValueSet    # the replica's stored set, shared


_EMPTY = DottedValueSet()


@dataclass
class _Op:
    kind: str
    key: Hashable
    future: Future
    needed: int
    targets: set
    entry: DottedValueSet = _EMPTY   # what a write replicates
    acks: int = 0
    replies: list = field(default_factory=list)
    responded: set = field(default_factory=set)


class SiblingDynamoNode(ServerNode):
    """Storage node holding dotted sibling sets per key."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "SiblingDynamoCluster",
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.data: dict[Hashable, DottedValueSet] = {}
        self.hints: dict[Hashable, dict[Hashable, DottedValueSet]] = {}
        self._ops: dict[int, _Op] = {}
        self._op_ids = 0
        if cluster.hint_interval is not None:
            self.every(cluster.hint_interval, self._push_hints, jitter=0.3)

    # -- local storage ----------------------------------------------------
    def entry(self, key: Hashable) -> DottedValueSet:
        return self.data.get(key, _EMPTY)

    def merge_entry(self, key: Hashable, remote: DottedValueSet) -> None:
        self.data[key] = self.entry(key).sync(remote)

    def snapshot(self) -> dict:
        return {
            key: tuple(sorted(entry.values(), key=repr))
            for key, entry in self.data.items()
            if not entry.is_empty()
        }

    # -- coordination -----------------------------------------------------
    def _next_op(self) -> int:
        self._op_ids += 1
        return self._op_ids

    def serve_SibPut(self, src: Hashable, payload: SibPut) -> Future:
        # The coordinator applies the write against its FULL local
        # sibling set — not a detached delta — so the new dot is
        # contiguous with this node's causal history.  (Minting dots
        # from a bare counter would produce a clock that falsely
        # "covers" this node's earlier dots and silently drop
        # never-seen siblings.)  The resulting whole set is what
        # replicates; sync makes that safe and idempotent.
        context = VectorClock(payload.context)
        updated = self.entry(payload.key).put(
            self.node_id, payload.value, context
        )
        self.data[payload.key] = updated

        cluster = self.cluster
        targets = cluster.ring.preference_list(payload.key, cluster.n)
        op_id = self._next_op()
        future = Future(self.sim, label=f"sput#{op_id}")
        op = _Op(
            kind="write", key=payload.key, future=future, needed=cluster.w,
            targets=set(targets), entry=updated,
        )
        self._ops[op_id] = op
        if self.node_id in op.targets:
            # The coordinator is a home replica and already stored.
            op.responded.add(self.node_id)
            op.acks += 1
        message = SibStoreMsg(op_id, payload.key, updated)
        for target in targets:
            if target != self.node_id:
                self.send(target, message)
        if op.acks >= op.needed:
            future.resolve(updated.context().entries())
            cluster._c_writes_succeeded.inc()
            return future
        self.set_timer(cluster.replica_timeout, self._write_fallback, op_id)
        self.set_timer(cluster.op_deadline, self._expire, op_id)
        return future

    def serve_SibGet(self, src: Hashable, payload: SibGet) -> Future:
        cluster = self.cluster
        targets = cluster.ring.preference_list(payload.key, cluster.n)
        op_id = self._next_op()
        future = Future(self.sim, label=f"sget#{op_id}")
        op = _Op(
            kind="read", key=payload.key, future=future, needed=cluster.r,
            targets=set(targets),
        )
        self._ops[op_id] = op
        message = SibFetchMsg(op_id, payload.key)
        for target in targets:
            self.send(target, message)
        self.set_timer(cluster.op_deadline, self._expire, op_id)
        return future

    # -- replica side -----------------------------------------------------
    def handle_SibStoreMsg(self, src: Hashable, msg: SibStoreMsg) -> None:
        if msg.hint_for is not None and msg.hint_for != self.node_id:
            slot = self.hints.setdefault(msg.hint_for, {})
            slot[msg.key] = slot.get(msg.key, _EMPTY).sync(msg.entry)
        else:
            self.merge_entry(msg.key, msg.entry)
        self.send(src, SibStoreAck(msg.op_id))

    def handle_SibFetchMsg(self, src: Hashable, msg: SibFetchMsg) -> None:
        self.send(src, SibFetchReply(msg.op_id, msg.key, self.entry(msg.key)))

    # -- ack collection ------------------------------------------------------
    def handle_SibStoreAck(self, src: Hashable, msg: SibStoreAck) -> None:
        op = self._ops.get(msg.op_id)
        if op is None or op.kind != "write" or src in op.responded:
            return
        op.responded.add(src)
        op.acks += 1
        if op.acks >= op.needed and not op.future.done:
            # Reply with the new causal context for chaining writes.
            op.future.resolve(op.entry.context().entries())
            self.cluster._c_writes_succeeded.inc()

    def handle_SibFetchReply(self, src: Hashable, msg: SibFetchReply) -> None:
        op = self._ops.get(msg.op_id)
        if op is None or op.kind != "read" or src in op.responded:
            return
        op.responded.add(src)
        op.replies.append((src, msg.entry))
        if len(op.replies) >= op.needed and not op.future.done:
            merged = _EMPTY
            for _src, entry in op.replies:
                merged = merged.sync(entry)
            op.future.resolve(
                (list(merged.values()), merged.context().entries())
            )
            if self.cluster.read_repair:
                self._read_repair(op, merged)

    def _read_repair(self, op: _Op, merged: DottedValueSet) -> None:
        repair_id = self._next_op()
        for src, entry in op.replies:
            if entry.clock != merged.clock or len(entry.versions) != len(
                merged.versions
            ):
                self.send(src, SibStoreMsg(repair_id, op.key, merged))
                self.cluster._c_read_repairs.inc()

    # -- sloppy quorum ------------------------------------------------------
    def _write_fallback(self, op_id: int) -> None:
        op = self._ops.get(op_id)
        if op is None or op.future.done or op.kind != "write":
            return
        if not self.cluster.sloppy:
            return
        missing = op.targets - op.responded
        if not missing:
            return
        stand_ins = self.cluster.ring.fallbacks(op.key, exclude=op.targets)
        for home, stand_in in zip(sorted(missing, key=str), stand_ins):
            self.send(
                stand_in,
                SibStoreMsg(op_id, op.key, op.entry, hint_for=home),
            )
            self.cluster._c_hinted_writes.inc()

    def _push_hints(self) -> None:
        for home, entries in list(self.hints.items()):
            if not entries:
                del self.hints[home]
                continue
            for key, entry in list(entries.items()):
                if self.network.reachable(self.node_id, home):
                    self.send(home, SibStoreMsg(self._next_op(), key, entry))
                    del entries[key]
                    self.cluster._c_hints_delivered.inc()

    def _expire(self, op_id: int) -> None:
        op = self._ops.pop(op_id, None)
        if op is None or op.future.done:
            return
        got = op.acks if op.kind == "write" else len(op.replies)
        op.future.fail(
            QuorumError(
                f"{op.kind} quorum not met for {op.key!r} ({got}/{op.needed})"
            )
        )


class SiblingDynamoClient(ClientNode):
    """Client tracking per-key causal contexts automatically."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "SiblingDynamoCluster",
        session: Hashable,
        coordinator: Hashable | None = None,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.session = session
        self.coordinator = coordinator
        self.contexts: dict[Hashable, dict] = {}  # key -> clock entries

    def _coordinator_for(self, key: Hashable) -> Hashable:
        if self.coordinator is not None:
            return self.coordinator
        return self.cluster.ring.coordinator(key)

    def _endpoints(self, coordinator: Hashable) -> list:
        return [coordinator] + [
            node for node in self.cluster.ring.nodes if node != coordinator
        ]

    def put(
        self,
        key: Hashable,
        value: Any,
        context: dict | None = None,
        timeout: float | None = None,
    ) -> Future:
        """Write; supersedes exactly the siblings covered by the
        context (defaults to what this client last read/wrote)."""
        effective = context if context is not None else self.contexts.get(key, {})
        inner = self.call(
            self._endpoints(self._coordinator_for(key)),
            SibPut(key, value, dict(effective)),
            timeout or self.cluster.client_timeout,
            idempotent=True,
        )
        outer = Future(self.sim, label=f"sibput({key!r})")

        def done(future: Future) -> None:
            if future.error is not None:
                outer.fail(future.error)
            else:
                self.contexts[key] = dict(future.value)
                outer.resolve(future.value)

        inner.add_callback(done)
        return outer

    def get(self, key: Hashable, timeout: float | None = None) -> Future:
        """Read; resolves ``(sibling_values, context)``."""
        inner = self.call(
            self._endpoints(self._coordinator_for(key)), SibGet(key),
            timeout or self.cluster.client_timeout,
        )
        outer = Future(self.sim, label=f"sibget({key!r})")

        def done(future: Future) -> None:
            if future.error is not None:
                outer.fail(future.error)
            else:
                values, context = future.value
                self.contexts[key] = dict(context)
                outer.resolve((values, context))

        inner.add_callback(done)
        return outer


class SiblingDynamoCluster:
    """Partial-quorum store with sibling (multi-value) conflicts."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 5,
        n: int = 3,
        r: int = 2,
        w: int = 2,
        sloppy: bool = False,
        read_repair: bool = True,
        vnodes: int = 16,
        replica_timeout: float = 25.0,
        op_deadline: float = 200.0,
        client_timeout: float = 400.0,
        hint_interval: float | None = 50.0,
        node_ids: list[Hashable] | None = None,
    ) -> None:
        if not 1 <= r <= n or not 1 <= w <= n:
            raise ValueError("need 1 <= r,w <= n")
        ids = node_ids or [f"sib{i}" for i in range(nodes)]
        if n > len(ids):
            raise ValueError("replication factor exceeds node count")
        self.sim = sim
        self.network = network
        self.n, self.r, self.w = n, r, w
        self.sloppy = sloppy
        self.read_repair = read_repair
        self.replica_timeout = replica_timeout
        self.op_deadline = op_deadline
        self.client_timeout = client_timeout
        self.hint_interval = hint_interval
        self.ring = HashRing(ids, vnodes=vnodes)
        metrics = sim.metrics
        self._c_read_repairs = metrics.counter("sibling_quorum.read_repairs")
        self._c_hinted_writes = metrics.counter("sibling_quorum.hinted_writes")
        self._c_hints_delivered = metrics.counter(
            "sibling_quorum.hints_delivered")
        self._c_writes_succeeded = metrics.counter(
            "sibling_quorum.writes_succeeded")
        self.nodes = [
            SiblingDynamoNode(sim, network, node_id, self) for node_id in ids
        ]
        self._clients = 0

    @property
    def read_repairs(self) -> int:
        return self._c_read_repairs.value

    @property
    def hinted_writes(self) -> int:
        return self._c_hinted_writes.value

    @property
    def hints_delivered(self) -> int:
        return self._c_hints_delivered.value

    @property
    def writes_succeeded(self) -> int:
        return self._c_writes_succeeded.value

    def node(self, node_id: Hashable) -> SiblingDynamoNode:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(node_id)

    def connect(
        self,
        session: Hashable | None = None,
        client_id: Hashable | None = None,
        coordinator: Hashable | None = None,
    ) -> SiblingDynamoClient:
        self._clients += 1
        session = session if session is not None else f"session-{self._clients}"
        client_id = (
            client_id if client_id is not None else f"sclient-{self._clients}"
        )
        return SiblingDynamoClient(
            self.sim, self.network, client_id, self, session, coordinator,
        )

    def snapshots(self) -> list[dict]:
        return [node.snapshot() for node in self.nodes]

    def anti_entropy_sweep(self) -> None:
        """Instantaneous full pairwise sibling sync (test convenience)."""
        for a in self.nodes:
            for b in self.nodes:
                if a is b:
                    continue
                for key, entry in b.data.items():
                    a.merge_entry(key, entry)
