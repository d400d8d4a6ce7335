"""Dynamo-style partial-quorum replication.

The tutorial's flagship eventually consistent store: N replicas per
key on a consistent hash ring, writes acknowledged after W replica
acks, reads after R replies, with

* **read repair** — a read that observes divergent replicas pushes the
  winning version back to the stale ones,
* **hinted handoff + sloppy quorum** — when a home replica is
  unreachable, the coordinator recruits the next node on the ring,
  which stores the write with a *hint* and forwards it when the home
  replica returns,
* LWW conflict arbitration via per-coordinator Lamport stamps (total
  order ⇒ the history checkers get dense per-key versions).

``R + W > N`` gives regular-register-like freshness in the failure-free
case; smaller quorums trade staleness for latency — exactly the PBS
trade-off E2 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from ..clocks import LamportClock, LamportStamp
from ..errors import QuorumError
from ..sim import Future, Network, Simulator
from .common import ClientNode, ServerNode
from .ring import HashRing

# ---------------------------------------------------------------------------
# Wire types
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class QPut:
    """Client → coordinator write.

    ``context`` is the highest stamp the client has observed (from its
    own writes and reads); the coordinator's Lamport clock observes it
    before stamping, so a client's successive writes are ordered even
    when coordinated by different nodes — Dynamo's vector-clock
    context, reduced to the LWW case.
    """

    key: Hashable
    value: Any
    context: LamportStamp | None = None


@dataclass(slots=True)
class QGet:
    """Client → coordinator read."""

    key: Hashable


@dataclass(slots=True)
class StoreMsg:
    """Coordinator → replica: store a stamped version."""

    op_id: int
    key: Hashable
    value: Any
    stamp: LamportStamp
    hint_for: Hashable | None = None   # sloppy-quorum hint


@dataclass(slots=True)
class StoreAck:
    op_id: int


@dataclass(slots=True)
class FetchMsg:
    op_id: int
    key: Hashable


@dataclass(slots=True)
class FetchReply:
    op_id: int
    key: Hashable
    value: Any
    stamp: LamportStamp | None


# ---------------------------------------------------------------------------
# Replica node
# ---------------------------------------------------------------------------


class DynamoNode(ServerNode):
    """One storage node; every node can coordinate any request."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "DynamoCluster",
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.clock = LamportClock(node_id)
        self.data: dict[Hashable, tuple[Any, LamportStamp]] = {}
        # Hinted writes held for unreachable home replicas:
        # home node id -> {key: (value, stamp)}
        self.hints: dict[Hashable, dict[Hashable, tuple[Any, LamportStamp]]] = {}
        self._ops: dict[int, _CoordinatorOp] = {}
        self._op_ids = 0
        if cluster.hint_interval is not None:
            self.every(cluster.hint_interval, self._push_hints, jitter=0.3)

    # -- local storage ----------------------------------------------------
    def apply(self, key: Hashable, value: Any, stamp: LamportStamp) -> bool:
        self.clock.observe(stamp)
        current = self.data.get(key)
        if current is None or stamp > current[1]:
            self.data[key] = (value, stamp)
            return True
        return False

    def local_read(self, key: Hashable) -> tuple[Any, LamportStamp | None]:
        value, stamp = self.data.get(key, (None, None))
        return value, stamp

    def snapshot(self) -> dict:
        return {key: value for key, (value, _stamp) in self.data.items()}

    # -- client-facing coordination ----------------------------------------
    def serve_QPut(self, src: Hashable, payload: QPut) -> Future:
        if payload.context is not None:
            self.clock.observe(payload.context)
        stamp = self.clock.tick()
        return self._coordinate_write(payload.key, payload.value, stamp)

    def serve_QGet(self, src: Hashable, payload: QGet) -> Future:
        return self._coordinate_read(payload.key)

    def _next_op(self) -> int:
        self._op_ids += 1
        return self._op_ids

    def _coordinate_write(
        self, key: Hashable, value: Any, stamp: LamportStamp
    ) -> Future:
        cluster = self.cluster
        targets = cluster.ring.preference_list(key, cluster.n)
        op_id = self._next_op()
        future = Future(self.sim, label=f"qput#{op_id}")
        op = _CoordinatorOp(
            kind="write",
            key=key,
            future=future,
            needed=cluster.w,
            targets=set(targets),
            value=value,
            stamp=stamp,
        )
        self._ops[op_id] = op
        for target in targets:
            self.send(target, StoreMsg(op_id, key, value, stamp))
        self.set_timer(cluster.replica_timeout, self._write_fallback, op_id)
        self.set_timer(cluster.op_deadline, self._expire, op_id)
        return future

    def _coordinate_read(self, key: Hashable) -> Future:
        cluster = self.cluster
        targets = cluster.ring.preference_list(key, cluster.n)
        op_id = self._next_op()
        future = Future(self.sim, label=f"qget#{op_id}")
        op = _CoordinatorOp(
            kind="read",
            key=key,
            future=future,
            needed=cluster.r,
            targets=set(targets),
        )
        self._ops[op_id] = op
        for target in targets:
            self.send(target, FetchMsg(op_id, key))
        self.set_timer(cluster.op_deadline, self._expire, op_id)
        return future

    # -- replica side -----------------------------------------------------
    def handle_StoreMsg(self, src: Hashable, msg: StoreMsg) -> None:
        if msg.hint_for is not None and msg.hint_for != self.node_id:
            # We are a stand-in: remember the hint for the home node.
            self.hints.setdefault(msg.hint_for, {})
            slot = self.hints[msg.hint_for]
            current = slot.get(msg.key)
            if current is None or msg.stamp > current[1]:
                slot[msg.key] = (msg.value, msg.stamp)
            self.clock.observe(msg.stamp)
        else:
            self.apply(msg.key, msg.value, msg.stamp)
        self.send(src, StoreAck(msg.op_id))

    def handle_FetchMsg(self, src: Hashable, msg: FetchMsg) -> None:
        value, stamp = self.local_read(msg.key)
        self.send(src, FetchReply(msg.op_id, msg.key, value, stamp))

    # -- coordinator ack collection ------------------------------------------
    def handle_StoreAck(self, src: Hashable, msg: StoreAck) -> None:
        op = self._ops.get(msg.op_id)
        if op is None or op.kind != "write":
            return
        op.acks += 1
        op.responded.add(src)
        if op.acks >= op.needed and not op.future.done:
            op.future.resolve((op.value, op.stamp))
            self.cluster._c_writes_succeeded.inc()

    def handle_FetchReply(self, src: Hashable, msg: FetchReply) -> None:
        op = self._ops.get(msg.op_id)
        if op is None or op.kind != "read":
            return
        op.replies.append((src, msg.value, msg.stamp))
        op.responded.add(src)
        if len(op.replies) >= op.needed and not op.future.done:
            value, stamp = _freshest(op.replies)
            op.future.resolve((value, stamp))
            if self.cluster.read_repair:
                self._read_repair(op, value, stamp)

    def _read_repair(
        self, op: "_CoordinatorOp", value: Any, stamp: LamportStamp | None
    ) -> None:
        if stamp is None:
            return
        repair_id = self._next_op()  # acks for repairs are ignored
        for target, _value, replica_stamp in op.replies:
            if replica_stamp is None or replica_stamp < stamp:
                self.send(target, StoreMsg(repair_id, op.key, value, stamp))
                self.cluster._c_read_repairs.inc()
                self.sim.annotate("read_repair", key=op.key,
                                  coordinator=self.node_id, target=target)

    # -- sloppy quorum / hinted handoff ---------------------------------------
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
                StoreMsg(op_id, op.key, op.value, op.stamp, hint_for=home),
            )
            self.cluster._c_hinted_writes.inc()
            self.sim.annotate("hinted_write", key=op.key, home=home,
                              stand_in=stand_in)

    def _push_hints(self) -> None:
        for home, entries in list(self.hints.items()):
            if not entries:
                del self.hints[home]
                continue
            for key, (value, stamp) in list(entries.items()):
                if self.network.reachable(self.node_id, home):
                    hint_id = self._next_op()
                    self.send(home, StoreMsg(hint_id, key, value, stamp))
                    del entries[key]
                    self.cluster._c_hints_delivered.inc()

    # -- lifecycle ---------------------------------------------------------
    def _expire(self, op_id: int) -> None:
        op = self._ops.pop(op_id, None)
        if op is None:
            return
        if not op.future.done:
            got = op.acks if op.kind == "write" else len(op.replies)
            op.future.fail(
                QuorumError(
                    f"{op.kind} quorum not met for {op.key!r} "
                    f"({got}/{op.needed})"
                )
            )
            if op.kind == "write":
                self.cluster._c_writes_failed.inc()
            else:
                self.cluster._c_reads_failed.inc()


def _freshest(replies: list) -> tuple[Any, LamportStamp | None]:
    """LWW arbitration over fetch replies."""
    best_value, best_stamp = None, None
    for _src, value, stamp in replies:
        if stamp is not None and (best_stamp is None or stamp > best_stamp):
            best_value, best_stamp = value, stamp
    return best_value, best_stamp


@dataclass(slots=True)
class _CoordinatorOp:
    kind: str
    key: Hashable
    future: Future
    needed: int
    targets: set
    value: Any = None
    stamp: LamportStamp | None = None
    acks: int = 0
    replies: list = field(default_factory=list)
    responded: set = field(default_factory=set)


# ---------------------------------------------------------------------------
# Client + cluster
# ---------------------------------------------------------------------------


class DynamoClient(ClientNode):
    """Session-scoped client carrying its causal context."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "DynamoCluster",
        session: Hashable,
        coordinator: Hashable | None = None,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.session = session
        #: Pinned coordinator (e.g. the nearest node), overriding the
        #: cluster policy — how real deployments route via a local node.
        self.coordinator = coordinator
        #: Highest stamp this session has observed (its causal context).
        self.context: LamportStamp | None = None

    def _observe(self, stamp: LamportStamp | None) -> None:
        if stamp is not None and (self.context is None or stamp > self.context):
            self.context = stamp

    def _coordinator_for(self, key: Hashable) -> Hashable:
        if self.coordinator is not None:
            return self.coordinator
        if self.cluster.coordinator_policy == "first":
            return self.cluster.ring.coordinator(key)
        nodes = self.cluster.ring.nodes
        return nodes[self.sim.rng.randrange(len(nodes))]

    def _endpoints(self, coordinator: Hashable) -> list:
        """Failover order: the chosen coordinator, then the rest of the
        ring — any node can coordinate a Dynamo operation."""
        return [coordinator] + [
            node for node in self.cluster.ring.nodes if node != coordinator
        ]

    def put(
        self, key: Hashable, value: Any, timeout: float | None = None
    ) -> Future:
        """Resolves with the write's arbitration stamp."""
        coordinator = self._coordinator_for(key)
        start = self.sim.now
        inner = self.call(
            self._endpoints(coordinator),
            QPut(key, value, context=self.context),
            timeout or self.cluster.client_timeout,
            idempotent=True,
        )
        outer = Future(self.sim, label=f"dput({key!r})")

        def done(future: Future) -> None:
            if future.error is not None:
                outer.fail(future.error)
            else:
                _value, stamp = future.value
                self._observe(stamp)
                self.cluster._lat_writes.record(self.sim.now - start)
                outer.resolve(stamp)

        inner.add_callback(done)
        return outer

    def get(self, key: Hashable, timeout: float | None = None) -> Future:
        """Resolves with ``(value, stamp)``."""
        coordinator = self._coordinator_for(key)
        start = self.sim.now
        inner = self.call(
            self._endpoints(coordinator), QGet(key),
            timeout or self.cluster.client_timeout,
        )
        outer = Future(self.sim, label=f"dget({key!r})")

        def done(future: Future) -> None:
            if future.error is not None:
                outer.fail(future.error)
            else:
                value, stamp = future.value
                self._observe(stamp)
                self.cluster._lat_reads.record(self.sim.now - start)
                outer.resolve((value, stamp))

        inner.add_callback(done)
        return outer


class DynamoCluster:
    """Configuration + node factory for a partial-quorum store.

    Parameters mirror Dynamo's: ``n`` replicas per key, ``r``/``w``
    quorum sizes, ``sloppy`` quorums with hinted handoff, and
    ``read_repair``.
    """

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
        coordinator_policy: str = "first",
    ) -> None:
        if not 1 <= n:
            raise ValueError("n must be >= 1")
        if not 1 <= r <= n or not 1 <= w <= n:
            raise ValueError("need 1 <= r,w <= n")
        if coordinator_policy not in ("first", "random"):
            raise ValueError("coordinator_policy must be 'first' or 'random'")
        ids = node_ids or [f"dyn{i}" for i in range(nodes)]
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
        self.coordinator_policy = coordinator_policy
        self.ring = HashRing(ids, vnodes=vnodes)
        # Counters the experiments read — published into the sim-wide
        # metrics registry (two clusters on one sim share them).
        metrics = sim.metrics
        self._c_read_repairs = metrics.counter("quorum.read_repairs")
        self._c_hinted_writes = metrics.counter("quorum.hinted_writes")
        self._c_hints_delivered = metrics.counter("quorum.hints_delivered")
        self._c_writes_succeeded = metrics.counter("quorum.writes_succeeded")
        self._c_writes_failed = metrics.counter("quorum.writes_failed")
        self._c_reads_failed = metrics.counter("quorum.reads_failed")
        self._lat_reads = metrics.latency("quorum.read_ms")
        self._lat_writes = metrics.latency("quorum.write_ms")
        self.nodes = [DynamoNode(sim, network, node_id, self) for node_id in ids]
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

    @property
    def writes_failed(self) -> int:
        return self._c_writes_failed.value

    @property
    def reads_failed(self) -> int:
        return self._c_reads_failed.value

    def node(self, node_id: Hashable) -> DynamoNode:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(node_id)

    def connect(
        self,
        session: Hashable | None = None,
        client_id: Hashable | None = None,
        coordinator: Hashable | None = None,
    ) -> DynamoClient:
        self._clients += 1
        session = session if session is not None else f"session-{self._clients}"
        client_id = client_id if client_id is not None else f"dclient-{self._clients}"
        return DynamoClient(
            self.sim, self.network, client_id, self, session,
            coordinator=coordinator,
        )

    def snapshots(self) -> list[dict]:
        return [node.snapshot() for node in self.nodes]

    def anti_entropy_sweep(self) -> None:
        """Instantaneous full pairwise sync (test/bench convenience for
        'run to quiescence' without waiting for gossip)."""
        for a in self.nodes:
            for b in self.nodes:
                if a is b:
                    continue
                for key, (value, stamp) in b.data.items():
                    a.apply(key, value, stamp)
