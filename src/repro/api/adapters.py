"""One :class:`~repro.api.store.ConsistentStore` adapter per mechanism.

Each adapter normalizes a protocol's native client surface
(``DynamoClient.put/get``, ``TimelineClient.write/read_any/…``,
``BayouReplica.write/read_tentative``, …) to the uniform session
contract: ``put -> Future[token]``, ``get -> Future[(value, token)]``,
where a *token* is the protocol's version metadata, totally ordered
within a key (the driver densifies tokens into checkable versions).

Registered names
----------------
``primary_backup``, ``quorum``, ``quorum_siblings``, ``causal``,
``timeline``, ``bayou``, ``chain``, ``multipaxos``, ``pileus``.
"""

from __future__ import annotations

from typing import Any, Hashable

from ..client import timeline_session
from ..rpc import RetryPolicy
from ..replication import (
    BayouCluster,
    CausalCluster,
    ChainCluster,
    DynamoCluster,
    MultiPaxosCluster,
    PrimaryBackupCluster,
    SiblingDynamoCluster,
    TimelineCluster,
)
from ..placement import Placement
from ..sim import Network, Simulator
from ..sla import SHOPPING_CART, SLA, SLAClient
from . import registry
from .store import (
    READ_PREFERENCES,
    ConsistentStore,
    FnSession,
    StoreCapabilities,
    StoreSession,
    mapped_future,
    resolved,
)


def _tune_servers(
    nodes,
    service_time: float = 0.0,
    queue_limit: int | None = None,
    admission_rate: float | None = None,
    admission_burst: float | None = None,
) -> None:
    """Apply capacity/overload knobs to a cluster's server nodes (see
    :class:`repro.replication.common.ServerNode` for semantics)."""
    for node in nodes:
        if service_time > 0:
            node.service_time = service_time
        if queue_limit is not None:
            node.queue_limit = queue_limit
        if admission_rate is not None:
            node.admission_rate = admission_rate
        if admission_burst is not None:
            node.admission_burst = admission_burst


def _apply_retry(client, session_retry, store_retry) -> None:
    """Attach the effective :class:`RetryPolicy` to a protocol client:
    the session-level override wins over the store-wide default."""
    policy = session_retry if session_retry is not None else store_retry
    if policy is not None:
        client.retry = policy


def _norm_versioned(pair):
    """(value, int-version) -> (value, token) with 0 meaning 'nothing'."""
    value, version = pair
    return value, (version or None)


def _spread_unplaced(placement: Placement | None, node_ids) -> None:
    """Region-spread any server nodes no one placed yet.

    The sharded router pre-places each shard's replicas with a
    per-shard stagger before building the cluster; a standalone store
    built directly with ``placement=`` gets the default round-robin
    spread here instead."""
    if placement is None:
        return
    unplaced = [n for n in node_ids if not placement.is_placed(n)]
    if unplaced:
        placement.spread(unplaced)


def _session_region(store, read_preference, region):
    """Validate and resolve a session's ``(read_preference, region)``.

    Returns ``(None, None)`` for region-blind sessions.  Otherwise the
    store must have been built with ``placement=`` and the preference
    must be declared in its capabilities; ``region`` falls back to the
    placement's ``default_region``."""
    if read_preference is None and region is None:
        return None, None
    placement = store.placement
    if placement is None:
        raise ValueError(
            f"{store.capabilities.name}: read_preference=/region= need a "
            "store built with placement="
        )
    supported = store.capabilities.read_preferences
    if read_preference is not None and read_preference not in supported:
        raise ValueError(
            f"{store.capabilities.name} does not support read preference "
            f"{read_preference!r}; have {supported or '()'}"
        )
    region = region if region is not None else placement.default_region
    if region is None:
        raise ValueError(
            "session needs region= (placement has no default_region)"
        )
    if region not in placement.region_names:
        raise ValueError(f"unknown region {region!r}")
    return read_preference, region


def _attach_locality(placement, client, region, read_preference) -> None:
    """Place a session's client node in its region; for the follower
    and nearest preferences also attach the locality view that makes
    :meth:`ClientNode.call` order endpoints nearest-first.  The
    ``primary`` preference deliberately gets *no* locality: the
    authoritative replica must stay first in failover lists even when
    it is the remote endpoint."""
    placement.place(client.node_id, region)
    if read_preference in ("local_follower", "nearest"):
        client.locality = placement.locality(region)


# ---------------------------------------------------------------------------
# Dynamo-style quorums (LWW)
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="quorum",
    description="Dynamo partial quorums, LWW, read repair, sloppy option",
    read_modes=("quorum",),
    failover_reads=True,
    failover_writes=True,
    read_preferences=READ_PREFERENCES,
))
class QuorumStore(ConsistentStore):
    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
        service_time: float = 0.0,
        queue_limit: int | None = None,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        retry: RetryPolicy | None = None,
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        self.retry = retry
        self.placement = placement
        self.cluster = DynamoCluster(
            sim, network, nodes=nodes, node_ids=node_ids, **kwargs
        )
        _spread_unplaced(placement, self.cluster.ring.nodes)
        _tune_servers(self.cluster.nodes, service_time, queue_limit,
                      admission_rate, admission_burst)

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        read_preference: str | None = None,
        region: str | None = None,
        **opts: Any,
    ) -> StoreSession:
        read_preference, region = _session_region(
            self, read_preference, region
        )
        if region is not None and read_preference in (
            "local_follower", "nearest",
        ):
            # Quorum reads still touch R replicas wherever they live;
            # what locality buys is a same-region *coordinator*, so the
            # client<->coordinator hop stays off the WAN.
            ring_nodes = self.cluster.ring.nodes
            locals_ = self.placement.nodes_in(region, within=ring_nodes)
            if read_preference == "local_follower" and locals_:
                opts.setdefault("coordinator", locals_[0])
            else:
                opts.setdefault(
                    "coordinator",
                    self.placement.locality(region).nearest(ring_nodes),
                )
        client = self.cluster.connect(session=name, **opts)
        _apply_retry(client, retry, self.retry)
        if region is not None:
            _attach_locality(self.placement, client, region, read_preference)
        return FnSession(
            client.session,
            put_fn=lambda k, v, t: client.put(k, v, timeout=t),
            read_fns={"quorum": lambda k, t: client.get(k, timeout=t)},
            default_mode="quorum",
            client_id=client.node_id,
            client=client,
            read_preference=read_preference,
            region=region,
        )

    def server_ids(self) -> list[Hashable]:
        return self.cluster.ring.nodes

    def snapshots(self) -> list[dict]:
        return self.cluster.snapshots()

    def settle(self) -> None:
        self.cluster.anti_entropy_sweep()


# ---------------------------------------------------------------------------
# Dynamo-style quorums with siblings (DVV)
# ---------------------------------------------------------------------------


def _context_token(context: dict):
    """A total order over DVV contexts compatible with causality:
    (vector sum, canonicalized entries) — concurrent contexts tie-break
    deterministically."""
    if not context:
        return None
    return (
        sum(context.values()),
        tuple(sorted((str(node), counter) for node, counter in context.items())),
    )


@registry.register(StoreCapabilities(
    name="quorum_siblings",
    description="partial quorums keeping concurrent siblings (DVV contexts)",
    read_modes=("quorum",),
    multi_value_reads=True,
    failover_reads=True,
    failover_writes=True,
))
class SiblingQuorumStore(ConsistentStore):
    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
        service_time: float = 0.0,
        queue_limit: int | None = None,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        retry: RetryPolicy | None = None,
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        self.retry = retry
        self.placement = placement
        self.cluster = SiblingDynamoCluster(
            sim, network, nodes=nodes, node_ids=node_ids, **kwargs
        )
        _spread_unplaced(placement, self.cluster.ring.nodes)
        _tune_servers(self.cluster.nodes, service_time, queue_limit,
                      admission_rate, admission_burst)

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client = self.cluster.connect(session=name, **opts)
        _apply_retry(client, retry, self.retry)
        return FnSession(
            client.session,
            put_fn=lambda k, v, t: mapped_future(
                self.sim, client.put(k, v, timeout=t), _context_token
            ),
            read_fns={
                "quorum": lambda k, t: mapped_future(
                    self.sim,
                    client.get(k, timeout=t),
                    lambda reply: (tuple(reply[0]), _context_token(reply[1])),
                ),
            },
            default_mode="quorum",
            client_id=client.node_id,
            client=client,
        )

    def server_ids(self) -> list[Hashable]:
        return self.cluster.ring.nodes

    def snapshots(self) -> list[dict]:
        return self.cluster.snapshots()

    def settle(self) -> None:
        self.cluster.anti_entropy_sweep()


# ---------------------------------------------------------------------------
# COPS-style causal store
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="causal",
    description="COPS-style causal broadcast KV; local reads/writes",
    read_modes=("local",),
    session_guarantees=("ryw", "mr", "mw", "wfr"),
    failover_reads=True,
    failover_writes=True,
))
class CausalStore(ConsistentStore):
    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
        service_time: float = 0.0,
        queue_limit: int | None = None,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        retry: RetryPolicy | None = None,
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        self.retry = retry
        self.placement = placement
        self.cluster = CausalCluster(
            sim, network, nodes=nodes, node_ids=node_ids, **kwargs
        )
        _spread_unplaced(placement, self.cluster.node_ids)
        _tune_servers(self.cluster.replicas, service_time, queue_limit,
                      admission_rate, admission_burst)
        self._next_home = 0

    def session(
        self,
        name: Hashable | None = None,
        home: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        if home is None:
            ids = self.cluster.node_ids
            home = ids[self._next_home % len(ids)]
            self._next_home += 1
        client = self.cluster.connect(home=home, session=name, **opts)
        _apply_retry(client, retry, self.retry)
        # Replies already have the session's shapes: rank, (value, rank).
        return FnSession(
            client.session,
            put_fn=lambda k, v, t: client.put(k, v, timeout=t),
            read_fns={
                "local": lambda k, t: client.get(k, timeout=t),
            },
            default_mode="local",
            client_id=client.node_id,
            client=client,
        )

    def server_ids(self) -> list[Hashable]:
        return list(self.cluster.node_ids)

    def snapshots(self) -> list[dict]:
        return self.cluster.snapshots()

    def settle(self) -> None:
        self.cluster.anti_entropy_sweep()


# ---------------------------------------------------------------------------
# PNUTS-style record timelines
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="timeline",
    description="PNUTS per-record mastership; any/critical/latest reads",
    read_modes=("any", "critical", "latest"),
    session_guarantees=("ryw", "mr", "mw", "wfr"),
    failover_reads=True,
    read_preferences=READ_PREFERENCES,
))
class TimelineStore(ConsistentStore):
    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
        service_time: float = 0.0,
        queue_limit: int | None = None,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        retry: RetryPolicy | None = None,
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        self.retry = retry
        self.placement = placement
        self.cluster = TimelineCluster(
            sim, network, nodes=nodes, node_ids=node_ids, **kwargs
        )
        _spread_unplaced(placement, self.cluster.node_ids)
        if placement is not None:
            # The write-forwarding proxy is an extra network node; it
            # lives with the first replica so forwarded writes pay one
            # WAN hop, not a mystery-region hop.
            placement.place(
                self.cluster._forwarder.node_id,
                placement.region_of(self.cluster.node_ids[0]),
            )
        _tune_servers(self.cluster.replicas, service_time, queue_limit,
                      admission_rate, admission_burst)

    def session(
        self,
        name: Hashable | None = None,
        guarantees: tuple[str, ...] | None = None,
        retry_delay: float = 10.0,
        spread_replicas: bool = False,
        retry: RetryPolicy | None = None,
        read_preference: str | None = None,
        region: str | None = None,
        **opts: Any,
    ) -> StoreSession:
        read_preference, region = _session_region(
            self, read_preference, region
        )
        default_mode = "any"
        if region is not None:
            node_ids = self.cluster.node_ids
            if read_preference == "primary":
                # Authoritative reads: the record master, wherever it is.
                default_mode = "latest"
            elif read_preference == "local_follower":
                locals_ = self.placement.nodes_in(region, within=node_ids)
                opts.setdefault(
                    "home",
                    locals_[0] if locals_
                    else self.placement.locality(region).nearest(node_ids),
                )
            elif read_preference == "nearest":
                opts.setdefault(
                    "home",
                    self.placement.locality(region).nearest(node_ids),
                )
        client = self.cluster.connect(session=name, **opts)
        _apply_retry(client, retry, self.retry)
        if region is not None:
            _attach_locality(self.placement, client, region, read_preference)
        if guarantees is not None:
            wrapped = timeline_session(
                client, guarantees=guarantees, retry_delay=retry_delay,
                spread_replicas=spread_replicas,
            )
            session = FnSession(
                client.session,
                put_fn=lambda k, v, t: wrapped.write(k, v),
                read_fns={
                    "any": lambda k, t: mapped_future(
                        self.sim, wrapped.read(k), _norm_versioned
                    ),
                    "critical": lambda k, t: mapped_future(
                        self.sim, client.read_critical(k, timeout=t),
                        _norm_versioned,
                    ),
                    "latest": lambda k, t: mapped_future(
                        self.sim, client.read_latest(k, timeout=t),
                        _norm_versioned,
                    ),
                },
                default_mode=default_mode,
                client_id=client.node_id,
                client=client,
                read_preference=read_preference,
                region=region,
            )
            session.session_client = wrapped
            return session
        return FnSession(
            client.session,
            put_fn=lambda k, v, t: client.write(k, v, timeout=t),
            read_fns={
                "any": lambda k, t: mapped_future(
                    self.sim, client.read_any(k, timeout=t), _norm_versioned
                ),
                "critical": lambda k, t: mapped_future(
                    self.sim, client.read_critical(k, timeout=t),
                    _norm_versioned,
                ),
                "latest": lambda k, t: mapped_future(
                    self.sim, client.read_latest(k, timeout=t), _norm_versioned
                ),
            },
            default_mode=default_mode,
            client_id=client.node_id,
            client=client,
            read_preference=read_preference,
            region=region,
        )

    def server_ids(self) -> list[Hashable]:
        return list(self.cluster.node_ids)

    def snapshots(self) -> list[dict]:
        return self.cluster.snapshots()

    def settle(self) -> None:
        self.cluster.anti_entropy_sweep()


# ---------------------------------------------------------------------------
# Bayou tentative/committed replication
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="bayou",
    description="Bayou tentative/committed writes, primary commit order",
    read_modes=("tentative", "committed"),
    tentative_reads=True,
    networked=False,
    retry_safe_reads=False,
    retry_safe_writes=False,
))
class BayouStore(ConsistentStore):
    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 4,
        node_ids: list[Hashable] | None = None,
        service_time: float = 0.0,  # noqa: ARG002 - direct-attach, no queue
        retry: RetryPolicy | None = None,  # noqa: ARG002 - no RPC path
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        self.placement = placement
        self.cluster = BayouCluster(
            sim, network, nodes=nodes, node_ids=node_ids, **kwargs
        )
        _spread_unplaced(placement, self.cluster.node_ids)
        self._next_replica = 0
        self._sessions = 0

    def session(
        self,
        name: Hashable | None = None,
        replica: Hashable | None = None,
        retry: RetryPolicy | None = None,  # noqa: ARG002 - no RPC path
        **opts: Any,
    ) -> StoreSession:
        if replica is None:
            index = self._next_replica % len(self.cluster.replicas)
            self._next_replica += 1
            node = self.cluster.replicas[index]
        else:
            node = next(
                r for r in self.cluster.replicas if r.node_id == replica
            )
        self._sessions += 1
        name = name if name is not None else f"bayou-session-{self._sessions}"
        sim = self.sim

        def put_fn(key, value, _timeout):
            record = node.write(key, value)
            return resolved(sim, record.stamp)

        return FnSession(
            name,
            put_fn=put_fn,
            read_fns={
                "tentative": lambda k, t: resolved(
                    sim, (node.read_tentative(k), None)
                ),
                "committed": lambda k, t: resolved(
                    sim, (node.read_committed(k), None)
                ),
            },
            default_mode="tentative",
            client_id=node.node_id,
            client=node,
        )

    def server_ids(self) -> list[Hashable]:
        return list(self.cluster.node_ids)

    def snapshots(self) -> list[dict]:
        return [replica.snapshot() for replica in self.cluster.replicas]

    def settle(self) -> None:
        """Instantaneous pairwise anti-entropy, twice: once to flood
        writes to the primary, once to flood commit orders back."""
        for _round in range(2):
            for source in self.cluster.replicas:
                write_set = source._write_set(reply_expected=False)
                for target in self.cluster.replicas:
                    if target is not source:
                        target.handle_WriteSet(source.node_id, write_set)


# ---------------------------------------------------------------------------
# Primary–backup
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="primary_backup",
    description="single primary, async/sync/quorum backup acks",
    read_modes=("primary", "backup"),
    failover_reads=True,
    # Linearizable only while every op funnels through the one
    # primary: holds for single-attempt primary reads, not for reads
    # that failed over to a possibly-stale backup.
    linearizable_read_modes=("primary",),
    read_preferences=READ_PREFERENCES,
))
class PrimaryBackupStore(ConsistentStore):
    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
        service_time: float = 0.0,
        queue_limit: int | None = None,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        mode: str = "async",
        retry: RetryPolicy | None = None,
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        self.retry = retry
        self.placement = placement
        self.cluster = PrimaryBackupCluster(
            sim, network, n=nodes, mode=mode, node_ids=node_ids, **kwargs
        )
        _spread_unplaced(
            placement, [r.node_id for r in self.cluster.replicas]
        )
        _tune_servers(self.cluster.replicas, service_time, queue_limit,
                      admission_rate, admission_burst)

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        read_preference: str | None = None,
        region: str | None = None,
        **opts: Any,
    ) -> StoreSession:
        read_preference, region = _session_region(
            self, read_preference, region
        )
        client = self.cluster.connect(session=name, **opts)
        _apply_retry(client, retry, self.retry)
        default_mode = "primary"

        if read_preference in ("local_follower", "nearest"):
            default_mode = "backup"
            placement = self.placement
            locality = placement.locality(region)

            def read_backup(key, timeout):
                # Re-resolved per read so a promotion (region failover)
                # re-routes follower reads without reopening sessions.
                replicas = self.cluster.replicas
                locals_ = [
                    r for r in replicas
                    if placement.region_of(r.node_id) == region
                ]
                if read_preference == "local_follower" and locals_:
                    target = locals_[0]
                else:
                    target = min(
                        replicas, key=lambda r: locality.delay_to(r.node_id)
                    )
                return mapped_future(
                    self.sim,
                    client.get(key, replica=target, timeout=timeout),
                    _norm_versioned,
                )
        else:
            def read_backup(key, timeout):
                backups = self.cluster.backups
                target = backups[0] if backups else self.cluster.primary
                return mapped_future(
                    self.sim, client.get(key, replica=target, timeout=timeout),
                    _norm_versioned,
                )

        if region is not None:
            _attach_locality(self.placement, client, region, read_preference)
        return FnSession(
            client.session,
            put_fn=lambda k, v, t: client.put(k, v, timeout=t),
            read_fns={
                "primary": lambda k, t: mapped_future(
                    self.sim, client.get(k, timeout=t), _norm_versioned
                ),
                "backup": read_backup,
            },
            default_mode=default_mode,
            client_id=client.node_id,
            client=client,
            read_preference=read_preference,
            region=region,
        )

    def server_ids(self) -> list[Hashable]:
        return [replica.node_id for replica in self.cluster.replicas]

    def snapshots(self) -> list[dict]:
        return self.cluster.snapshots()

    def settle(self) -> None:
        self.cluster.anti_entropy_sweep()


# ---------------------------------------------------------------------------
# Chain replication
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="chain",
    description="chain replication: writes at head, linearizable tail reads",
    read_modes=("tail",),
    survives_replica_crash=False,
    linearizable_read_modes=("tail",),
))
class ChainStore(ConsistentStore):
    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
        service_time: float = 0.0,
        queue_limit: int | None = None,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        retry: RetryPolicy | None = None,
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        self.retry = retry
        self.placement = placement
        self.cluster = ChainCluster(
            sim, network, nodes=nodes, node_ids=node_ids, **kwargs
        )
        _spread_unplaced(
            placement, [r.node_id for r in self.cluster.replicas]
        )
        _tune_servers(self.cluster.replicas, service_time, queue_limit,
                      admission_rate, admission_burst)

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client = self.cluster.connect(session=name, **opts)
        _apply_retry(client, retry, self.retry)
        return FnSession(
            client.session,
            put_fn=lambda k, v, t: client.put(k, v, timeout=t),
            read_fns={
                "tail": lambda k, t: mapped_future(
                    self.sim, client.get(k, timeout=t), _norm_versioned
                ),
            },
            default_mode="tail",
            client_id=client.node_id,
            client=client,
        )

    def server_ids(self) -> list[Hashable]:
        return [replica.node_id for replica in self.cluster.replicas]

    def snapshots(self) -> list[dict]:
        return self.cluster.snapshots()

    def settle(self) -> None:
        self.cluster.anti_entropy_sweep()


# ---------------------------------------------------------------------------
# Multi-Paxos
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="multipaxos",
    description="consensus-replicated KV log; linearizable log reads",
    read_modes=("log", "local"),
    linearizable_read_modes=("log",),
))
class MultiPaxosStore(ConsistentStore):
    """Builds the group *and runs the leader election to completion*
    (``sim.run()``) so sessions are immediately usable — build stores
    before spawning workload processes."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
        service_time: float = 0.0,
        queue_limit: int | None = None,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        elect: bool = True,
        retry: RetryPolicy | None = None,
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        self.retry = retry
        self.placement = placement
        self.cluster = MultiPaxosCluster(
            sim, network, nodes=nodes, node_ids=node_ids, **kwargs
        )
        _spread_unplaced(placement, self.cluster.node_ids)
        _tune_servers(self.cluster.replicas, service_time, queue_limit,
                      admission_rate, admission_burst)
        if elect:
            self.cluster.elect()
            sim.run()

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client = self.cluster.connect(session=name, **opts)
        _apply_retry(client, retry, self.retry)
        return FnSession(
            client.session,
            put_fn=lambda k, v, t: client.put(k, v, timeout=t),
            read_fns={
                "log": lambda k, t: mapped_future(
                    self.sim, client.get(k, timeout=t), _norm_versioned
                ),
                "local": lambda k, t: mapped_future(
                    self.sim, client.local_get(k, timeout=t), _norm_versioned
                ),
            },
            default_mode="log",
            client_id=client.node_id,
            client=client,
        )

    def server_ids(self) -> list[Hashable]:
        return list(self.cluster.node_ids)

    def snapshots(self) -> list[dict]:
        return self.cluster.snapshots()

    def settle(self) -> None:
        self.cluster.catch_up()


# ---------------------------------------------------------------------------
# Pileus consistency SLAs (over a timeline cluster)
# ---------------------------------------------------------------------------


class FixedTargetSLAClient(SLAClient):
    """An SLA client pinned to one replica — the fixed-strategy
    baseline Pileus is compared against in E7."""

    def __init__(self, client, target: Hashable, monitor=None) -> None:
        super().__init__(client, monitor)
        self._target = target

    def select_target(self, key, sla):
        return self._target, 0


@registry.register(StoreCapabilities(
    name="pileus",
    description="per-read consistency SLAs over a timeline store",
    read_modes=("sla",),
    session_guarantees=("ryw", "mr"),
    chaos_waivers=(
        ("ryw", "SLA reads degrade to the eventual subclause by design "
         "when stronger targets are partitioned away, so read-my-writes "
         "is best-effort under faults (Pileus trades it for latency)"),
        ("mr", "same SLA degradation: a read served by a laggard "
         "replica after the preferred target drops out may move the "
         "session backwards"),
    ),
))
class PileusStore(ConsistentStore):
    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
        service_time: float = 0.0,
        queue_limit: int | None = None,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        retry: RetryPolicy | None = None,
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        self.retry = retry
        self.placement = placement
        self.cluster = TimelineCluster(
            sim, network, nodes=nodes, node_ids=node_ids, **kwargs
        )
        _spread_unplaced(placement, self.cluster.node_ids)
        if placement is not None:
            placement.place(
                self.cluster._forwarder.node_id,
                placement.region_of(self.cluster.node_ids[0]),
            )
        _tune_servers(self.cluster.replicas, service_time, queue_limit,
                      admission_rate, admission_burst)

    def session(
        self,
        name: Hashable | None = None,
        sla: SLA = SHOPPING_CART,
        target: Hashable | None = None,
        retry: RetryPolicy | None = None,
        region: str | None = None,
        **opts: Any,
    ) -> StoreSession:
        _pref, region = _session_region(self, None, region)
        client = self.cluster.connect(session=name, **opts)
        _apply_retry(client, retry, self.retry)
        if target is not None:
            sla_client = FixedTargetSLAClient(client, target)
        else:
            sla_client = SLAClient(client)
        if region is not None:
            # Per-tenant region origin: the session's client node lives
            # in its region and the monitor starts from the *real* WAN
            # round trips instead of the flat default, so sub-SLA
            # selection reflects geography from the first read.
            self.placement.place(client.node_id, region)
            for node_id in self.cluster.node_ids:
                sla_client.monitor.latency[node_id] = 2 * self.placement.delay(
                    region, self.placement.region_of(node_id)
                )

        session = FnSession(
            client.session,
            put_fn=lambda k, v, t: sla_client.write(k, v, timeout=t),
            read_fns={
                "sla": lambda k, t: mapped_future(
                    self.sim,
                    sla_client.read(k, sla, timeout=t),
                    lambda outcome: (outcome.value, outcome.version or None),
                ),
            },
            default_mode="sla",
            client_id=client.node_id,
            client=client,
            region=region,
        )
        session.sla_client = sla_client
        return session

    def server_ids(self) -> list[Hashable]:
        return list(self.cluster.node_ids)

    def snapshots(self) -> list[dict]:
        return self.cluster.snapshots()

    def settle(self) -> None:
        self.cluster.anti_entropy_sweep()


# Importing the cache tier registers the "cached" wrapper adapter —
# last, so it can wrap any of the protocols registered above.
from .. import cache as _cache  # noqa: E402,F401
