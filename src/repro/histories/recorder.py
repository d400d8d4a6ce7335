"""Recording histories from live simulations.

The recorder is deliberately dumb: the caller that issues a client
operation calls ``begin`` when it is invoked and ``complete_token`` /
``fail`` when it returns.  Everything clever happens later, in the
checkers.  The workload drivers record every operation this way at
the :class:`~repro.api.StoreSession` boundary, so a history holds what
the client observed, whatever protocol served it.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any

from ..sim import Simulator
from .events import History, Operation


@dataclass(slots=True)
class _TokenOp:
    """One operation as recorded, before tokens become versions."""

    kind: str
    key: Hashable
    session: Hashable
    start: float
    replica: Hashable
    end: float | None = None
    token: Any = None
    value: Any = None
    tier: Hashable = None


class HistoryRecorder:
    """Accumulates operations stamped with version *tokens*.

    The protocols stamp operations with heterogeneous version metadata
    — Lamport stamps, causal ranks, per-record sequence numbers —
    whose only shared property is a total order *within a key*.  The
    recorder accepts those tokens directly (:meth:`complete_token`;
    an integer version is just a token) and densifies them into
    per-key integer versions at :meth:`history` time.  That is what
    lets one workload driver record a checkable history against any
    store behind the :mod:`repro.api` interface.

    Falsy tokens (``None``, ``0``, empty context) mean "nothing
    observed" and map to version 0, the checkers' initial state.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._pending: dict[int, _TokenOp] = {}
        self._next_handle = 0
        self._ops: list[_TokenOp] = []

    def begin(
        self,
        kind: str,
        key: Hashable,
        session: Hashable,
        replica: Hashable = None,
    ) -> int:
        """Record an invocation; returns a handle for completion."""
        self._next_handle += 1
        self._pending[self._next_handle] = _TokenOp(
            kind, key, session, self.sim.now, replica
        )
        return self._next_handle

    def complete_token(
        self,
        handle: int,
        token: Any,
        value: Any = None,
        replica: Hashable = None,
        tier: Hashable = None,
    ) -> None:
        """Record a successful response carrying a version token.

        ``tier`` tags the op with the serving tier (``"cache"`` /
        ``"store"``) when the caller drives a cache-fronted store."""
        op = self._pending.pop(handle)
        op.end = self.sim.now
        op.token = token if token else None
        op.value = value
        if replica is not None:
            op.replica = replica
        op.tier = tier
        self._ops.append(op)

    def fail(self, handle: int, value: Any = None) -> None:
        """Record an operation that never produced a response.

        ``value`` is the value a write *attempted* — kept on the op so
        a later read of that value ties back to this maybe-applied
        write (see :meth:`history`)."""
        op = self._pending.pop(handle)
        op.value = value
        self._ops.append(op)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def history(self) -> History:
        """Densify tokens into per-key versions; reads contribute their
        observed tokens too, so writes that timed out client-side but
        landed on replicas still rank consistently.

        Each key's tokens are sorted from first-seen order, so the
        comparisons made (and their count) never depend on hash order.

        A failed write carries no token (the server assigns it), but if
        a completed op later *observed* the write's attempted value, the
        write's version is inferred from that observation — otherwise a
        read of a maybe-applied write is an orphan version no write op
        explains, and the linearizability checker reports a phantom
        violation.  Inference only fires when the value maps to exactly
        one version for the key (workload values are unique) and the
        value is hashable."""
        tokens_by_key: dict[Hashable, dict] = {}
        for raw in self._ops:
            if raw.token is not None:
                tokens_by_key.setdefault(raw.key, {})[raw.token] = None
        rank: dict[tuple[Hashable, Any], int] = {}
        for key, tokens in tokens_by_key.items():
            for index, token in enumerate(sorted(tokens), start=1):
                rank[(key, token)] = index
        ambiguous = object()
        seen_versions: dict[tuple[Hashable, Any], Any] = {}
        for raw in self._ops:
            if raw.token is None or raw.value is None \
                    or not isinstance(raw.value, Hashable):
                continue
            observed = (raw.key, raw.value)
            version = rank[(raw.key, raw.token)]
            if seen_versions.setdefault(observed, version) != version:
                seen_versions[observed] = ambiguous
        ops = []
        for raw in self._ops:
            version = 0
            if raw.token is not None:
                version = rank[(raw.key, raw.token)]
            elif raw.end is None and raw.kind == "write" \
                    and isinstance(raw.value, Hashable):
                inferred = seen_versions.get((raw.key, raw.value))
                if isinstance(inferred, int):
                    version = inferred
            ops.append(
                Operation(
                    kind=raw.kind,
                    key=raw.key,
                    version=version,
                    session=raw.session,
                    start=raw.start,
                    end=raw.end,
                    value=raw.value,
                    replica=raw.replica,
                    tier=raw.tier,
                )
            )
        return History(ops)


#: The name the workload drivers have always used for this recorder.
TokenHistoryRecorder = HistoryRecorder
