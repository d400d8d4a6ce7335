"""History event types.

Conventions the checkers rely on:

* Writes carry a per-key **version**: an integer that totally orders
  the installed writes of one key (assigned by the master, the commit
  protocol, or the LWW arbitration rank).  Version 0 means "the
  initial, never-written state".
* Reads record the version they observed (0 when the key was unborn).
* ``session`` identifies a client session — the unit over which the
  Terry et al. session guarantees are defined.
* Times are simulator milliseconds: ``start`` (invocation) and ``end``
  (response).  A failed/incomplete op has ``end = None`` and is ignored
  by most checkers (and treated as possibly-applied by the
  linearizability checker).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator

_op_ids = itertools.count(1)


@dataclass(frozen=True)
class Operation:
    """One client-observed operation."""

    kind: str                 # "read" | "write"
    key: Hashable
    version: int              # per-key total order rank (0 = unborn)
    session: Hashable
    start: float
    end: float | None
    value: Any = None
    op_id: int = field(default_factory=lambda: next(_op_ids))
    replica: Hashable = None  # which replica served it (diagnostics)
    #: Which serving tier answered: ``"cache"`` for a cache hit,
    #: ``"store"`` for a read/write that reached the backing store,
    #: ``None`` when the history was recorded below any cache.  Lets
    #: the staleness checkers attribute staleness to the tier that
    #: caused it instead of assuming every op observed the
    #: authoritative store.
    tier: Hashable = None

    @property
    def is_read(self) -> bool:
        return self.kind == "read"

    @property
    def is_write(self) -> bool:
        return self.kind == "write"

    @property
    def completed(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:
        span = f"{self.start:.2f}-{self.end:.2f}" if self.completed else f"{self.start:.2f}-?"
        return (
            f"<{self.kind} {self.key!r}=v{self.version} s={self.session} "
            f"[{span}]>"
        )


def make_write(
    key: Hashable,
    version: int,
    session: Hashable = "s0",
    start: float = 0.0,
    end: float | None = 0.0,
    value: Any = None,
    replica: Hashable = None,
    tier: Hashable = None,
) -> Operation:
    """Test/bench helper: a completed write operation."""
    return Operation("write", key, version, session, start, end, value,
                     replica=replica, tier=tier)


def make_read(
    key: Hashable,
    version: int,
    session: Hashable = "s0",
    start: float = 0.0,
    end: float | None = 0.0,
    value: Any = None,
    replica: Hashable = None,
    tier: Hashable = None,
) -> Operation:
    """Test/bench helper: a completed read operation."""
    return Operation("read", key, version, session, start, end, value,
                     replica=replica, tier=tier)


# Aliases that read naturally at call sites.
WriteOp = make_write
ReadOp = make_read


class History:
    """An immutable collection of operations with indexed views."""

    def __init__(self, operations: Iterable[Operation] = ()) -> None:
        self._ops: tuple[Operation, ...] = tuple(
            sorted(operations, key=lambda op: (op.start, op.op_id))
        )
        # key -> ops and session -> completed ops, built on first use.
        self._key_index: dict[Hashable, list[Operation]] | None = None
        self._session_index: dict[Hashable, list[Operation]] | None = None

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, index: int) -> Operation:
        return self._ops[index]

    def add(self, op: Operation) -> "History":
        return History(self._ops + (op,))

    def extend(self, ops: Iterable[Operation]) -> "History":
        return History(self._ops + tuple(ops))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def completed(self) -> list[Operation]:
        return [op for op in self._ops if op.completed]

    def _build_indexes(self) -> None:
        """Group ops by key and by session in one pass.

        ``_ops`` is sorted by ``(start, op_id)``, so every group keeps
        that order; a session whose ops all failed gets an empty group."""
        by_key: dict[Hashable, list[Operation]] = {}
        by_session: dict[Hashable, list[Operation]] = {}
        for op in self._ops:
            by_key.setdefault(op.key, []).append(op)
            session_ops = by_session.setdefault(op.session, [])
            if op.end is not None:
                session_ops.append(op)
        self._key_index, self._session_index = by_key, by_session

    def by_session(self, session: Hashable) -> list[Operation]:
        """Completed ops of one session, in session (program) order."""
        if self._session_index is None:
            self._build_indexes()
        return list(self._session_index.get(session, ()))

    @property
    def sessions(self) -> list[Hashable]:
        if self._session_index is None:
            self._build_indexes()
        return list(self._session_index)

    def by_key(self, key: Hashable) -> list[Operation]:
        if self._key_index is None:
            self._build_indexes()
        return list(self._key_index.get(key, ()))

    @property
    def keys(self) -> list[Hashable]:
        if self._key_index is None:
            self._build_indexes()
        return list(self._key_index)

    def reads(self) -> list[Operation]:
        return [op for op in self._ops if op.is_read and op.completed]

    def writes(self) -> list[Operation]:
        return [op for op in self._ops if op.is_write]

    def latest_version_before(self, key: Hashable, time: float) -> int:
        """Highest version of ``key`` whose write completed by ``time``."""
        best = 0
        for op in self.by_key(key):
            if (
                op.is_write
                and op.completed
                and op.end <= time
                and op.version > best
            ):
                best = op.version
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<History ops={len(self._ops)} sessions={len(self.sessions)}>"
