"""Dotted version vectors (Preguiça et al.), as used by Riak.

Plain version vectors conflate "the client read version X" with "the
server stored version X", which inflates sibling sets under concurrent
writes through the same coordinator (the *sibling explosion* problem).
A dotted version vector names each stored write with a unique **dot**
``(replica, counter)`` on top of a causal-context vector, so a server
can tell exactly which siblings a new write supersedes: those covered
by the write's context.

The unit of state here is :class:`DottedValueSet` — the full sibling
set for one key at one replica — with the two server operations:

* :meth:`DottedValueSet.put` — coordinate a client write carrying the
  causal context the client last read.
* :meth:`DottedValueSet.sync` — merge the sets of two replicas
  (anti-entropy / read repair).

Sets are immutable values: replicas share them by reference, and a
join may return one of its operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .vector import EMPTY_CLOCK, VectorClock


@dataclass(frozen=True)
class Dot:
    """A globally unique write identifier: the n-th write at a replica."""

    replica: Hashable
    counter: int

    def __str__(self) -> str:
        return f"({self.replica},{self.counter})"


@dataclass(frozen=True)
class DottedVersion:
    """One stored sibling: its dot plus the context it was written in."""

    dot: Dot
    context: VectorClock
    value: object

    def covered_by(self, clock: VectorClock) -> bool:
        """True when ``clock`` has seen this version's dot."""
        return clock[self.dot.replica] >= self.dot.counter


class DottedValueSet:
    """Sibling set for one key at one replica, with DVV semantics.

    >>> s = DottedValueSet()
    >>> ctx0 = s.context()
    >>> s = s.put("r1", "a", ctx0)          # first write
    >>> s = s.put("r1", "b", ctx0)          # concurrent write, same ctx
    >>> sorted(s.values())
    ['a', 'b']
    >>> s = s.put("r1", "c", s.context())   # read-modify-write
    >>> s.values()
    ['c']
    """

    __slots__ = ("versions", "clock")

    def __init__(
        self,
        versions: tuple[DottedVersion, ...] = (),
        clock: VectorClock | None = None,
    ) -> None:
        self.versions = versions
        self.clock = clock if clock is not None else EMPTY_CLOCK

    # ------------------------------------------------------------------
    def context(self) -> VectorClock:
        """The causal context to hand to readers: the replica's clock."""
        return self.clock

    def values(self) -> list[object]:
        """Current sibling values, in stored order."""
        return [v.value for v in self.versions]

    def is_empty(self) -> bool:
        return not self.versions

    def wire_form(self) -> tuple[tuple, dict]:
        """The set as plain data, which is what the network prices:
        ``((replica, counter), context entries, value)`` per version."""
        versions = tuple([
            ((v.dot.replica, v.dot.counter), dict(v.context._counts), v.value)
            for v in self.versions
        ])
        return versions, dict(self.clock._counts)

    # ------------------------------------------------------------------
    def put(
        self, replica: Hashable, value: object, client_context: VectorClock
    ) -> "DottedValueSet":
        """Apply a client write coordinated at ``replica``.

        The write supersedes exactly the siblings covered by
        ``client_context``; others remain as concurrent siblings.
        Returns a new set (value semantics).
        """
        counter = self.clock[replica] + 1
        dot = Dot(replica, counter)
        new_clock = self.clock.merge(client_context).merge(
            VectorClock._trusted({replica: counter})
        )
        survivors = tuple(
            v for v in self.versions if not v.covered_by(client_context)
        )
        new_version = DottedVersion(dot=dot, context=client_context, value=value)
        return DottedValueSet(survivors + (new_version,), new_clock)

    def sync(self, other: "DottedValueSet") -> "DottedValueSet":
        """Merge two replicas' sets (commutative, associative, idempotent).

        A version survives iff the *other* side has not seen its dot, or
        both sides store it.  Returns ``self`` when ``other`` equals it.
        """
        if other is self or (
            self.clock == other.clock and self.versions == other.versions
        ):
            return self
        mine = {v.dot: v for v in self.versions}
        theirs = {v.dot: v for v in other.versions}
        keep: dict[Dot, DottedVersion] = {}
        for dot, version in mine.items():
            if dot in theirs or not version.covered_by(other.clock):
                keep[dot] = version
        for dot, version in theirs.items():
            # A dot both sides store was kept above.
            if dot not in mine and not version.covered_by(self.clock):
                keep[dot] = version
        merged_clock = self.clock.merge(other.clock)
        ordered = tuple(
            sorted(keep.values(), key=lambda v: (str(v.dot.replica), v.dot.counter))
        )
        return DottedValueSet(ordered, merged_clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sibs = ", ".join(f"{v.dot}={v.value!r}" for v in self.versions)
        return f"DVV[{sibs} | ctx={self.clock!r}]"
