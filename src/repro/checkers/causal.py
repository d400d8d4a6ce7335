"""Causal consistency checker.

Given a history where each read records the (per-key versioned) write
it returned, causal consistency requires an order containing

* session (program) order,
* reads-from order (a write precedes any read returning it),
* per-key version order (v1 < v2 for the same key),

under which no read returns a write that the order already supersedes:
if write ``w'`` (same key, higher version... or rather *any* other
version) causally precedes read ``r`` and the write ``w`` that ``r``
returned causally precedes ``w'``, then ``r`` read an overwritten
value — a causality violation.

With version order given, this is the polynomial-time variant
(transitive closure + one pass over reads); E11 contrasts its cost
with linearizability's exponential search.
"""

from __future__ import annotations

from ..histories import History, Operation
from .base import Verdict


def _build_causal_order(history: History) -> tuple[list[Operation], dict[int, set[int]]]:
    """Return (ops, predecessors) where predecessors[i] is the set of
    op indices causally before op i (transitively closed)."""
    ops = [op for op in history.completed]
    index_of = {op.op_id: i for i, op in enumerate(ops)}
    n = len(ops)
    direct: list[set[int]] = [set() for _ in range(n)]

    # Session order (consecutive edges suffice before closure).
    for session in history.sessions:
        session_ops = [op for op in history.by_session(session)]
        for earlier, later in zip(session_ops, session_ops[1:]):
            if earlier.op_id in index_of and later.op_id in index_of:
                direct[index_of[later.op_id]].add(index_of[earlier.op_id])

    # Reads-from: the write a read returned precedes the read.
    writes_by_key_version: dict[tuple, int] = {}
    for i, op in enumerate(ops):
        if op.is_write:
            writes_by_key_version[(op.key, op.version)] = i
    for i, op in enumerate(ops):
        if op.is_read and op.version > 0:
            writer = writes_by_key_version.get((op.key, op.version))
            if writer is not None:
                direct[i].add(writer)

    # Per-key version order between writes.
    for key in history.keys:
        key_writes = sorted(
            (op for op in history.by_key(key) if op.is_write and op.completed),
            key=lambda op: op.version,
        )
        for earlier, later in zip(key_writes, key_writes[1:]):
            direct[index_of[later.op_id]].add(index_of[earlier.op_id])

    # Transitive closure over a topological-ish order.  The relation
    # may contain cycles if the history is already inconsistent; we
    # close with a simple fixpoint which handles that too.
    closed: list[set[int]] = [set(edges) for edges in direct]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            additions: set[int] = set()
            for j in closed[i]:
                additions |= closed[j] - closed[i]
            if additions:
                closed[i] |= additions
                changed = True
    return ops, {i: closed[i] for i in range(n)}


def check_causal(history: History) -> Verdict:
    """Check causal consistency given per-key version order."""
    verdict = Verdict("causal-consistency")
    ops, predecessors = _build_causal_order(history)
    index_writes: dict[tuple, int] = {}
    for i, op in enumerate(ops):
        if op.is_write:
            index_writes[(op.key, op.version)] = i

    for i, op in enumerate(ops):
        # Cycle detection: an op causally preceding itself means the
        # session/reads-from/version orders contradict each other.
        if i in predecessors[i]:
            verdict.add(
                f"causality cycle through {op!r}", ops=(op,)
            )

    for i, op in enumerate(ops):
        if not op.is_read:
            continue
        verdict.checked_ops += 1
        # The read returns version op.version.  It is a violation if
        # some write w' to the same key causally precedes the read,
        # while the returned write is itself causally before w'
        # (i.e. the read observed a superseded value).
        returned = index_writes.get((op.key, op.version))
        for j in predecessors[i]:
            other = ops[j]
            if not (other.is_write and other.key == op.key):
                continue
            if other.version == op.version:
                continue
            if returned is None:
                # Read of the initial state while a causally earlier
                # write to the key exists.
                if op.version == 0:
                    verdict.add(
                        f"read of initial {op.key!r} despite causally "
                        f"preceding write v{other.version}",
                        ops=(op, other),
                    )
                    break
                continue
            if returned in predecessors[j]:
                verdict.add(
                    f"read {op.key!r}=v{op.version} superseded by causally "
                    f"preceding write v{other.version}",
                    ops=(op, other),
                )
                break
    return verdict


def check_causal_or_raise(history: History) -> Verdict:
    return check_causal(history).raise_if_violated()
