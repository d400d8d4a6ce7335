"""Sequential consistency checker.

Sequential consistency drops linearizability's real-time constraint:
there must be *some* single total order of all operations, consistent
with each session's program order, in which every read returns the
latest preceding write.  Unlike linearizability it is **not local** —
keys cannot be checked independently — so the search interleaves whole
sessions and tracks the register state of every key at once.

Exact checking is exponential; the memoized depth-first search below
(an explicit stack, so session length is not bounded by Python's
recursion limit) is fine for the history sizes the experiments produce
(E11 charts the growth).
"""

from __future__ import annotations

from ..histories import History, Operation
from .base import Verdict


def check_sequential(history: History, max_states: int = 2_000_000) -> Verdict:
    """Is there a legal sequentially consistent total order?"""
    verdict = Verdict("sequential-consistency")
    sessions = [history.by_session(s) for s in history.sessions]
    sessions = [ops for ops in sessions if ops]
    verdict.checked_ops = sum(len(ops) for ops in sessions)
    if not sessions:
        return verdict

    lengths = tuple(len(ops) for ops in sessions)

    def successors(positions: tuple[int, ...], versions: tuple):
        """States reachable by running one session's next op, in
        session order."""
        version_map = dict(versions)
        for index, session in enumerate(sessions):
            position = positions[index]
            if position == len(session):
                continue
            op: Operation = session[position]
            next_positions = (
                positions[:index] + (position + 1,) + positions[index + 1:]
            )
            if op.is_read:
                if version_map.get(op.key, 0) == op.version:
                    yield next_positions, versions
            else:
                new_map = dict(version_map)
                new_map[op.key] = op.version
                yield next_positions, tuple(
                    sorted(new_map.items(), key=lambda kv: repr(kv)))

    # Depth-first over an explicit stack of successor generators; a
    # state is expanded at most once and each expansion spends one unit
    # of budget.
    seen: set[tuple] = set()
    budget = max_states
    ok = False
    stack = [iter([(tuple(0 for _ in sessions), ())])]
    while stack and not ok:
        for state in stack[-1]:
            if state[0] == lengths:
                ok = True
                break
            if state not in seen and budget > 0:
                budget -= 1
                seen.add(state)
                stack.append(successors(*state))
                break
        else:
            stack.pop()

    if not ok:
        if budget <= 0:
            verdict.add(
                f"undecided — state budget exhausted ({max_states} states)"
            )
        else:
            verdict.add("no sequentially consistent total order exists")
    return verdict


def check_sequential_or_raise(history: History) -> Verdict:
    return check_sequential(history).raise_if_violated()
