"""Linearizability checker (just-in-time linearization, iterative).

Linearizability is the strong end of the tutorial's spectrum: every
operation appears to take effect atomically between its invocation and
response.  Checking a recorded register history is NP-complete in
general; the search below is exact and near-linear on the histories
our simulator produces.

Linearizability is *local* (a history is linearizable iff each key's
sub-history is), so we check per key and join the results — this is
what keeps the checker usable on multi-key workloads, and E11 measures
the residual exponential worst case on adversarial single-key
histories.

The search is the Wing–Gong backtracking search in the explicit-stack
form of Lowe's just-in-time linearization (G. Lowe, *Testing for
linearizability*, Concurrency and Computation 2017), as Porcupine also
implements it.  A key's calls and returns form one doubly linked list,
sorted by time with a call before a return at equal times.  An op may
be linearized next iff its call comes before the first remaining
return, i.e. it was invoked no later than the earliest response among
the ops not yet linearized.  Linearizing an op lifts its call and
return out of the list; backtracking puts them back, in LIFO order.
Every state reached — the set of linearized ops as an int bitset plus
the register's version — is memoized, so no state is expanded twice,
and ``max_states`` bounds how many are.

Semantics: writes install distinct versions of a key; a read returns
the version of the most recent linearized write (0 = initial state).
A read with no response (``end is None``) constrains nothing and is
dropped.  A write with no response gets a call but no return entry:
it never holds back the frontier, it may be linearized at any point
after its invocation, and the search succeeds once every completed op
is linearized — so it may also never take effect.
"""

from __future__ import annotations

from typing import Hashable

from ..histories import History, Operation
from .base import Verdict


def check_linearizability(
    history: History, max_states: int = 2_000_000
) -> Verdict:
    """Check the whole history, key by key.

    ``max_states`` bounds the search per key; if exhausted the verdict
    reports a violation flagged ``undecided`` rather than hanging.
    """
    verdict = Verdict("linearizability")
    verdict.checked_ops = len(history.completed)
    for key in history.keys:
        result = _check_single_key(key, history.by_key(key), max_states)
        if result is not None:
            verdict.add(result, ops=())
    return verdict


def check_linearizability_key(
    history: History, key: Hashable, max_states: int = 2_000_000
) -> bool:
    """Convenience: is the sub-history of ``key`` linearizable?"""
    return _check_single_key(key, history.by_key(key), max_states) is None


def _check_single_key(
    key: Hashable, ops: list[Operation], max_states: int
) -> str | None:
    """None if linearizable, else a violation description."""
    candidates = [op for op in ops if op.is_write or op.completed]
    if not candidates:
        return None

    # Entries 1..n of the linked list; 0 is the head.  ``op_of`` maps an
    # entry to its op's index in ``candidates``; ``partner`` maps a call
    # entry to its return entry (0 for a write with no response) and a
    # return entry to -1.
    events = []
    for index, op in enumerate(candidates):
        events.append((op.start, 0, index))
        if op.completed:
            events.append((op.end, 1, index))
    events.sort()
    size = len(events)
    op_of = [0] * (size + 1)
    partner = [0] * (size + 1)
    call_entry = [0] * len(candidates)
    for entry, (_, is_return, index) in enumerate(events, start=1):
        op_of[entry] = index
        if is_return:
            partner[entry] = -1
            partner[call_entry[index]] = entry
        else:
            call_entry[index] = entry
    nxt = list(range(1, size + 2))
    prv = list(range(-1, size + 1))

    is_read = [op.is_read for op in candidates]
    versions = [op.version for op in candidates]
    unlinearized = sum(op.completed for op in candidates)
    version = 0
    linearized = 0
    seen: set[tuple[int, int]] = set()
    stack: list[tuple[int, int]] = []
    entry = nxt[0]
    while unlinearized:
        ret = partner[entry]
        if ret >= 0:
            # A call before the first remaining return: try it next.
            index = op_of[entry]
            if is_read[index]:
                new_version = version
                legal = versions[index] == version
            else:
                new_version = versions[index]
                legal = True
            if legal:
                state = (linearized | 1 << index, new_version)
                if state not in seen:
                    if len(seen) >= max_states:
                        return (
                            f"key {key!r}: undecided — state budget "
                            f"exhausted ({max_states} states)"
                        )
                    seen.add(state)
                    stack.append((entry, version))
                    linearized, version = state
                    if ret:
                        unlinearized -= 1
                        nxt[prv[ret]] = nxt[ret]
                        prv[nxt[ret]] = prv[ret]
                    nxt[prv[entry]] = nxt[entry]
                    prv[nxt[entry]] = prv[entry]
                    entry = nxt[0]
                    continue
            entry = nxt[entry]
            continue
        # The first remaining return: its op cannot be passed over, so
        # undo the latest linearization and try the next call after it.
        if not stack:
            return (
                f"key {key!r}: no linearization of {len(candidates)} "
                f"ops exists"
            )
        entry, version = stack.pop()
        linearized ^= 1 << op_of[entry]
        nxt[prv[entry]] = entry
        prv[nxt[entry]] = entry
        ret = partner[entry]
        if ret:
            unlinearized += 1
            nxt[prv[ret]] = ret
            prv[nxt[ret]] = ret
        entry = nxt[entry]
    return None


def check_linearizability_or_raise(history: History) -> Verdict:
    return check_linearizability(history).raise_if_violated()
