"""Per-layer measurement from outside the program.

Two passes, neither of which changes ``src/``:

* **Traced pass.**  :func:`traced` replaces public boundary functions
  of each layer with wrappers that record one span per call -- name,
  start, end and the span that was open when it began -- into flat
  in-memory arrays.  :meth:`Spans.self_seconds` turns them into
  per-layer self time (a span's duration minus its child spans', less
  what the wrappers themselves cost, see :meth:`Spans.calibrate`) once
  the run has ended.  The wrappers are removed afterwards.  Work the
  event loop runs that no wrapper covers -- chiefly ``Future``
  callbacks, which are closures of many layers -- stays in the
  ``Simulator.run`` span and so in ``sim.core``.
* **Count pass.**  :func:`count_calls` runs the workload under
  ``cProfile`` and sums exact Python call counts, and cProfile's own
  self time, per layer, by the source file each function lives in
  (see :func:`layer_of_code`).  Methods that dataclasses generate have
  no source file and are not counted.  With ``PYTHONHASHSEED`` pinned
  the counts repeat exactly for a given seed.

Layer names are module names (``sim.core``, ``replication`` ...).
"""

from __future__ import annotations

import cProfile
import os
import statistics
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro
from repro import checkers
from repro.api import adapters
from repro.api.store import FnSession
from repro.histories.events import History
from repro.histories.recorder import HistoryRecorder, TokenHistoryRecorder
from repro.replication import chain, quorum, quorum_siblings
from repro.replication.common import ClientNode
from repro.rpc.call import RpcCall
from repro.sim import network as sim_network
from repro.sim.core import Simulator
from repro.sim.node import Node
from repro.sim.process import Process
from repro.workload.openloop import OpenLoopDriver

from .workloads import SESSION_CHECKERS

#: Checker function -> the ``checkers.<name>_s`` metric it adds to.
CHECKER_METRICS = {
    checkers.check_linearizability.__name__: "checkers.linearizability_s",
    **dict.fromkeys(SESSION_CHECKERS.values(), "checkers.session_s"),
    checkers.check_convergence.__name__: "checkers.convergence_s",
}

#: Replica timer callbacks the event loop runs directly; wrapped so that
#: their time is the protocol's, not the loop's.
REPLICA_TIMERS = ("_expire", "_write_fallback", "_push_hints")

#: History views and the recorder calls that build a history.
HISTORY_ACCESSORS = (
    "__init__", "completed", "by_session", "sessions", "by_key", "keys",
    "reads", "writes", "latest_version_before",
)


def boundaries() -> Iterator[tuple[Any, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped boundary."""
    yield Simulator, "run", "sim.core"
    yield sim_network.Network, "send", "sim.network"
    yield Node, "deliver", "sim.node"
    for attr in ("call", "request", "handle_Reply"):
        yield ClientNode, attr, "rpc"
    for attr in ("_attempt_done", "_retry"):
        yield RpcCall, attr, "rpc"
    for attr in ("put", "get"):
        yield FnSession, attr, "api"
    # Closed-loop lanes are generator processes; each resumption is one
    # step of the driver.  The open-loop driver runs on callbacks.
    yield Process, "_advance", "workload"
    for attr in ("_arrive", "_read_done", "_write_done"):
        yield OpenLoopDriver, attr, "workload"
    yield HistoryRecorder, "begin", "histories"
    for attr in ("complete_token", "fail", "history"):
        yield TokenHistoryRecorder, attr, "histories"
    for attr in HISTORY_ACCESSORS:
        yield History, attr, "histories"
    # Protocol work: message handlers and request servers on replicas,
    # put/get on protocol clients, and the anti-entropy settle.
    for module in (quorum, quorum_siblings, chain):
        for cls in vars(module).values():
            if not (isinstance(cls, type) and issubclass(cls, Node)
                    and cls.__module__ == module.__name__):
                continue
            client = issubclass(cls, ClientNode)
            for attr in list(vars(cls)):
                if (attr.startswith(("handle_", "serve_"))
                        or attr in REPLICA_TIMERS
                        or (client and attr in ("put", "get"))):
                    yield cls, attr, "replication"
    for cls in (adapters.QuorumStore, adapters.SiblingQuorumStore,
                adapters.ChainStore):
        yield cls, "settle", "replication"
    for name in CHECKER_METRICS:
        yield checkers, name, "checkers"


class Spans:
    """Flat span storage: one slot per call, parent by index."""

    def __init__(self) -> None:
        self.names: list[str] = []          # span-name table
        self.layer_of: list[str] = []       # name id -> layer
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        #: Seconds one wrapper adds inside the span it records, and
        #: around it (charged to the enclosing span); see :meth:`calibrate`.
        self.inner = self.outer = 0.0
        #: Futures returned by ``ClientNode.call``, read after the run
        #: to count successful calls without adding callbacks.
        self.call_futures: list = []

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, fn: Callable, name_id: int,
             keep: list | None = None) -> Callable:
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def calibrate(self, rounds: int = 50_000, repeats: int = 5) -> None:
        """Measure what one wrapped call costs on top of a plain call.

        ``inner`` is the span a wrapped no-op records; ``outer`` is the
        rest of the wrapper's cost, spent in the caller's span before
        the start and after the end are read.  Both are subtracted in
        :meth:`self_seconds`, so wrapping many small calls under one
        span does not inflate that span's layer."""
        probe = Spans()

        def noop():
            return None

        wrapped = probe.wrap(noop, probe.register("noop", "noop"))
        clock = time.perf_counter
        plain_best = wrapped_best = float("inf")
        for _ in range(repeats):
            started = clock()
            for _ in range(rounds):
                noop()
            plain_best = min(plain_best, clock() - started)
            started = clock()
            for _ in range(rounds):
                wrapped()
            wrapped_best = min(wrapped_best, clock() - started)
        self.inner = statistics.median(
            end - start for start, end in zip(probe.starts, probe.ends))
        self.outer = max(
            0.0, (wrapped_best - plain_best) / rounds - self.inner)

    def _own_and_inclusive(self) -> tuple[list[float], list[float]]:
        """Per span: self time and duration with children, both less
        the wrapper cost :meth:`calibrate` measured."""
        inner, outer = self.inner, self.outer
        raw = [end - start for start, end in zip(self.starts, self.ends)]
        own = [duration - inner for duration in raw]
        parents = self.parents
        for index, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= raw[index] + outer
        inclusive = own[:]
        # A child always has a larger index than its parent.
        for index in range(len(inclusive) - 1, -1, -1):
            parent = parents[index]
            if parent >= 0:
                inclusive[parent] += inclusive[index]
        return own, inclusive

    def calls(self) -> dict[str, int]:
        """Span name -> number of calls."""
        counts = [0] * len(self.names)
        for name_id in self.name_ids:
            counts[name_id] += 1
        return dict(zip(self.names, counts))

    def self_seconds(self) -> dict[str, float]:
        """Layer -> summed self time (duration minus child spans)."""
        own, _ = self._own_and_inclusive()
        totals: dict[str, float] = defaultdict(float)
        layer_of = self.layer_of
        for name_id, seconds in zip(self.name_ids, own):
            totals[layer_of[name_id]] += seconds
        return dict(totals)

    def inclusive_seconds(self) -> dict[str, float]:
        """Span name -> summed duration, children included."""
        _, inclusive = self._own_and_inclusive()
        totals: dict[str, float] = defaultdict(float)
        names = self.names
        for name_id, seconds in zip(self.name_ids, inclusive):
            totals[names[name_id]] += seconds
        return dict(totals)


def _span_name(owner: Any, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}"


@contextmanager
def traced() -> Iterator[Spans]:
    """Wrap every boundary for the duration of the block."""
    spans = Spans()
    saved = []
    try:
        for owner, attr, layer in boundaries():
            original = vars(owner)[attr]
            name_id = spans.register(_span_name(owner, attr), layer)
            keep = spans.call_futures if (owner, attr) == (
                ClientNode, "call") else None
            if isinstance(original, property):
                replacement: Any = property(
                    spans.wrap(original.fget, name_id))
            else:
                replacement = spans.wrap(original, name_id, keep)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield spans
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Count pass
# ---------------------------------------------------------------------------

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))

#: Source file (relative to the ``repro`` package) -> layer, for files
#: that are a layer on their own; other files map by their directory.
_FILE_LAYERS = {
    "sim/core.py": "sim.core",
    "sim/events.py": "sim.events",
    "sim/network.py": "sim.network",
    "sim/node.py": "sim.node",
    "analysis/registry.py": "analysis.registry",
}
_DIR_LAYERS = ("rpc", "replication", "clocks", "api", "workload",
               "histories", "checkers")

#: Layers the count pass reports ``<layer>.calls_per_op`` for.
COUNTED_LAYERS = tuple(_FILE_LAYERS.values()) + _DIR_LAYERS


#: ``replication/common.py`` holds the request/reply plumbing every
#: protocol shares.  Its client half is the rpc layer and its server half
#: (admission, queueing, dedup) belongs to the node, matching where the
#: traced pass puts their time: ``ClientNode.call`` opens an rpc span and
#: ``ServerNode.handle_Request`` runs inside the ``Node.deliver`` span.
_CLASS_LAYERS = {"ClientNode": "rpc", "ServerNode": "sim.node"}


def layer_of_code(code) -> str | None:
    """The layer a function belongs to, from its source file (and, in
    ``replication/common.py``, its class)."""
    relative = os.path.relpath(os.path.abspath(code.co_filename), _REPRO_DIR)
    relative = relative.replace(os.sep, "/")
    if relative in _FILE_LAYERS:
        return _FILE_LAYERS[relative]
    if relative == "replication/common.py":
        owner = getattr(code, "co_qualname", code.co_name).split(".", 1)[0]
        return _CLASS_LAYERS.get(owner, "replication")
    top = relative.split("/", 1)[0]
    return top if top in _DIR_LAYERS else None


def _nested_codes(code) -> set:
    found = {code}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            found |= _nested_codes(const)
    return found


#: ``estimate_size`` runs only because the count pass turns on the
#: network's ``track_bytes``; its calls are not the program's own and
#: are left out of the counts.
_SIZE_CODES = _nested_codes(sim_network.estimate_size.__code__)


def count_calls(run: Callable[[], Any]) -> tuple[dict[str, int],
                                                 dict[str, float]]:
    """Run ``run()`` under cProfile; returns the exact number of Python
    calls per layer and cProfile's self time per layer."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    counts = dict.fromkeys(COUNTED_LAYERS, 0)
    self_s = dict.fromkeys(COUNTED_LAYERS, 0.0)
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str) or code in _SIZE_CODES:
            continue
        layer = layer_of_code(code)
        if layer is not None:
            counts[layer] += entry.callcount
            self_s[layer] += entry.inlinetime
    return counts, self_s
