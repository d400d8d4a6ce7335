"""The three benchmark workloads: seeded inputs, store build, one run.

Each workload is split the way the benchmark times it:

* :func:`generate` makes every input from the seed -- the op stream,
  open-loop arrival times and the fault schedule -- before any store
  exists, so the program under test receives only generated inputs;
* :func:`build` constructs the simulator, network and store through
  ``repro.api.registry``;
* :func:`drive_and_check` simulates, heals and settles where the
  workload says so, and runs the checkers over the recorded history.

The checkers are looked up on ``repro.checkers`` at call time, so the
traced run's wrappers (see ``tracing.py``) see every call.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro import checkers
from repro.api import registry
from repro.chaos import FaultPlan, Nemesis
from repro.chaos.plan import step
from repro.rpc import RetryPolicy
from repro.sim import ExponentialLatency, Network, Simulator
from repro.workload import (
    OpenLoopDriver,
    PoissonArrivals,
    ReplayArrivals,
    YCSBWorkload,
    run_workload,
)

from . import spec

#: Session-guarantee name -> the ``repro.checkers`` function checking it.
SESSION_CHECKERS = {
    "read-your-writes": "check_read_your_writes",
    "monotonic-reads": "check_monotonic_reads",
    "monotonic-writes": "check_monotonic_writes",
    "writes-follow-reads": "check_writes_follow_reads",
}

#: Healthy one-way delay: 0.3 ms plus an exponential with mean 1.0 ms.
LATENCY = dict(base=0.3, mean=1.0)

#: Open-loop arrival window (simulated ms) and rate (ops per simulated s).
OPEN_WINDOW_MS = 20_000.0
OPEN_RATE = 1_000.0
#: One fault cycle -- a halves partition, a crash and recovery, and a
#: 30% drop on one link -- repeats every this many simulated ms.
FAULT_CYCLE_MS = 2_000.0
#: Long enough for every op to outlast a partition or crash in the
#: schedule, so no op fails and the retry path still carries load.
OPEN_RETRY = dict(max_attempts=8, request_timeout=200.0, backoff_max=400.0)
OPEN_DEADLINE_MS = 4_000.0


@dataclass
class Inputs:
    """Everything a run consumes, generated from the seed."""

    workload: str
    seed: int
    ops: list
    arrivals: list[float] | None = None
    plan: FaultPlan | None = None


@dataclass
class Built:
    sim: Simulator
    net: Network
    store: Any


@dataclass
class Outcome:
    """What one simulate + settle + check pass produced."""

    attempted: int
    ok: int
    failed: int
    in_flight: int
    read_latency: Any
    write_latency: Any
    verdicts: dict = field(default_factory=dict)


def history_seeds(seed: int) -> list[int]:
    """The generator seeds of the histories one run of ``seed`` covers;
    distinct seeds never share one."""
    return [seed * spec.HISTORIES + i for i in range(spec.HISTORIES)]


def generate(workload: str, seed: int, scale: float = 1.0) -> Inputs:
    """Seeded inputs; ``scale`` shrinks op counts for the benchmark's
    own tests and is 1.0 in every measured run."""
    if workload == "ycsb_a_quorum":
        ops = YCSBWorkload("A", records=10_000, seed=seed + 1)
        return Inputs(workload, seed, ops.take(round(20_000 * scale)))
    if workload == "lin_chain_hot":
        ops = YCSBWorkload("A", records=1_000, seed=seed + 1)
        return Inputs(workload, seed, ops.take(round(20_000 * scale)))
    if workload == "openloop_siblings_faults":
        window = OPEN_WINDOW_MS * scale
        arrivals = []
        for at in PoissonArrivals(rate=OPEN_RATE, seed=seed + 2):
            if at > window:
                break
            arrivals.append(at)
        ops = YCSBWorkload("B", records=2_000, seed=seed + 1)
        return Inputs(workload, seed, ops.take(len(arrivals)),
                      arrivals=arrivals, plan=fault_plan(seed, window))
    raise KeyError(f"unknown workload {workload!r}; have {list(spec.WORKLOADS)}")


def fault_plan(seed: int, window: float) -> FaultPlan:
    """One partition, one crash and one drop per cycle, at seeded
    offsets, repeated across the arrival window.

    Partitions heal within 60-140 ms, inside the 200 ms request timeout,
    so an op they catch times out once and then succeeds.  With longer
    partitions 0.5-1.8% of reads needed two timeouts, and read p99 sat
    on that edge: 221 ms on some seeds, 442 ms on others."""
    rng = random.Random(seed + 4)
    steps = []
    start = 0.0
    while start < window:
        cut = start + rng.uniform(0.0, 400.0)
        steps += [step("partition", at=cut, shape="halves"),
                  step("heal", at=cut + rng.uniform(60.0, 140.0))]
        crash = start + rng.uniform(500.0, 900.0)
        steps += [step("crash", at=crash, target="random"),
                  step("recover", at=crash + rng.uniform(200.0, 400.0),
                       target="all")]
        steps.append(step("drop", at=start + rng.uniform(1_200.0, 1_500.0),
                          rate=0.3, duration=rng.uniform(200.0, 400.0)))
        start += FAULT_CYCLE_MS
    return FaultPlan("openloop_siblings_faults", tuple(steps), seed=seed)


def build(inputs: Inputs) -> Built:
    sim = Simulator(seed=inputs.seed)
    net = Network(sim, latency=ExponentialLatency(**LATENCY))
    if inputs.workload == "ycsb_a_quorum":
        store = registry.build("quorum", sim, net, nodes=5, n=3, r=2, w=2)
    elif inputs.workload == "lin_chain_hot":
        store = registry.build("chain", sim, net, nodes=3)
    else:
        store = registry.build(
            "quorum_siblings", sim, net, nodes=5, n=3, r=2, w=2,
            service_time=0.5, queue_limit=64,
            retry=RetryPolicy(**OPEN_RETRY),
        )
    return Built(sim, net, store)


@contextmanager
def recursion_limit(limit: int):
    """Raise the interpreter's recursion limit for one call (see
    ``spec.RECURSION_LIMIT``)."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def drive_and_check(inputs: Inputs, built: Built) -> Outcome:
    sim, store = built.sim, built.store
    if inputs.workload == "openloop_siblings_faults":
        nemesis = Nemesis(inputs.plan, seed=inputs.seed + 3)
        driver = OpenLoopDriver(
            store, ReplayArrivals(inputs.arrivals), inputs.ops,
            sessions=256, timeout=OPEN_DEADLINE_MS, seed=inputs.seed + 3,
        )
        nemesis.install(store)
        try:
            result = driver.run(OPEN_WINDOW_MS)
        finally:
            nemesis.stop()
        nemesis.heal_all()
        sim.run()
        outcome = Outcome(result.offered, result.ok, result.failed,
                          result.in_flight, result.read_latency,
                          result.write_latency)
    else:
        clients, mode = ((24, "quorum") if inputs.workload == "ycsb_a_quorum"
                         else (16, "tail"))
        result = run_workload(store, inputs.ops, clients=clients,
                              read_mode=mode, timeout=60_000.0)
        outcome = Outcome(result.ops_total, result.ops_ok, result.ops_failed,
                          0, result.read_latency, result.write_latency)
    history = result.history
    if inputs.workload == "lin_chain_hot":
        with recursion_limit(spec.RECURSION_LIMIT):
            outcome.verdicts["linearizability"] = \
                checkers.check_linearizability(history)
        return outcome
    store.settle()
    sim.run()
    for guarantee, fn_name in SESSION_CHECKERS.items():
        outcome.verdicts[guarantee] = getattr(checkers, fn_name)(history)
    outcome.verdicts["convergence"] = \
        checkers.check_convergence(store.snapshots())
    return outcome


def problems(workload: str, outcome: Outcome) -> list[str]:
    """Why this outcome is wrong; empty when every check holds."""
    found = []
    if outcome.attempted < 1:
        found.append("no ops attempted")
    if outcome.attempted != outcome.ok + outcome.failed + outcome.in_flight:
        found.append(
            f"attempted {outcome.attempted} != ok {outcome.ok} + failed "
            f"{outcome.failed} + in flight {outcome.in_flight}")
    for guarantee in spec.CLAIMS[workload]:
        verdict = outcome.verdicts.get(guarantee)
        if verdict is None:
            found.append(f"{guarantee}: claimed but never checked")
            continue
        if verdict.checked_ops < 1:
            found.append(f"{guarantee}: checked nothing")
        # An exhausted search is reported as a violation whose text says
        # "undecided"; either way it is a failure, never a pass.
        for violation in verdict.violations[:3]:
            found.append(f"{guarantee}: {violation.description}")
        if len(verdict.violations) > 3:
            found.append(f"{guarantee}: ... {len(verdict.violations)} "
                         f"violations in all")
    return found
