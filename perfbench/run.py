"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb_a_quorum --seed 42 \
        --seconds 25 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints every
end-to-end metric; ``--trace 1`` runs it once untraced, once traced
and once under the call counter, and prints every per-layer metric.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Every child process gets this long before it is killed.
CHILD_TIMEOUT_S = 170.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="generate inputs, build the store, print 'ready' and exit "
             "(what each set-up probe process runs)")
    return parser.parse_args(argv)


def import_benchmark():
    """Import the program from the checkout's ``src/``; exit 2 when it
    is not there."""
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    source = os.path.join(ROOT, "src", "repro")
    try:
        import repro
        if os.path.dirname(os.path.abspath(repro.__file__)) != source:
            raise ImportError(f"repro comes from {repro.__file__}")
        from perfbench import spec, workloads
        from repro.perf.harness import metrics_digest
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {source}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    return spec, workloads, metrics_digest


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe_seconds(args: argparse.Namespace) -> float:
    """Wall time from starting a fresh process to its store being
    built, imports included."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    started = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {code}: {line!r}")
    return elapsed


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict, problems: list[str]) -> int:
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6f} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def latency_metrics(reads, writes) -> dict[str, float]:
    return {
        "sim_read_p50_ms": reads.percentile(50),
        "sim_read_p99_ms": reads.percentile(99),
        "sim_write_p50_ms": writes.percentile(50),
        "sim_write_p99_ms": writes.percentile(99),
    }


def model_fingerprint(built, outcome, metrics_digest) -> tuple:
    """What must repeat exactly for one history: the metrics digest,
    the event count, the op outcome and the modelled latencies."""
    return (metrics_digest(built.sim.metrics.snapshot()),
            built.sim.events_processed, outcome.attempted, outcome.ok,
            outcome.failed, outcome.in_flight,
            tuple(outcome.read_latency.samples),
            tuple(outcome.write_latency.samples))


def print_verdicts(spec, outcome) -> None:
    if "linearizability" in outcome.verdicts:
        print(f"  recursion limit {spec.RECURSION_LIMIT} around "
              f"check_linearizability: {spec.RECURSION_LIMIT_REASON}")
    for guarantee, verdict in outcome.verdicts.items():
        state = "pass" if verdict.ok else \
            f"{verdict.violation_count} violations"
        print(f"  verdict {guarantee:<22} {state} "
              f"({verdict.checked_ops} checked)")


def end_to_end(args, spec, workloads, metrics_digest,
               scale: float = 1.0) -> int:
    from repro.analysis import LatencyStats

    histories = [workloads.generate(args.workload, seed, scale)
                 for seed in workloads.history_seeds(args.seed)]
    setups: list[float] = []
    walls: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    first: dict[int, tuple] = {}
    began = time.perf_counter()
    while True:
        # Set-up probes are spread evenly over the run (see
        # spec.SETUP_PROBES for why setup_s is their minimum).
        while (len(setups) < spec.SETUP_PROBES
               and time.perf_counter() - began
               >= len(setups) * args.seconds / spec.SETUP_PROBES):
            setups.append(setup_probe_seconds(args))
        index = len(walls) % len(histories)
        inputs = histories[index]
        built = workloads.build(inputs)
        gc.collect()
        started = time.perf_counter()
        outcome = workloads.drive_and_check(inputs, built)
        wall = time.perf_counter() - started
        walls.append(wall)
        attempted += outcome.attempted
        failed += outcome.failed + outcome.in_flight
        problems += workloads.problems(args.workload, outcome)
        fingerprint = model_fingerprint(built, outcome, metrics_digest)
        if index not in first:
            first[index] = (fingerprint, outcome)
            print(f"  history {index} (seed {inputs.seed}):")
            print_verdicts(spec, outcome)
        elif fingerprint != first[index][0]:
            problems.append(f"history {index} diverged when repeated")
        print(f"  run {len(walls)}: history {index}, {outcome.attempted} ops "
              f"in {wall:.3f} s")
        del built, outcome
        if (len(walls) >= len(histories)
                and time.perf_counter() - began >= args.seconds):
            break
    while len(setups) < spec.SETUP_PROBES:
        setups.append(setup_probe_seconds(args))
    # The model metrics pool each history's first run, so they are fixed
    # for a given seed however many repeats the time allowed.
    outcomes = [first[index][1] for index in range(len(histories))]
    reads, writes = LatencyStats(), LatencyStats()
    for outcome in outcomes:
        reads.extend(outcome.read_latency.samples)
        writes.extend(outcome.write_latency.samples)
    print(f"  {len(walls)} runs; {reads.count} reads "
          f"({reads.count // 100} beyond p99), {writes.count} writes "
          f"({writes.count // 100} beyond p99)")
    print("  set-up probes (s): "
          + " ".join(f"{seconds:.3f}" for seconds in setups))
    metrics = {
        # Throughput over all repeats, not their median: a median jumps
        # between the machine's fast and slow stretches, where the
        # aggregate moves with the share of time spent in each.
        "ops_per_s": attempted / sum(walls),
        "setup_s": min(setups),
        "peak_rss_mb": peak_rss_mb(),
        "op_ok_share": (sum(outcome.ok for outcome in outcomes)
                        / sum(outcome.attempted for outcome in outcomes)),
        **latency_metrics(reads, writes),
    }
    return emit(not problems, attempted, failed, metrics, spec.units(),
                problems)


def per_layer(args, spec, workloads, metrics_digest,
              scale: float = 1.0) -> int:
    from perfbench import tracing

    inputs = workloads.generate(
        args.workload, workloads.history_seeds(args.seed)[0], scale)
    problems: list[str] = []

    def timed(built):
        gc.collect()
        started = time.perf_counter()
        outcome = workloads.drive_and_check(inputs, built)
        wall = time.perf_counter() - started
        problems.extend(workloads.problems(args.workload, outcome))
        return outcome, wall

    plain = workloads.build(inputs)
    outcome, plain_wall = timed(plain)
    print_verdicts(spec, outcome)
    reference = model_fingerprint(plain, outcome, metrics_digest)
    snapshot = plain.sim.metrics.snapshot()
    events = plain.sim.events_processed
    del plain

    with tracing.traced() as spans:
        traced_built = workloads.build(inputs)
        traced_outcome, traced_wall = timed(traced_built)
    spans.calibrate()
    if model_fingerprint(traced_built, traced_outcome,
                         metrics_digest) != reference:
        problems.append("traced run diverged from the untraced run "
                        "(metrics digest or op outcome differs)")
    counters = traced_built.sim.metrics.counters()
    ops = outcome.attempted
    calls = spans.calls()
    for boundary, seen, expected, what in (
            ("Network.send", calls["Network.send"],
             counters["net.messages_sent"], "net.messages_sent"),
            ("Node.deliver", calls["Node.deliver"],
             counters["net.messages_delivered"], "net.messages_delivered"),
            ("FnSession.put/get",
             calls["FnSession.put"] + calls["FnSession.get"],
             traced_outcome.attempted, "attempted ops")):
        if seen != expected:
            problems.append(f"{boundary} wrapper saw {seen} calls but "
                            f"{what} is {expected}: a call bypassed it")
    rpc_calls = calls["ClientNode.call"]
    rpc_ok = sum(1 for future in spans.call_futures
                 if future.done and future.error is None)
    del traced_built, traced_outcome

    count_built = workloads.build(inputs)
    count_built.net.track_bytes = True
    layer_calls, profile_s = tracing.count_calls(
        lambda: workloads.drive_and_check(inputs, count_built))
    count_counters = count_built.sim.metrics.counters()
    sent_bytes = count_counters["net.bytes_sent"]
    # ``track_bytes`` adds one counter increment per message sent; those
    # calls are the measurement's, not the program's.
    layer_calls["analysis.registry"] -= count_counters["net.messages_sent"]
    del count_built

    self_s = spans.self_seconds()
    inclusive = spans.inclusive_seconds()
    checker_s = dict.fromkeys(set(tracing.CHECKER_METRICS.values()), 0.0)
    for name, metric in tracing.CHECKER_METRICS.items():
        checker_s[metric] += inclusive.get(f"repro.checkers.{name}", 0.0)
    attempts = (counters["rpc.attempts"]
                + rpc_calls - counters["rpc.calls"])
    dropped = sum(value for name, value in snapshot["counters"].items()
                  if name.startswith("net.messages_dropped_"))
    by_name = snapshot["counters"]

    def count(*names):
        return sum(by_name.get(name, 0) for name in names)

    metrics = {
        "sim.core.events_per_op": events / ops,
        "sim.network.messages_per_op": count("net.messages_sent") / ops,
        "sim.network.bytes_per_op": sent_bytes / ops,
        "sim.network.dropped_per_op": dropped / ops,
        "sim.node.queue_depth_peak":
            snapshot["gauges"].get("server.queue_depth_peak", 0.0),
        "sim.node.shed_per_op": count("server.shed") / ops,
        "rpc.attempts_per_call": attempts / rpc_calls,
        "rpc.retries_per_op": count("rpc.retries") / ops,
        "rpc.useful_ratio": rpc_ok / attempts,
        "replication.read_repairs_per_op":
            count("quorum.read_repairs", "sibling_quorum.read_repairs") / ops,
        "replication.hinted_writes_per_op":
            count("quorum.hinted_writes",
                  "sibling_quorum.hinted_writes") / ops,
        "trace.overhead_share": traced_wall / plain_wall - 1.0,
        **checker_s,
    }
    for layer in ("sim.core", "sim.network", "sim.node", "rpc",
                  "replication", "api", "workload", "histories"):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer, value in layer_calls.items():
        metrics[f"{layer}.calls_per_op"] = value / ops
    metrics = {name: metrics[name] for name in spec.per_layer_names()}

    print(f"  untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s; "
          f"wrapper cost per span {spans.inner * 1e6:.2f} us inside, "
          f"{spans.outer * 1e6:.2f} us outside (subtracted)")
    # The traced split puts unwrapped callbacks in the loop's span; the
    # count pass's cProfile self time splits by source file instead.
    # Both are printed so the one can be checked against the other.
    traced_total = sum(self_s.values())
    profile_total = sum(profile_s.values())
    print("  self-time share by layer: traced spans | cProfile (count pass)")
    for layer in sorted(set(self_s) | set(profile_s),
                        key=lambda name: -self_s.get(name, 0.0)):
        traced_share = self_s.get(layer, 0.0) / traced_total
        profile_share = profile_s.get(layer, 0.0) / profile_total
        print(f"    {layer:<18} {traced_share:6.1%} | {profile_share:6.1%}")
    return emit(not problems, 3 * ops, 3 * (outcome.failed
                                            + outcome.in_flight),
                metrics, spec.units(), problems)


def pinned_rerun(argv: list[str]) -> int:
    """Re-run this command with ``PYTHONHASHSEED=0``: call counts are
    exact only when set iteration order is fixed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv], env=env)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.trace == 1 and os.environ.get("PYTHONHASHSEED") != "0":
        return pinned_rerun(argv)
    spec, workloads, metrics_digest = import_benchmark()
    if args.workload not in spec.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{', '.join(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        seed = workloads.history_seeds(args.seed)[0]
        workloads.build(workloads.generate(args.workload, seed))
        print("ready", flush=True)
        return 0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        return per_layer(args, spec, workloads, metrics_digest)
    return end_to_end(args, spec, workloads, metrics_digest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
