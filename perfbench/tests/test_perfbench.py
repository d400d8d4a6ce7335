"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They run the workloads at a twentieth of their size, so they check the
benchmark's plumbing, not its numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import run, spec, tracing, workloads  # noqa: E402
from repro.checkers import Verdict  # noqa: E402
from repro.perf.harness import metrics_digest  # noqa: E402
from repro.sim import network as sim_network  # noqa: E402
from repro.sim.node import Node  # noqa: E402

SCALE = 0.05


def _args(workload: str, seed: int, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=seed, seconds=0.0,
                              trace=trace, setup_only=False)


def _run(capsys, workload: str, seed: int, trace: int) -> tuple[int, dict]:
    mode = run.per_layer if trace else run.end_to_end
    code = mode(_args(workload, seed, trace), spec, workloads,
                metrics_digest, scale=SCALE)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_document()


def test_every_name_and_unit_is_well_formed():
    doc = spec.benchmark_document()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_PATTERN.fullmatch(name), name
        assert len(name) <= 64
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert len(metric["unit"]) <= 16
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert "setup_s" in spec.end_to_end_names()
    assert max(b for *_, b in spec.END_TO_END) == dict(
        (n, b) for n, _, _, b in spec.END_TO_END)["setup_s"]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_seed_changes_inputs_not_metric_names(capsys, workload):
    assert not set(workloads.history_seeds(1)) & set(
        workloads.history_seeds(2))
    first = workloads.generate(workload, 1, SCALE)
    second = workloads.generate(workload, 2, SCALE)
    assert first.ops != second.ops
    assert workloads.generate(workload, 1, SCALE).ops == first.ops
    if workload == "openloop_siblings_faults":
        assert first.arrivals != second.arrivals
        assert first.plan != second.plan
    for trace, names in ((0, spec.end_to_end_names()),
                         (1, spec.per_layer_names())):
        results = [_run(capsys, workload, seed, trace) for seed in (1, 2)]
        for code, result in results:
            assert code == 0 and result["correct"]
            assert list(result["metrics"]) == names
        values = [r["metrics"]["sim.network.messages_per_op" if trace
                              else "sim_read_p50_ms"]["value"]
                  for _, r in results]
        assert values[0] != values[1]


def test_count_passes_repeat_exactly():
    """Two pinned-hash-seed processes give identical exact counts."""
    script = (
        "import sys, json; sys.path[:0] = [{root!r}, {src!r}]\n"
        "from perfbench import tracing, workloads\n"
        "inputs = workloads.generate('openloop_siblings_faults', 7, {scale})\n"
        "workloads.drive_and_check(inputs, workloads.build(inputs))\n"
        "built = workloads.build(inputs)\n"
        "built.net.track_bytes = True\n"
        "counts, _ = tracing.count_calls(\n"
        "    lambda: workloads.drive_and_check(inputs, built))\n"
        "counts['bytes'] = built.sim.metrics.counters()['net.bytes_sent']\n"
        "counts['events'] = built.sim.events_processed\n"
        "print(json.dumps(counts))\n"
    ).format(root=ROOT, src=os.path.join(ROOT, "src"), scale=SCALE)
    env = dict(os.environ, PYTHONHASHSEED="0")
    outputs = [
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       capture_output=True, text=True, timeout=120).stdout
        for _ in range(2)
    ]
    counts = json.loads(outputs[0])
    assert outputs[0] == outputs[1]
    assert set(tracing.COUNTED_LAYERS) <= set(counts)
    assert all(counts[layer] > 0 for layer in tracing.COUNTED_LAYERS)


def test_wrapper_cost_is_taken_out_of_self_time():
    """A parent span with two children: each span loses ``inner`` from
    its own time and the parent loses ``outer`` per child."""
    spans = tracing.Spans()
    parent = spans.register("p", "outer_layer")
    child = spans.register("c", "inner_layer")
    for name_id, up, start, end in ((parent, -1, 0.0, 10.0),
                                    (child, 0, 1.0, 3.0),
                                    (child, 0, 4.0, 8.0)):
        spans.name_ids.append(name_id)
        spans.parents.append(up)
        spans.starts.append(start)
        spans.ends.append(end)
    assert spans.self_seconds() == {"outer_layer": 4.0, "inner_layer": 6.0}
    spans.inner, spans.outer = 0.25, 0.5
    assert spans.self_seconds() == {"outer_layer": 2.75, "inner_layer": 5.5}
    assert spans.inclusive_seconds() == {"p": 8.25, "c": 5.5}
    spans.calibrate(rounds=2_000, repeats=2)
    assert 0.0 < spans.inner < 1e-3 and 0.0 <= spans.outer < 1e-3


def test_wrapper_bypass_fails_loudly(capsys, monkeypatch):
    """A send through a bound method cached before the wrappers went in
    must fail the cross-check, not under-report the network layer."""
    cached_send = sim_network.Network.send

    def send(self, dst, message):
        if not self.crashed:
            cached_send(self.network, self.node_id, dst, message)

    monkeypatch.setattr(Node, "send", send)
    code, result = _run(capsys, "ycsb_a_quorum", 3, trace=1)
    assert code == 1 and not result["correct"]


def test_undecided_and_miscounted_runs_are_failures():
    outcome = workloads.Outcome(attempted=10, ok=9, failed=0, in_flight=0,
                                read_latency=None, write_latency=None)
    verdict = Verdict("linearizability", checked_ops=10)
    verdict.add("key 'user0': undecided — state budget exhausted")
    outcome.verdicts["linearizability"] = verdict
    found = workloads.problems("lin_chain_hot", outcome)
    assert any("undecided" in problem for problem in found)
    assert any("attempted 10" in problem for problem in found)


def test_unchecked_claim_is_a_failure():
    outcome = workloads.Outcome(attempted=1, ok=1, failed=0, in_flight=0,
                                read_latency=None, write_latency=None)
    assert workloads.problems("openloop_siblings_faults", outcome) == [
        "convergence: claimed but never checked"]


def test_recursion_limit_is_restored():
    before = sys.getrecursionlimit()
    with workloads.recursion_limit(spec.RECURSION_LIMIT):
        assert sys.getrecursionlimit() >= spec.RECURSION_LIMIT
    assert sys.getrecursionlimit() == before


def test_missing_program_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "spec.py", "workloads.py", "tracing.py",
                 "__init__.py"):
        (bench / name).write_text(
            open(os.path.join(ROOT, "perfbench", name)).read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb_a_quorum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
