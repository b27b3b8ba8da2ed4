"""Self-tests of the benchmark: seeded inputs, the output checks, metric names.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_a_seed_gives_the_same_operation_lists():
    assert gen.generate(7, 2) == gen.generate(7, 2)
    assert gen.generate(7, 2) != gen.generate(8, 2)


def test_lists_mix_kinds_in_fixed_proportions():
    for workload in gen.WORKLOADS:
        a = sorted(op.kind for op in gen.ops(workload, 1, 2))
        b = sorted(op.kind for op in gen.ops(workload, 2, 2))
        assert a == b, workload


def test_check_flags_a_flipped_digit(at_root):
    import workloads

    wl = workloads.PlanStream(workloads.tracer())
    op = next(op for op in gen.ops("plan-stream", 1, 1) if op.kind == "plan")
    good = wl.run(op)
    assert wl.check(op, good) is None
    signs = list(good.representation.signs)
    i = next(i for i, s in enumerate(signs) if s)
    signs[i] = -signs[i]
    rep = dataclasses.replace(good.representation, signs=tuple(signs))
    assert wl.check(op, dataclasses.replace(good, representation=rep)) is not None


def test_check_flags_a_wrong_oracle_answer(at_root):
    import workloads

    wl = workloads.Certify(workloads.tracer())
    op = next(op for op in gen.ops("certify", 1, 1) if op.kind == "past")
    defective, report, sums, gap_list, within = wl.run(op)
    assert wl.check(op, (defective, report, sums, gap_list, within)) is None
    assert wl.check(op, (defective, report, sums, ((0, 0),) + gap_list, within)) is not None


def test_check_flags_a_wrong_exit_code(at_root):
    import workloads

    wl = workloads.CliSession(workloads.tracer())
    op = next(op for op in gen.ops("cli-session", 1, 1) if op.kind == "validate/json")
    good = wl.run(op)
    assert wl.check(op, good) is None
    bad = subprocess.CompletedProcess(good.args, good.returncode + 1, good.stdout, good.stderr)
    assert wl.check(op, bad) is not None
    traceback = subprocess.CompletedProcess(good.args, good.returncode, good.stdout, "Traceback (most recent call last):\n")
    assert wl.check(op, traceback) is not None


def test_self_time_subtracts_children_and_components():
    S = spans.Span
    trace = [
        S(1, "bench.op", 0.0, 10.0, None, 0, None, {}),
        S(2, "bias.plan", 0.0, 6.0, 1, 0, None, {}),
        S(3, "sequence.validate", 6.0, 8.0, 1, 0, 2, {}),
    ]
    assert spans.self_times(trace) == {1: 2.0, 2: 4.0, 3: 2.0}


def test_benchmark_json_names_the_traced_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, _ in spans.LAYER_METRICS]
    assert [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)


def test_traced_run_emits_every_per_layer_metric():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "design-sweep", "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, *_ in spans.LAYER_METRICS]
    assert result["metrics"]["sequence.oracle_intervals"]["value"] == 92_099
    assert result["metrics"]["representation.targets_swept"]["value"] == 184_199
