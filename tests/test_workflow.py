"""The CI workflow and the test configuration.

The workflow parses as YAML, each of its steps runs a command or uses an
action, none greps the source, and it installs the test extra that
pyproject.toml names, and its benchmark smoke runs cover every workload;
the suite's warning filter lets a failing Hypothesis test report its
falsifying example.
"""

from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
PYPROJECT = ROOT / "pyproject.toml"
BENCHMARK = ROOT / "BENCHMARK.json"
# a grep over src or scripts: the source rules live in tests/test_structure.py, which every tier-1 run checks
SOURCE_GREP = re.compile(r"\bgrep\b.*\s(src|scripts)\b")


def test_every_ci_step_runs_or_uses_something():
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step, dict) and ("run" in step or "uses" in step), step
        assert not SOURCE_GREP.search(step.get("run", "")), step


def test_the_source_grep_pattern_finds_a_grep_over_the_source():
    assert SOURCE_GREP.search("if grep -rnE '^\\s*assert\\b' src scripts; then exit 1; fi")
    assert SOURCE_GREP.search("if grep -rnE --exclude=sequence.py 'capable: |\\b(_report)\\b' src; then exit 1; fi")
    assert not SOURCE_GREP.search('echo "$name: $(tail -n 1 "$out")"')
    assert not SOURCE_GREP.search("PYTHONPATH=src python -m pytest -q")


def test_ci_installs_the_test_extra():
    # the CI step and pyproject.toml's test extra name one list of packages
    tomllib = pytest.importorskip("tomllib")
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    (step,) = [s for job in doc["jobs"].values() for s in job["steps"] if s.get("name") == "Install test dependencies"]
    command = shlex.split(step["run"])
    assert command[:4] == ["python", "-m", "pip", "install"], step
    extra = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["optional-dependencies"]["test"]
    assert sorted(command[4:]) == sorted(extra)


def test_the_smoke_runs_cover_every_workload():
    # each smoke run checks a workload's outputs against bench/ref.py; deleting one must fail here
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    (step,) = [s for job in doc["jobs"].values() for s in job["steps"] if s.get("name") == "Benchmark smoke runs"]
    script = step["run"]
    assert 'for flag in "" -O; do' in script, script
    plain, optimized = [runs.split() for runs in re.findall(r'runs="([^"]*)"', script)]
    assert f'if [ -n "$flag" ]; then runs="{" ".join(optimized)}"; fi' in script, script
    workloads = [w["name"] for w in json.loads(BENCHMARK.read_text(encoding="utf-8"))["workloads"]]
    assert {f"{name}:1" for name in workloads} <= set(plain)
    assert {"certify:4", "design-sweep:2", "plan-stream:2"} <= set(plain)
    # cli-session's children start without -O whatever flag the bench runs under, so it runs plain only
    assert optimized == [run for run in plain if not run.startswith("cli-session:")]


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # where libcst is installed, Hypothesis imports it to report a failure, and its import
    # warns; the suite's warning filter must let the report through, not end the run
    (tmp_path / "test_planted.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 5\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example: test_fails(" in output
    assert "INTERNALERROR" not in output
