"""The CI workflow parses as YAML, each of its steps runs a command or uses an action, and none greps the source."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"
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
