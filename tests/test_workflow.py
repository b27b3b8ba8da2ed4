"""The CI workflow parses as YAML, and each of its steps runs a command or uses an action."""

from __future__ import annotations

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def test_every_ci_step_runs_or_uses_something():
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step, dict) and ("run" in step or "uses" in step), step
