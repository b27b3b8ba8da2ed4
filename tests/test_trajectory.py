"""The committed benchmark trajectory: every BENCH_*.json at the root records clean runs.

Each file holds alternating parent/change pairs of bench/run.py results. A
file from a run where an operation failed or a check did not hold would
make its medians meaningless, so it must not land.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FILES = sorted(REPO.glob("BENCH_*.json"))


def test_the_trajectory_is_not_empty():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_a_trajectory_file_records_clean_runs(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch("[0-9a-f]{40}", doc["parent"])
    assert doc["runs"]
    for run in doc["runs"]:
        assert run["summary"]
        for workload, summary in run["summary"].items():
            assert summary["all_correct"] is True, workload
            assert summary["failed"] == {"parent": 0, "change": 0}, workload
        for entry in run["raw"]:
            result = json.loads(entry["result"])
            assert result["correct"] is True and result["failed"] == 0, entry
