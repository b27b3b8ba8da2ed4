"""The reproduction scripts print the same bytes they printed when pinned."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SCRIPTS = {
    "compare_logics": ["compare_logics.py"],
    "design_3v_array": ["design_3v_array.py"],
    "defect_survey": ["defect_survey.py", "--trials", "20", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_output_is_unchanged(name):
    script, *args = SCRIPTS[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"script_{name}.out").read_bytes()
