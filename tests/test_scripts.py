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


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script, under -O when the suite itself runs under -O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, str(REPO / "scripts" / script), *args],
        capture_output=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_output_is_unchanged(name):
    proc = run_script(*SCRIPTS[name])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"script_{name}.out").read_bytes()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--min-tolerance", "x:1"], "tolerance rule at_least must be an integer, got 'x'"),
        (["--min-tolerance", "100"], "min tolerance '100' must be AT_LEAST:TOLERANCE"),
        (["--max-ratio", "0/0"], "bad max ratio '0/0'"),
        (["--max-ratio", "4"], "max_ratio must lie in (1, 3]"),
    ],
)
def test_design_script_bad_spec_is_a_usage_error(args, message):
    proc = run_script("design_3v_array.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.decode().splitlines()[-1].startswith(f"design_3v_array.py: error: {message}")


@pytest.mark.parametrize(
    "script, args, message",
    [
        (
            "design_3v_array.py",
            ["--a0", "1", "--msb-size", "8000", "--total", "8000"],
            "LSB chain alone needs 9733 junctions, above the target 8000",
        ),
        ("compare_logics.py", ["--device", "/nonexistent"], "cannot read /nonexistent: "),
        ("defect_survey.py", ["--device", "/nonexistent"], "cannot read /nonexistent: "),
    ],
    ids=["design-infeasible", "compare-missing-device", "survey-missing-device"],
)
def test_script_library_error_is_a_usage_error(script, args, message):
    proc = run_script(script, *args)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.decode().splitlines()[-1].startswith(f"{script}: error: {message}")
