"""The README's examples run: the Python block under "## Library", and every line of the "## CLI" block."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from nims import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of the language under the heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"^```{language}\n(.*?)^```$", section, re.S | re.M).group(1)


CLI_LINES = [shlex.split(line, comments=True) for line in _block("CLI", "sh").splitlines() if line.strip()]


def test_the_library_example_runs():
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})


def test_every_cli_line_is_a_nims_command():
    assert CLI_LINES and all(argv[0] == "nims" for argv in CLI_LINES)


@pytest.mark.parametrize("argv", CLI_LINES, ids=[" ".join(argv[1:]) for argv in CLI_LINES])
def test_the_cli_example_exits_0(argv, monkeypatch):
    # the device path in the examples is relative to the repository root
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv(cli.ENV_CAP, raising=False)
    result = cli.run(argv[1:])
    assert result.exit_code == 0, result.text
