"""Every demo script must run clean and print something, and README's quick start what it says."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qgrass.cli import main

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def _quick_start_blocks():
    """The Python block and the command-line block under README's Quick start."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    python, shell = re.findall(r"```(?:python)?\n(.*?)```", section, re.S)
    return python, shell


def test_the_readme_quick_start_runs(capsys):
    python, shell = _quick_start_blocks()
    exec(python, {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["19", "(1, 1, 2, 1)"]
    lines = shell.splitlines()
    assert len(lines) == 2 and all(line.startswith("qgrass ") for line in lines)
    for line in lines:
        assert main(line.split()[1:]) == 0, line
        assert json.loads(capsys.readouterr().out)["count"] == 19, line
