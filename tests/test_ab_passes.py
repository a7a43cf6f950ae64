"""tools/ab_passes.py alternates two packages' passes and holds their outputs equal.

The checkouts are fake: a package whose cli.main prints its argv and
logs its side, and a perfbench/tasks.py with three tasks, so nothing of
qgrass runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_passes.py"
spec = importlib.util.spec_from_file_location("ab_passes", TOOL)
ab_passes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_passes)

CLI = """
def main(argv):
    with open({log!r}, "a") as fh:
        fh.write({side!r} + " " + argv[-1] + "\\n")
    print("ran", *argv)
    {extra}
    return 0
"""

TASKS = """
from collections import namedtuple

Task = namedtuple("Task", "label argv")


def build_fields(workload):
    return {}


def build_tasks(workload, seed, workdir, fields):
    return [Task(f"task {i}", (workload, str(seed), str(i))) for i in range(3)]
"""


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    """make(extra) writes fake parent and change checkouts, extra a last statement of the parent's main."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    log = tmp_path / "log"

    def make(extra="pass"):
        for side in ("parent", "change"):
            package = tmp_path / side / "src" / "qgrass"
            package.mkdir(parents=True)
            (package / "__init__.py").write_text("")
            fill = extra if side == "parent" else "pass"
            (package / "cli.py").write_text(CLI.format(log=str(log), side=side, extra=fill))
        (tmp_path / "change" / "perfbench").mkdir()
        (tmp_path / "change" / "perfbench" / "tasks.py").write_text(TASKS)
        return [str(tmp_path / "parent"), str(tmp_path / "change")]

    yield make, log
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_passes_alternate_and_the_report_names_every_task(checkouts, capsys):
    make, log = checkouts
    assert ab_passes.main([*make(), "--workload", "w", "--seed", "5", "--passes", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 pairs of passes, 3 tasks each, identical outputs." in out
    assert "change faster in " in out and "/2 pairs." in out
    assert [line.split("  ")[-1] for line in out.splitlines()[-3:]] == ["task 0", "task 1", "task 2"]
    # pass 0 is untimed; the parent goes first on even passes
    sides = [line.split()[0] for line in log.read_text().splitlines()]
    parent, change = ["parent"] * 3, ["change"] * 3
    assert sides == parent + change + change + parent + parent + change


@pytest.mark.parametrize(
    "extra,task",
    [('if argv[-1] == "1": print("!")', "task 1"), ('if argv[-1] == "2": return 1', "task 2")],
)
def test_a_side_that_prints_or_returns_something_else_stops_the_tool(checkouts, capsys, extra, task):
    make, _ = checkouts
    with pytest.raises(SystemExit) as stop:
        ab_passes.main([*make(extra), "--workload", "w", "--seed", "5", "--passes", "1"])
    # the parent runs first, so the change is the side that differs
    assert str(stop.value).startswith(f"change: task {task!r} ")
    assert capsys.readouterr().out == ""


def test_fewer_than_one_pass_is_refused(checkouts, capsys):
    make, _ = checkouts
    with pytest.raises(SystemExit):
        ab_passes.main([*make(), "--workload", "w", "--seed", "5", "--passes", "0"])
    assert "--passes must be at least 1" in capsys.readouterr().err
