"""Alternate benchmark passes of two checkouts' packages in one process.

Two runs of the same code in two processes can read far apart on a
shared host, so a small gain between a parent and a change hides in the
spread of separate runs.  This tool takes that spread out: it imports
each checkout's ``src/qgrass`` under a name of its own
(``qgrass_parent``, ``qgrass_change``), builds one task list with the
change checkout's ``perfbench/tasks.py``, and runs that list in passes,
parent and change in turn, in the same process.  The parent goes first
on even passes and the change on odd ones.  Pass 0 is untimed: it fills
the caches both sides build per shape.

Every task must print the same stdout and return the same exit code on
both sides and on every pass; the first difference stops the tool with
a message naming the task.  The report gives each side's median pass
time (the sum of its task times), how many passes the change won, and
each task's fastest time on each side:

    python3 tools/ab_passes.py PARENT CHANGE --workload fields --seed 11 --passes 60

``perfbench/run.py`` stays the benchmark; this tool is for sizing a
change before its runs.  It needs only the standard library, writes the
task inputs to a temporary directory it removes, and sits outside
tests/, so the suite never collects it.
"""

import argparse
import importlib
import importlib.util
import io
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

SIDES = ("parent", "change")


def load_cli(checkout, name):
    """checkout's src/qgrass imported as the package name; its cli module."""
    init = Path(checkout) / "src" / "qgrass" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def load_tasks(checkout):
    """checkout's perfbench/tasks.py, importing its own checks and qgrass."""
    for path in ("src", "perfbench"):
        sys.path.insert(0, str(Path(checkout) / path))
    spec = importlib.util.spec_from_file_location("ab_passes_tasks", Path(checkout) / "perfbench" / "tasks.py")
    tasks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tasks)
    return tasks


def run_task(cli, task):
    """One task: (seconds, stdout, exit code)."""
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(list(task.argv))
    return time.perf_counter() - start, out.getvalue(), rc


def run_passes(clis, tasks, passes):
    """Per side, the task times of each timed pass, after one untimed pass.

    Pass 0 is untimed; the parent goes first on even passes.  Every
    output is held against its task's first one.
    """
    expected = [None] * len(tasks)
    times = {side: [] for side in SIDES}
    for i in range(passes + 1):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            row = []
            for j, task in enumerate(tasks):
                seconds, *got = run_task(clis[side], task)
                if expected[j] is None:
                    expected[j] = got
                elif got != expected[j]:
                    raise SystemExit(f"{side}: task {task.label!r} printed or returned something else on pass {i}")
                row.append(seconds)
            if i:
                times[side].append(row)
    return times


def report(times, labels):
    """The report's lines: pass-sum medians, wins, then per-task minima."""
    sums = {side: [sum(row) for row in times[side]] for side in SIDES}
    mins = {side: [min(col) for col in zip(*times[side])] for side in SIDES}
    mp, mc = median(sums["parent"]), median(sums["change"])
    wins = sum(c < p for p, c in zip(sums["parent"], sums["change"]))
    tp, tc = sum(mins["parent"]), sum(mins["change"])
    lines = [
        f"{len(sums['parent'])} pairs of passes, {len(labels)} tasks each, identical outputs.",
        f"pass-sum median: parent {1e3 * mp:.2f} ms, change {1e3 * mc:.2f} ms (x{mp / mc:.3f}); "
        f"change faster in {wins}/{len(sums['parent'])} pairs.",
        f"per-task minima, summed: parent {1e3 * tp:.2f} ms, change {1e3 * tc:.2f} ms (x{tp / tc:.3f}).",
    ]
    for label, p, c in zip(labels, mins["parent"], mins["change"]):
        lines.append(f"  {1e3 * p:9.3f} -> {1e3 * c:9.3f} ms  x{p / c:.3f}  {label}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change; its perfbench/tasks.py builds the tasks")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=20, help="timed passes per side")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    clis = {side: load_cli(getattr(args, side), f"qgrass_{side}") for side in SIDES}
    tasks = load_tasks(args.change)
    with tempfile.TemporaryDirectory() as workdir:
        fields = tasks.build_fields(args.workload)
        task_list = tasks.build_tasks(args.workload, args.seed, workdir, fields)
        times = run_passes(clis, task_list, args.passes)
    print(f"`{args.workload}` seed {args.seed}:")
    print("\n".join(report(times, [task.label for task in task_list])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
