"""List the lines of src/qgrass that the tier-1 suite never runs.

Runs tier-1 (pytest on tests/) under the standard library's tracer,
``python -m trace --count --missing``, and prints, module by module,
each line of the package that the tracer marks as never executed.  It
needs only the standard library and pytest, as tier-1 does, and it sits
outside tests/, so the suite never collects it:

    python3 tools/untested_lines.py                  # the whole suite
    python3 tools/untested_lines.py tests/test_cli.py  # part of it

Code that only a subprocess runs (the tests that start python -m qgrass)
is not traced, so such lines are listed too.  The tracer slows the suite
down several times over: under it, acceptance check 01 fails its own
10 s bound.  That failure is the tracer's cost, not the program's;
tier-1 passes without the tracer, and the bound stays as it is.  The
tracer swallows pytest's exit code, so the suite's verdict is pytest's
own summary line; the exit code here is 0 once the report is printed.
"""

import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MISSING = ">>>>>> "  # the tracer's mark on a line that never ran


def untested_lines(coverdir):
    """{module: [(line number, source), ...]} from the tracer's .cover files."""
    report = {}
    for cover in sorted(Path(coverdir).glob("qgrass.*.cover")):
        lines = cover.read_text().splitlines()
        report[cover.stem] = [
            (n, line[len(MISSING):].strip()) for n, line in enumerate(lines, 1) if line.startswith(MISSING)
        ]
    return report


def main(argv):
    # the standard library and the installed packages (pytest among them)
    # are not traced, which keeps the slowdown down
    ignored = {sysconfig.get_paths()[key] for key in ("stdlib", "platstdlib", "purelib", "platlib")}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as coverdir:
        cmd = [
            sys.executable, "-m", "trace", "--count", "--missing", "--coverdir", coverdir,
            "--ignore-dir", os.pathsep.join(sorted(ignored)),
            "--module", "pytest", "-q", "-p", "no:cacheprovider", *(argv or ["tests"]),
        ]
        subprocess.run(cmd, cwd=ROOT, env=env)
        report = untested_lines(coverdir)
    if not report:
        print("the tracer wrote no report for qgrass", file=sys.stderr)
        return 1
    for module, lines in report.items():
        print(f"{module}: {len(lines)} lines never ran")
        for n, source in lines:
            print(f"  {n:4d}  {source}")
    total = sum(map(len, report.values()))
    print(f"{total} lines of src/qgrass never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
