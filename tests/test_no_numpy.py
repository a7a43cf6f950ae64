"""The package runs on the standard library alone.

Each check runs in a fresh interpreter, so no earlier import in the test
session can hide a dependency.  With sys.modules["numpy"] set to None
any attempt to import numpy raises ImportError.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

BLOCKED_RUN = """
import io, json, sys
from contextlib import redirect_stdout
sys.modules["numpy"] = None
from qgrass import cli

def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(list(argv))
    assert rc == 0, (argv, rc)
    return out.getvalue()

workdir = sys.argv[1]
report = json.loads(run("verify", "redundancy", "--q", "2", "--m", "4", "--l", "2", "--flags-per-alpha", "1"))
assert report["verdict"] == "pass" and report["cases_tested"] == 210, report
census = json.loads(run("census", "--q", "2", "--m", "3", "--alpha", "1,3", "--oracle", "full"))
assert census["oracle_checked"] == 168 and not census["mismatches"], census
points = json.loads(run("points", "--q", "9", "--m", "3", "--l", "1"))
assert points["count"] == len(points["points"]) == 91
flag, tau = workdir + "/flag.json", workdir + "/map.json"
run("gen-flag", "--q", "343", "--m", "2", "--alpha", "1", "--seed", "5", "-o", flag)
run("gen-map", "--q", "343", "--m", "2", "--seed", "5", "-o", tau)
doc = json.load(open(tau))
doc["frobenius_power"] = 1
json.dump(doc, open(tau, "w"))
verdict = json.loads(run("aut-check", tau, flag, "--both"))
assert verdict["agree"], verdict
print("ok")
"""


def _python(code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


def test_runs_without_numpy(tmp_path):
    proc = _python("import sys, qgrass; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    proc = _python(BLOCKED_RUN, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "ok"
