"""Hashes depend on values alone, so they repeat from process to process.

Each probe runs in a fresh interpreter under its own PYTHONHASHSEED.  The
hashes of the package's value types, and with them the iteration order
of a point set, must come out the same under every seed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

PROBE = """
from qgrass.field import make_field
from qgrass.grassmann import random_flag
from qgrass.group import random_semilinear
from qgrass.schubert import SchubertVariety

gf = make_field(3)
flag = random_flag(gf, 4, (1, 3), rng=5)
omega = SchubertVariety(flag)
tau = random_semilinear(make_field(2, 2), 4, rng=6, dual=None)
print(hash(gf), hash(make_field(2, 2)), hash(flag[0]), hash(flag), hash(omega), hash(tau))
print([W.basis for W in omega.point_set()])
"""


def _probe(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_hashes_and_point_set_order_repeat_across_processes():
    first = _probe(0)
    assert _probe(12345) == first
    assert len(first.splitlines()[1]) > 100  # the point set was printed
