"""A fixed reference computation that tracks how fast the host runs.

On a shared host the same work runs up to 1.6 times slower while a
neighbour loads the core.  The slow and fast spells last milliseconds,
and the share of time spent slow drifts over minutes and hours, so whole
runs of identical code read 20-50% apart.

``chunk_seconds()`` times a small computation of the same character as
the package (Python loops over small numpy integer arrays, and Python
integer arithmetic).  It imports nothing from qgrass, so no change to the
package moves it.  workload.py runs one chunk after every task: over a
run the chunks see the same mix of fast and slow spells as the tasks,
and their mean time says how slow the host was.  Set-up time is rescaled
the same way, by a burst of chunks right after set-up.
"""

import random
import time

import numpy as np

P = 7
SIZE = 6
MATRICES = 8
INT_STEPS = 6000

# mean chunk time on the machine the baseline was measured on (2 vCPUs of a
# shared Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4); run times are
# rescaled to this speed
REFERENCE_CHUNK_S = 0.002

_INV = [0] + [pow(a, P - 2, P) for a in range(1, P)]
_INPUTS = [
    np.array([[rng.randrange(P) for _ in range(SIZE + 2)] for _ in range(SIZE)], dtype=np.int64)
    for rng in map(random.Random, range(MATRICES))
]


def _rref_rank(mat):
    """Row reduction mod P, written the way the package's kernels are."""
    R = mat.copy()
    nrows, ncols = R.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        pv = int(R[r, c])
        if pv != 1:
            R[r] = (_INV[pv] * R[r]) % P
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            R[others] = (R[others] - R[others, c][:, None] * R[r][None, :]) % P
        r += 1
    return r + int(R.sum())


def reference_work():
    """The fixed computation; returns a checksum so that nothing is skipped."""
    total = sum(_rref_rank(mat) for mat in _INPUTS)
    acc = 0
    for a in range(1, INT_STEPS):
        acc = (acc * 31 + _INV[a % P] * a) % 1000003
    return total + acc


EXPECTED = reference_work()


def chunk_seconds():
    """Wall time of one run of the reference computation.

    An untimed run first brings its code and data back into the caches,
    so the timed run does not depend on what the task before it evicted.
    """
    reference_work()
    start = time.perf_counter()
    result = reference_work()
    elapsed = time.perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError("the reference computation changed its result")
    return elapsed
