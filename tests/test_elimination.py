"""Differential tests of the elimination kernel and of membership by rank.

Prime fields are checked entry for entry against the textbook
elimination in bruteforce.py (test_linalg.test_rref_matches_naive).
Here extension fields, small and beyond order 256, are checked for the
structural RREF invariants and for q^rank being the size of the span
enumerated from every coefficient tuple.  Membership is checked on whole
Grassmannians against intersections of span sets.
"""

import functools
import itertools
import random

import pytest

import bruteforce as bf
from qgrass.field import make_field
from qgrass.grassmann import enumerate_grassmannian, random_flag
from qgrass.linalg import Subspace, intersection_dim, random_matrix, rref
from qgrass.schubert import SchubertVariety


def _random_rows(gf, rng, max_rows, max_cols):
    """A random matrix, sometimes with a zero, scaled or summed row."""
    nrows = rng.randrange(1, max_rows + 1)
    ncols = rng.randrange(1, max_cols + 1)
    mat = random_matrix(gf, nrows, ncols, rng)
    if nrows > 1:
        kind = rng.randrange(4)
        if kind == 1:
            mat[rng.randrange(nrows)] = [0] * ncols
        elif kind == 2:
            mat[-1] = gf.mul(rng.randrange(1, gf.q), mat[0])
        elif kind == 3:
            mat[-1] = gf.add(mat[0], mat[1])
    return mat


@functools.lru_cache(maxsize=None)
def _add_codes(p, e):
    """add[a][b]: the sum of two codes, digit by digit mod p (no field tables)."""
    weights = [p**k for k in range(e)]
    digits = [[a // w % p for w in weights] for a in range(p**e)]
    return [
        [sum((x + y) % p * w for x, y, w in zip(da, db, weights)) for db in digits]
        for da in digits
    ]


def _span_size(gf, mat, ncols):
    """Size of the span, built from every coefficient tuple row by row."""
    add = _add_codes(gf.p, gf.e)
    span = {(0,) * ncols}
    for row in mat:
        multiples = [gf.mul(c, row) for c in range(gf.q)]
        span = {tuple(add[x][y] for x, y in zip(v, w)) for v in span for w in multiples}
    return len(span)


@pytest.mark.parametrize(
    "p,e,max_rows,max_cols,trials",
    [(2, 2, 5, 6, 60), (3, 2, 4, 6, 60), (7, 3, 2, 3, 6)],
)
def test_rref_invariants_and_span_size_over_extensions(p, e, max_rows, max_cols, trials):
    gf = make_field(p, e)
    assert (gf._tables is not None) == (gf.e > 1)
    rng = random.Random(31 * p + e)
    for _ in range(trials):
        mat = _random_rows(gf, rng, max_rows, max_cols)
        R, rk, pivots = rref(gf, mat)
        assert len(R) == len(mat) and all(len(row) == len(mat[0]) for row in R)
        assert len(pivots) == rk == Subspace.from_rows(gf, mat).dim
        assert list(pivots) == sorted(set(pivots))
        for i, c in enumerate(pivots):
            assert R[i][c] == 1
            assert sum(1 for row in R if row[c]) == 1
            assert not any(R[i][:c])
        assert not any(any(row) for row in R[rk:])
        assert rref(gf, R)[0] == R
        ncols = len(mat[0])
        assert gf.q**rk == _span_size(gf, mat, ncols) == _span_size(gf, R[:rk], ncols)


def _span_of(S, field):
    return bf.span_set(S.to_rows(), field, S.m)


@pytest.mark.parametrize(
    "p,e,m",
    # the G(2, 4) prime-field cases are named by p alone
    [
        pytest.param(2, 1, 4, id="2"),
        pytest.param(3, 1, 4, id="3"),
        pytest.param(2, 2, 4, id="4"),
        pytest.param(2, 1, 5, id="2-m5"),
    ],
)
def test_contains_matches_span_sets_on_whole_grassmannian(p, e, m):
    gf = make_field(p, e)
    field = p if e == 1 else bf.cached_field(p, e)
    l = 2
    rng = random.Random(77 + p + 10 * (e - 1) + 100 * (m - 4))
    points = [(W, _span_of(W, field)) for W in enumerate_grassmannian(gf, m, l)]
    for alpha in itertools.combinations(range(1, m + 1), l):
        for _ in range(2):
            omega = SchubertVariety(random_flag(gf, m, alpha, rng=rng.randrange(2**30)))
            # every member's condition, dim(W & S_i) >= i + 1: contains
            # reads only the non-redundant ones, the redundancy campaign
            # evaluates them all with intersection_dim
            members = [_span_of(S, field) for S in omega.flag.subspaces]
            for W, span_w in points:
                want = [bf.span_dim(span_w & s, gf.q) >= i + 1 for i, s in enumerate(members)]
                assert [intersection_dim(W, S) > i for i, S in enumerate(omega.flag.subspaces)] == want
                assert omega.contains(W) == all(want)
