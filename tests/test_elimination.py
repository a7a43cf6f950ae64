"""Differential tests of the elimination kernel and of membership by rank.

Prime fields are checked entry for entry against the textbook
elimination in bruteforce.py (test_linalg.test_rref_matches_naive).
Here extension fields, small and beyond order 256, are checked for the
structural RREF invariants and for q^rank being the size of the span
enumerated from every coefficient tuple.  The pivot columns that rank
and pivot tests read without an RREF are checked against the leading
positions of span sets, on every short list of rows over small fields,
and each field's row subtraction against the reference arithmetic.
Membership is checked on whole Grassmannians against intersections of
span sets.
"""

import functools
import itertools
import random

import pytest

import bruteforce as bf
from qgrass.field import make_field
from qgrass.grassmann import enumerate_grassmannian, random_flag
from qgrass.linalg import Subspace, _pivots, intersection_dim, random_matrix, rref
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


def _leading_positions(span):
    """The sorted first nonzero positions of the vectors of a span set."""
    return tuple(sorted({next(i for i, x in enumerate(v) if x) for v in span if any(v)}))


def _assert_pivots(gf, rows, leading):
    """_pivots(gf, rows) is the span's leading positions; list rows stay as they were."""
    before = [list(row) for row in rows] if type(rows) is list else None
    pivots = _pivots(gf, rows)
    assert type(pivots) is tuple and pivots == leading
    if before is not None:
        assert rows == before and all(type(row) is list for row in rows)


@pytest.mark.parametrize(
    "p,e,m",
    [pytest.param(2, 1, 4, id="GF2-m4"), pytest.param(3, 1, 3, id="GF3-m3"), pytest.param(2, 2, 3, id="GF4-m3")],
)
def test_pivots_match_span_sets_on_every_short_list(p, e, m):
    """Every list of one to three rows, zero and dependent rows included.

    The span of a list is the span of its first rows' span and its last
    row, so span_set runs once per (span, row), not once per list.  Odd
    lists are passed as lists of lists, even ones as tuples of tuples.
    """
    gf = make_field(p, e)
    field = p if e == 1 else bf.cached_field(p, e)
    vectors = list(itertools.product(range(gf.q), repeat=m))
    # (span of the head, last row), and each list of fewer than 3 rows,
    # to the list's (span, leading positions)
    found = {}

    def oracle(rows):
        key = (found[rows[:-1]][0] if len(rows) > 1 else None, rows[-1])
        if key not in found:
            span = bf.span_set(rows, field, m)
            found[key] = span, _leading_positions(span)
        if len(rows) < 3:
            found[rows] = found[key]
        return found[key][1]

    count = 0
    for nrows in (1, 2, 3):
        for rows in itertools.product(vectors, repeat=nrows):
            leading = oracle(rows)
            _assert_pivots(gf, [list(row) for row in rows] if count % 2 else rows, leading)
            count += 1
    assert count == sum(len(vectors) ** k for k in (1, 2, 3))


@pytest.mark.parametrize("p,e", [pytest.param(3, 2, id="GF9"), pytest.param(7, 3, id="GF343")])
def test_pivots_match_span_sets_on_sampled_rows(p, e):
    """Random short lists over larger fields, with zero, scaled and summed rows.

    Over GF(343) span_set lists q^2 vectors per row after a plane, so
    rows there span at most a plane, and only a line has a third row.
    Each list is passed as lists and as tuples.
    """
    gf = make_field(p, e)
    field = bf.cached_field(p, e)
    rng = random.Random(59 * p + e)
    if gf.q < 100:
        cases = [_random_rows(gf, rng, 3, 3) for _ in range(40)]
    else:
        a, b = random_matrix(gf, 2, 3, rng)
        c = rng.randrange(2, gf.q)  # not 1, so c * a is another row
        cases = [[a], [[0, 0, 0], a], [a, gf.mul(c, a), [0, 0, 0]], [a, b]]
    for rows in cases:
        leading = _leading_positions(bf.span_set(rows, field, len(rows[0])))
        _assert_pivots(gf, rows, leading)
        _assert_pivots(gf, tuple(map(tuple, rows)), leading)


@pytest.mark.parametrize(
    "p,e,m,samples",
    [(2, 1, 4, None), (3, 1, 3, None), (2, 2, 3, None), (3, 2, 3, 2000), (7, 3, 3, 2000)],
)
def test_sub_row_returns_a_list_matching_the_oracle(p, e, m, samples):
    """row - f * piv, from list or tuple rows, is a new list equal to the reference."""
    gf = make_field(p, e)
    q, add, mul = bf._arithmetic(p if e == 1 else bf.cached_field(p, e))
    if samples is None:
        vectors = list(itertools.product(range(q), repeat=m))
        triples = itertools.product(vectors, range(1, q), vectors)
    else:
        rng = random.Random(61 * p + e)
        triples = [
            (tuple(random_matrix(gf, 1, m, rng)[0]), rng.randrange(1, q), tuple(random_matrix(gf, 1, m, rng)[0]))
            for _ in range(samples)
        ]
    minus_one = p - 1  # the code of -1 is the constant p - 1
    for row, f, piv in triples:
        want = [add(x, mul(minus_one, mul(f, y))) for x, y in zip(row, piv)]
        for args in ((row, piv), (list(row), list(piv))):
            got = gf._sub_row(args[0], f, args[1])
            assert type(got) is list and got == want
            assert got is not args[0] and tuple(args[0]) == row
