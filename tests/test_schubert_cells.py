"""Schubert points against the contains filter and against span sets.

Each shape walks every dimension tuple alpha on flags cut from one random
invertible matrix T: the member of dimension a is the span of T's first
a rows.  The expected points come from span sets (bruteforce.py): the
span of a point meets the span of T's first k rows in q^(d_k) vectors,
its position beta has beta_i the least k with d_k >= i (1-based), and
the point lies on the variety of alpha exactly when d_(alpha_i) >= i
for every i, that is when beta <= alpha componentwise.  A twin flag
mixes T's rows inside each block that ends at a non-redundant
dimension, so it differs from the first flag only at redundant members
and must carve out the same points.  The contains filter runs over the
whole Grassmannian, or over a seeded sample of it on the two largest
shapes.
"""

import itertools
import random

import pytest

import bruteforce as bf
from qgrass.field import make_field
from qgrass.grassmann import Flag, enumerate_grassmannian, rank_subspace, unrank_subspace
from qgrass.linalg import Subspace, matmul, random_invertible
from qgrass.schubert import SchubertVariety, alpha_nc, polynomial_value

# (p, e, m, l)
SHAPES = [
    (2, 1, 4, 2),
    (2, 1, 5, 2),
    (2, 1, 6, 3),
    (3, 1, 4, 2),
    (3, 1, 5, 2),
    (3, 1, 6, 3),
    (2, 2, 4, 2),
    (3, 2, 4, 2),
]
FILTER_SAMPLE = 1500


def _flag(gf, m, alpha, rows):
    members = tuple(Subspace.from_rows(gf, rows[:a], ambient=m) for a in alpha)
    return Flag(gf, m, alpha, members)


def _twin_rows(gf, alpha, T, rng):
    """T with the rows of each block (lo, hi] mixed, hi non-redundant."""
    rows = [list(row) for row in T]
    lo = 0
    for hi in alpha_nc(alpha):
        rows[lo:hi] = matmul(gf, random_invertible(gf, hi - lo, rng), rows[lo:hi])
        lo = hi
    return rows


@pytest.mark.parametrize("p,e,m,l", SHAPES)
def test_points_match_the_filter_and_span_sets(p, e, m, l):
    gf, ref = make_field(p, e), bf.cached_field(p, e)
    q = gf.q
    rng = random.Random(1000 * q + 10 * m + l)
    grass = list(enumerate_grassmannian(gf, m, l))
    assert [(W.basis, W.pivots) for W in grass] == [
        (V.basis, V.pivots) for V in (unrank_subspace(gf, m, l, r) for r in range(len(grass)))
    ]
    T = random_invertible(gf, m, rng)
    members = [bf.span_set(T[:k], ref, m) for k in range(1, m + 1)]
    by_position = {}
    for W in grass:
        span = bf.span_set(W.basis, ref, m)
        meets = [bf.span_dim(span & M, q) for M in members]
        beta = tuple(meets.index(i) + 1 for i in range(1, l + 1))
        by_position.setdefault(beta, set()).add(W)
    sample = grass if len(grass) <= FILTER_SAMPLE else rng.sample(grass, FILTER_SAMPLE)
    for alpha in itertools.combinations(range(1, m + 1), l):
        want = set().union(
            *(pts for beta, pts in by_position.items() if all(b <= a for b, a in zip(beta, alpha)))
        )
        omega = SchubertVariety(_flag(gf, m, alpha, T))
        pts = list(omega.points())
        ranks = [rank_subspace(W) for W in pts]
        assert ranks == sorted(set(ranks)), alpha
        assert set(pts) == want, alpha
        assert len(pts) == polynomial_value(omega.count_polynomial(), q), alpha
        assert {W for W in sample if omega.contains(W)} == want.intersection(sample), alpha
        if alpha_nc(alpha) != alpha:
            twin = SchubertVariety(_flag(gf, m, alpha, _twin_rows(gf, alpha, T, rng)))
            assert twin.point_set() == want, alpha
