"""The image walk of schubert._images_within against the set formulations.

The oracles (is_automorphism_oracle, equal_oracle and the dual-image
campaign's comparison) walk the cells of a variety's image and test
each walked point by its end positions in the target's adapted basis.
Here each answer is compared with the one point sets give, computed in
the test: all(tau(W) in pts for W in pts), o1.point_set() ==
o2.point_set() and image.point_set() == {tau(W) for W in pts}.  The
position test itself is compared with contains and with span sets
(bruteforce.py), and the dual cells with the annihilators of each
cell's points.

The walk reduces each choice of a cell's first l - 1 rows once and
tests each last row against a threshold.  The threshold lemma it rests
on is checked by brute force over every last pivot, and the walk
against the per-point walk it replaced, kept here as the reference:
every point's pivots by forward elimination, against target's floors.
"""

import itertools
import random

import pytest

import bruteforce as bf
from qgrass.field import make_field
from qgrass.grassmann import Flag, _walk_cell, enumerate_grassmannian, random_flag
from qgrass.group import (
    SemilinearMap,
    compose,
    enumerate_invertible,
    image_of_schubert,
    is_automorphism_oracle,
    random_semilinear,
)
from qgrass.linalg import Subspace, _identity, _inverse, _matmul, _pivots
from qgrass.schubert import (
    SchubertVariety,
    _clears,
    _floors,
    _images_within,
    _schubert_cells,
    _threshold,
    _thresholds,
    dual_index_set,
    equal_oracle,
)
from qgrass.verify import _flag_stabilizer, _member_mover, _perp_symmetric_flag, _resample_member

# (p, e, m, l, flags per alpha or None for one flag on every alpha)
SHAPES = [
    (2, 1, 4, 2, None),
    (3, 1, 4, 2, None),
    (2, 2, 4, 2, None),
    (2, 1, 5, 2, None),
    (2, 1, 6, 3, 4),
]


def _alphas(m, l, sampled, rng):
    alphas = list(itertools.combinations(range(1, m + 1), l))
    return alphas if sampled is None else rng.sample(alphas, sampled)


def _maps(omega, rng):
    """Random, stabilizing, mover, twisted and (on G(l, 2l)) contravariant maps."""
    gf, m = omega.gf, omega.m
    maps = [random_semilinear(gf, m, rng=rng), _flag_stabilizer(omega, rng)]
    mover = _member_mover(omega, rng)
    if mover is not None:
        maps.append(mover)
    for k in range(1, gf.e):
        maps.append(SemilinearMap._trusted(gf, m, random_semilinear(gf, m, rng=rng).matrix, k, False))
    if m == 2 * omega.l:
        maps.append(random_semilinear(gf, m, rng=rng, dual=True))
        maps.append(compose(SemilinearMap.perp_map(gf, m), _flag_stabilizer(omega, rng)))
    return maps


@pytest.mark.parametrize("p,e,m,l,sampled", SHAPES)
def test_the_automorphism_oracle_agrees_with_the_point_set(p, e, m, l, sampled):
    gf = make_field(p, e)
    rng = random.Random(100 * p + 10 * e + m)
    kinds = set()
    for alpha in _alphas(m, l, sampled, rng):
        omega = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
        pts = omega.point_set()
        for tau in _maps(omega, rng):
            want = all(tau(W) in pts for W in pts)
            assert is_automorphism_oracle(tau, omega) == want, (alpha, tau)
            kinds.add((tau.dual, tau.frobenius_power > 0, want))
    assert (False, False, True) in kinds and (False, False, False) in kinds
    if m == 2 * l:
        assert (True, False, False) in kinds
    if e > 1:
        assert (False, True, False) in kinds


@pytest.mark.parametrize("p,e,m,l", [(2, 1, 4, 2), (3, 1, 4, 2), (2, 2, 4, 2), (2, 1, 6, 3)])
def test_perp_symmetric_flags_are_kept_by_the_walk(p, e, m, l):
    gf = make_field(p, e)
    rng = random.Random(7)
    kept = 0
    for alpha in itertools.combinations(range(1, m + 1), l):
        flag = _perp_symmetric_flag(gf, m, alpha)
        if flag is None:
            continue
        omega = SchubertVariety(flag)
        tau = compose(SemilinearMap.perp_map(gf, m), _flag_stabilizer(omega, rng))
        pts = omega.point_set()
        assert all(tau(W) in pts for W in pts)
        assert is_automorphism_oracle(tau, omega)
        kept += 1
    assert kept


@pytest.mark.parametrize("p,e,m,l,sampled", SHAPES)
def test_the_equality_oracle_agrees_with_the_point_sets(p, e, m, l, sampled):
    gf = make_field(p, e)
    rng = random.Random(200 * p + 10 * e + m)
    alphas = _alphas(m, l, sampled, rng)
    seen = set()
    for alpha in alphas:
        f1 = random_flag(gf, m, alpha, rng=rng)
        others = [f1, random_flag(gf, m, alpha, rng=rng), random_flag(gf, m, rng.choice(alphas), rng=rng)]
        others += [_resample_member(f1, i, rng) for i in range(l) if alpha[i] < m]
        o1 = SchubertVariety(f1)
        for f2 in others:
            o2 = SchubertVariety(f2)
            want = o1.point_set() == o2.point_set()
            assert equal_oracle(o1, o2) == equal_oracle(o2, o1) == want, (alpha, f2.alpha)
            seen.add((f2.alpha == alpha, want))
    assert {(True, True), (True, False), (False, False)} <= seen
    lines = SchubertVariety(random_flag(gf, m, (m,), rng=rng))
    assert not equal_oracle(o1, lines) and not equal_oracle(lines, o1)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_the_dual_image_comparison_agrees_with_the_pointwise_image(p, e):
    gf = make_field(p, e)
    m = 4
    rng = random.Random(300 * p + e)
    seen = set()
    for alpha in itertools.combinations(range(1, m + 1), 2):
        omega = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
        pts = omega.point_set()
        tau, other = (random_semilinear(gf, m, rng=rng, dual=True) for _ in range(2))
        for image in (image_of_schubert(tau, omega), image_of_schubert(other, omega)):
            want = image.point_set() == {tau(W) for W in pts}
            got = image.count_points() == omega.count_points() and _images_within(
                omega, image, tau.frobenius_power, tau.matrix, tau.dual
            )
            assert got == want, alpha
            seen.add(want)
    assert seen == {True, False}


def _one_point_variety(W):
    """The variety at alpha = (1, ..., l) of a flag ending at W: W alone."""
    gf, m = W.gf, W.m
    members = tuple(Subspace.from_rows(gf, W.basis[:k], ambient=m) for k in range(1, W.dim + 1))
    return SchubertVariety(Flag(gf, m, tuple(range(1, W.dim + 1)), members))


@pytest.mark.parametrize("q", [2, 3])
def test_the_position_test_is_membership(q):
    gf = make_field(q)
    m, l = 4, 2
    rng = random.Random(q)
    points = list(enumerate_grassmannian(gf, m, l))
    spans = {W: bf.span_set(W.basis, q, m) for W in points}
    for alpha in itertools.combinations(range(1, m + 1), l):
        omega = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
        members = [bf.span_set(S.basis, q, m) for S in omega.flag.subspaces]
        on = 0
        for W in points:
            want = all(len(spans[W] & S) >= q**i for i, S in enumerate(members, 1))
            assert _images_within(_one_point_variety(W), omega) == omega.contains(W) == want
            on += want
        assert on == omega.count_points()


@pytest.mark.parametrize("q,m,l", [(2, 4, 2), (3, 4, 2), (2, 6, 3)])
def test_each_perp_cell_walks_the_annihilators_of_its_points(q, m, l):
    gf = make_field(q)
    eye = _identity(m)

    def walked(basis, rows):
        return [Subspace.from_rows(gf, list(point), ambient=m) for point in _walk_cell(gf, basis, rows)]

    def dual_pivots(pivots):
        return tuple(f for f in range(m) if m - 1 - f not in pivots)

    # a cell is read on the reversed identity, its dual cell on the identity
    top = tuple(range(m - l + 1, m + 1))  # every cell of G(l, m)
    duals = {piv: rows for piv, rows, _ in _schubert_cells(top, m, True)}
    total = 0
    for piv, rows, _ in _schubert_cells(top, m):
        points, annihilators = walked(eye[::-1], rows), walked(eye, duals[dual_pivots(piv)])
        assert len(set(annihilators)) == len(annihilators) == len(points)
        assert set(annihilators) == {W.perp() for W in points}
        total += len(points)
    assert total == len(list(enumerate_grassmannian(gf, m, l)))
    # below the top, the dual cells are those of the kept cells
    for alpha in itertools.combinations(range(1, m + 1), l):
        kept = {dual_pivots(piv) for piv, _, _ in _schubert_cells(alpha, m)}
        assert kept == {piv for piv, _, _ in _schubert_cells(alpha, m, True)}


@pytest.mark.parametrize("m", range(1, 9))
def test_the_dual_cells_are_the_cells_of_the_dual_tuple(m):
    # the annihilator-cell rule the contravariant oracle walks against the
    # reflected complement the fast criterion reads: two derivations that
    # share no code, so the oracle must keep its own rule
    for l in range(1, m + 1):
        for alpha in itertools.combinations(range(1, m + 1), l):
            assert _schubert_cells(alpha, m, True) == _schubert_cells(dual_index_set(alpha, m), m)


@pytest.mark.parametrize("m", range(1, 8))
def test_a_last_pivot_clears_the_floors_exactly_from_the_threshold_up(m):
    for l in range(1, m + 1):
        for alpha in itertools.combinations(range(1, m + 1), l):
            floors = tuple(m - a for a in reversed(alpha))
            assert _floors(alpha, m) == floors
            table = _thresholds(floors, m)
            assert len(table) == len(list(itertools.combinations(range(m), l - 1)))
            for k in range(l):
                for P in itertools.combinations(range(m), k):
                    thr = _threshold(P, floors, m)
                    for p in range(m):
                        clears = all(c >= f for c, f in zip(sorted(P + (p,)), floors))
                        assert (p not in P and clears) == (p not in P and p >= thr), (alpha, P, p)
                    if k == l - 1:
                        assert table[sum(1 << c for c in P)] == thr


def _pointwise_within(omega, target, frobenius_power=0, matrix=None, dual=False):
    """The per-point walk _images_within replaced: every point's pivots, one by one."""
    gf, m = omega.gf, omega.m
    rows = omega._adapted()
    if frobenius_power:
        rows = gf.frobenius(rows, frobenius_power)
    if matrix is not None:
        rows = _matmul(gf, rows, matrix)
    rows = list(zip(*_inverse(gf, rows))) if dual else rows[::-1]
    rows = _matmul(gf, rows, [row[::-1] for row in target._adapted_inverse()])
    floors = _floors(target.alpha, m)
    return all(
        _clears(_pivots(gf, point), floors)
        for _, cell, _ in _schubert_cells(omega.alpha, m, dual)
        for point in _walk_cell(gf, rows, cell)
    )


@pytest.mark.parametrize("p,e,m", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_the_walk_matches_the_pointwise_walk_on_every_map(p, e, m):
    gf = make_field(p, e)
    rng = random.Random(400 * p + 10 * e + m)
    matrices = list(enumerate_invertible(gf, m))
    seen = set()
    for l in range(1, m + 1):
        alphas = list(itertools.combinations(range(1, m + 1), l))
        for alpha in alphas:
            omega = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
            other = SchubertVariety(random_flag(gf, m, rng.choice(alphas), rng=rng))
            duals = (False, True) if m == 2 * l else (False,)
            for target in (omega, other):
                for M in matrices:
                    for k in range(e):
                        for dual in duals:
                            want = _pointwise_within(omega, target, k, M, dual)
                            assert _images_within(omega, target, k, M, dual) == want, (alpha, M, k, dual)
                            seen.add((dual, want))
    assert seen == {(dual, want) for dual in ((False, True) if m % 2 == 0 else (False,)) for want in (False, True)}


@pytest.mark.parametrize("p,e,m,l,sampled", [*SHAPES, (3, 1, 6, 3, 5)])
def test_the_walk_matches_the_pointwise_walk_on_sampled_maps(p, e, m, l, sampled):
    gf = make_field(p, e)
    rng = random.Random(500 * p + 10 * e + m)
    alphas = list(itertools.combinations(range(1, m + 1), l))
    seen = set()
    for alpha in _alphas(m, l, sampled, rng):
        for _ in range(2):
            omega = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
            other = SchubertVariety(random_flag(gf, m, rng.choice(alphas), rng=rng))
            for tau in _maps(omega, rng):
                parts = (tau.frobenius_power, tau.matrix, tau.dual)
                for target in (omega, other):
                    want = _pointwise_within(omega, target, *parts)
                    assert _images_within(omega, target, *parts) == want, (alpha, tau)
                    seen.add((tau.dual, want))
    assert {(False, True), (False, False)} <= seen
    if m == 2 * l:
        assert (True, False) in seen
