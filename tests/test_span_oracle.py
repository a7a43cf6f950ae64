"""Linear algebra and semilinear maps against span sets from bruteforce.py.

Each answer is compared with literal sets of vectors built by the
package-independent arithmetic of bruteforce.PolyField (mod p on prime
fields, polynomials modulo the canonical irreducible on extensions).
GF(2), GF(3), GF(4) and GF(9) are checked on random inputs or whole
Grassmannians; GF(343) on a seeded sample whose spans stay small enough
to enumerate.
"""

import itertools
import random

import pytest

import bruteforce as bf
from qgrass.field import GF, make_field
from qgrass.grassmann import Flag, adapted_basis, enumerate_grassmannian, random_flag, random_subspace
from qgrass.group import SemilinearMap, compose, enumerate_invertible, group_order, random_semilinear
from qgrass.linalg import (
    Subspace,
    intersection_dim,
    matmul,
    matrix_inverse,
    random_invertible,
    random_matrix,
    rref,
)

SMALL = [(2, 1), (3, 1), (2, 2), (3, 2)]


_oracle = bf.cached_field


def _ints(mat):
    return [tuple(int(x) for x in row) for row in mat]


def _span(rows, ref, m):
    return bf.span_set(_ints(rows), ref, m)


def _dot(ref, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = ref.add(acc, ref.mul(x, y))
    return acc


def _product(ref, a, b):
    cols = list(zip(*_ints(b)))
    return [tuple(_dot(ref, row, col) for col in cols) for row in _ints(a)]


def _det(ref, mat):
    """Determinant by expansion along the first row."""
    mat = _ints(mat)
    if len(mat) == 1:
        return mat[0][0]
    acc = 0
    for j, x in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = ref.mul(x, _det(ref, minor))
        acc = ref.add(acc, term if j % 2 == 0 else ref.neg(term))
    return acc


def _identity(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _all_vectors(q, m):
    return itertools.product(range(q), repeat=m)


# -- elimination, products, inverses ------------------------------------------


@pytest.mark.parametrize(
    "p,e,max_rows,max_cols,trials",
    [(2, 1, 4, 5, 40), (3, 1, 4, 5, 40), (2, 2, 4, 5, 40), (3, 2, 3, 4, 30), (7, 3, 2, 3, 3)],
)
def test_rref_and_rank_match_span_sets(p, e, max_rows, max_cols, trials):
    gf, ref = make_field(p, e), _oracle(p, e)
    rng = random.Random(101 * p + e)
    for _ in range(trials):
        nrows, ncols = rng.randrange(1, max_rows + 1), rng.randrange(1, max_cols + 1)
        mat = random_matrix(gf, nrows, ncols, rng)
        if nrows > 1 and rng.randrange(2):
            mat[-1] = [ref.mul(3 % gf.q, x) for x in mat[0]]  # a dependent row
        R, rk, pivots = rref(gf, mat)
        R = _ints(R)
        span = _span(mat, ref, ncols)
        assert len(R) == nrows and all(len(row) == ncols for row in R)
        assert Subspace.from_rows(gf, mat).dim == rk == len(pivots) and gf.q**rk == len(span)
        assert _span(R[:rk], ref, ncols) == span
        assert not any(any(row) for row in R[rk:])
        for i, c in enumerate(pivots):
            assert R[i][c] == 1 and not any(R[i][:c])
            assert sum(1 for row in R if row[c]) == 1


@pytest.mark.parametrize("p,e", SMALL + [(7, 3)])
def test_matmul_matches_oracle_products(p, e):
    gf, ref = make_field(p, e), _oracle(p, e)
    rng = random.Random(7 * p + e)
    for _ in range(10):
        n, k, m = (rng.randrange(1, 6) for _ in range(3))
        a = random_matrix(gf, n, k, rng)
        b = random_matrix(gf, k, m, rng)
        assert _ints(matmul(gf, a, b)) == _product(ref, a, b)
    with pytest.raises(ValueError):
        matmul(gf, [[1, 0]], [[1, 0]])


def test_prime_matmul_at_the_largest_allowed_prime():
    p = 1048573  # the largest prime below the order bound 2^20
    gf = GF(p)
    rng = random.Random(p)
    a = [[p - 1 - rng.randrange(5) for _ in range(6)] for _ in range(6)]
    b = [[p - 1 - rng.randrange(5) for _ in range(6)] for _ in range(6)]
    want = [tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a]
    assert _ints(matmul(gf, a, b)) == want
    assert _ints(matmul(gf, [[p - 1] * 8], [[p - 1]] * 8)) == [(8,)]


@pytest.mark.parametrize("p,e", SMALL + [(7, 3)])
def test_matrix_inverse_times_input_is_identity(p, e):
    gf, ref = make_field(p, e), _oracle(p, e)
    rng = random.Random(11 * p + e)
    for n in (1, 2, 3, 4):
        mat = random_invertible(gf, n, rng)
        assert _det(ref, mat) != 0
        inv = matrix_inverse(gf, mat)
        assert _product(ref, mat, inv) == _identity(n) == _product(ref, inv, mat)
    with pytest.raises(ValueError):
        matrix_inverse(gf, [list(mat[0][:2])] * 2)


@pytest.mark.parametrize("p,e", SMALL)
def test_random_invertible_keeps_its_random_stream(p, e):
    """Entries drawn row-major, the first draw of rank n (det != 0) kept."""
    gf, ref = make_field(p, e), _oracle(p, e)
    q = gf.q
    for n in range(1, 6):
        for seed in range(20):
            rng, mirror = random.Random(seed), random.Random(seed)
            while True:
                want = [tuple(mirror.randrange(q) for _ in range(n)) for _ in range(n)]
                if _det(ref, want) != 0:
                    break
            assert _ints(random_invertible(gf, n, rng)) == want
            assert rng.getstate() == mirror.getstate()


def _mirror_invertible(ref, mirror, n):
    q = ref.q
    while True:
        mat = [tuple(mirror.randrange(q) for _ in range(n)) for _ in range(n)]
        if _det(ref, mat) != 0:
            return mat


@pytest.mark.parametrize("p,e", SMALL)
def test_every_draw_site_keeps_its_random_stream(p, e):
    """random_matrix, random_flag and random_semilinear against randrange.

    The mirror draws every code with Random.randrange and every matrix as
    the first full-rank one; each draw must give the same result and
    leave the generator in the same state.
    """
    gf, ref = make_field(p, e), _oracle(p, e)
    q = gf.q
    for m in range(1, 6):
        alphas = [
            alpha
            for size in range(1, m + 1)
            for alpha in itertools.combinations(range(1, m + 1), size)
        ]
        for seed in range(8):
            rng, mirror = random.Random(seed), random.Random(seed)

            nrows = 1 + seed % 5
            want = [tuple(mirror.randrange(q) for _ in range(m)) for _ in range(nrows)]
            assert _ints(random_matrix(gf, nrows, m, rng)) == want
            assert rng.getstate() == mirror.getstate()

            alpha = alphas[seed % len(alphas)]
            T = _mirror_invertible(ref, mirror, m)
            members = tuple(Subspace.from_rows(gf, T[:a], ambient=m) for a in alpha)
            assert random_flag(gf, m, alpha, rng=rng) == Flag(gf, m, alpha, members)
            assert rng.getstate() == mirror.getstate()

            T = _mirror_invertible(ref, mirror, m)
            k = mirror.randrange(e)
            want = SemilinearMap(gf, m, T, k, True)
            assert random_semilinear(gf, m, rng, dual=True) == want
            assert rng.getstate() == mirror.getstate()

            T = _mirror_invertible(ref, mirror, m)
            k = mirror.randrange(e)
            dual = bool(mirror.randrange(2))
            want = SemilinearMap(gf, m, T, k, dual)
            assert random_semilinear(gf, m, rng, dual=None) == want
            assert rng.getstate() == mirror.getstate()


# -- kernels, annihilators, intersections ---------------------------------------


@pytest.mark.parametrize("p,e", SMALL)
def test_kernel_and_perp_match_span_sets(p, e):
    gf, ref = make_field(p, e), _oracle(p, e)
    rng = random.Random(13 * p + e)
    n = 4 if gf.q < 9 else 3
    for _ in range(8):
        mat = random_matrix(gf, rng.randrange(1, 4), n, rng)
        want = {x for x in _all_vectors(gf.q, n) if all(_dot(ref, row, x) == 0 for row in _ints(mat))}
        A = Subspace.from_rows(gf, mat, ambient=n)
        assert _span(A.perp().basis, ref, n) == want
    assert _span(Subspace.zero(gf, n).perp().basis, ref, n) == set(_all_vectors(gf.q, n))


def test_kernel_and_perp_over_gf343():
    gf, ref = make_field(7, 3), _oracle(7, 3)
    rng = random.Random(343)
    for _ in range(4):
        mat = random_matrix(gf, 2, 3, rng)
        S = Subspace.from_rows(gf, mat)
        K = S.perp()
        assert K.dim == 3 - S.dim
        assert all(_dot(ref, row, x) == 0 for x in _span(K.basis, ref, 3) for row in mat)
        A = Subspace.from_rows(gf, mat[:1], ambient=3)
        P = A.perp()
        assert P.dim == 2 and P.perp() == A
        assert all(_dot(ref, a, x) == 0 for a in A.basis for x in P.basis)


@pytest.mark.parametrize("p,e", SMALL + [(7, 3)])
def test_intersect_matches_span_sets(p, e):
    gf, ref = make_field(p, e), _oracle(p, e)
    rng = random.Random(17 * p + e)
    m, trials = (4, 12) if gf.q <= 9 else (3, 2)
    for _ in range(trials):
        U = random_subspace(gf, m, 2, rng)
        V = random_subspace(gf, m, rng.randrange(1, 3), rng)
        got = U & V
        assert got == U.intersect(V)
        assert _span(got.basis, ref, m) == _span(U.basis, ref, m) & _span(V.basis, ref, m)


@pytest.mark.parametrize("p,e,m", [(2, 1, 3), (3, 1, 3), (2, 2, 3), (2, 1, 4)])
def test_intersection_dim_matches_span_sets_on_every_pair(p, e, m):
    gf, ref = make_field(p, e), _oracle(p, e)
    points = [
        (W, _span(W.basis, ref, m))
        for l in range(m + 1)
        for W in enumerate_grassmannian(gf, m, l)
    ]
    for U, su in points:
        for V, sv in points:
            assert gf.q ** intersection_dim(U, V) == len(su & sv)


def test_intersection_dim_matches_span_sets_over_gf9():
    gf, ref = make_field(3, 2), _oracle(3, 2)
    rng = random.Random(9)
    m = 4
    samples = [Subspace.zero(gf, m), Subspace.full(gf, m)]
    samples += [random_subspace(gf, m, rng.randrange(m + 1), rng) for _ in range(14)]
    spans = [_span(W.basis, ref, m) for W in samples]
    for U, su in zip(samples, spans):
        for V, sv in zip(samples, spans):
            assert gf.q ** intersection_dim(U, V) == len(su & sv)


# -- semilinear maps -------------------------------------------------------------


def _image_set(ref, tau, W):
    """tau(W) from span sets: Frobenius, matrix, then the annihilator."""
    m, k = tau.m, tau.frobenius_power
    M = _ints(tau.matrix)
    image = {
        tuple(_dot(ref, [ref.frobenius(x, k) for x in v], col) for col in zip(*M))
        for v in _span(W.basis, ref, m)
    }
    if not tau.dual:
        return image
    image.discard((0,) * m)
    return {x for x in _all_vectors(ref.q, m) if all(_dot(ref, x, y) == 0 for y in image)}


def _maps(gf, m, rng):
    k = 1 if gf.e > 1 else 0
    return [
        SemilinearMap(gf, m, random_invertible(gf, m, rng), k, dual)
        for dual in (False, True)
    ]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_semilinear_maps_match_span_sets_on_whole_g24(p, e):
    gf, ref = make_field(p, e), _oracle(p, e)
    maps = _maps(gf, 4, random.Random(19 * p + e))
    for W in enumerate_grassmannian(gf, 4, 2):
        for tau in maps:
            assert _span(tau(W).basis, ref, 4) == _image_set(ref, tau, W)


@pytest.mark.parametrize("p,e,m,points", [(3, 2, 4, 12), (7, 3, 2, 1)])
def test_semilinear_maps_match_span_sets_on_a_sample(p, e, m, points):
    gf, ref = make_field(p, e), _oracle(p, e)
    rng = random.Random(23 * p + e)
    maps = _maps(gf, m, rng)
    for _ in range(points):
        W = random_subspace(gf, m, m // 2, rng)
        for tau in maps:
            assert _span(tau(W).basis, ref, m) == _image_set(ref, tau, W)


@pytest.mark.parametrize("p,e", SMALL)
def test_compose_and_inverse_point_by_point(p, e):
    gf = make_field(p, e)
    rng = random.Random(29 * p + e)
    maps = _maps(gf, 4, rng) + [SemilinearMap.identity(gf, 4), SemilinearMap.perp_map(gf, 4)]
    points = list(enumerate_grassmannian(gf, 4, 2))
    if len(points) > 130:
        points = rng.sample(points, 60)
    for a, b in itertools.product(maps, repeat=2):
        ab = compose(a, b)
        assert ab == a * b
        for W in points:
            assert ab(W) == a(b(W))
    for a in maps:
        inv = a.inverse()
        for W in points:
            assert inv(a(W)) == W and a(inv(W)) == W


# -- flags and the group ----------------------------------------------------------


@pytest.mark.parametrize("p,e,m,alpha", [(2, 1, 4, (1, 3)), (3, 1, 4, (2, 3)), (2, 2, 4, (1, 2, 4)), (3, 2, 3, (1, 2)), (7, 3, 3, (1, 3))])
def test_adapted_basis_prefixes_span_the_flag(p, e, m, alpha):
    gf, ref = make_field(p, e), _oracle(p, e)
    rng = random.Random(31 * p + e)
    for _ in range(5 if gf.q <= 9 else 2):
        flag = random_flag(gf, m, alpha, rng=rng)
        B = _ints(adapted_basis(flag))
        assert len(B) == m and _det(ref, B) != 0
        for a, S in zip(alpha, flag.subspaces):
            if a < m:  # the determinant already covers the whole space
                assert _span(B[:a], ref, m) == _span(S.basis, ref, m)


@pytest.mark.parametrize("p,e", SMALL)
def test_enumerate_invertible_covers_gl2(p, e):
    gf, ref = make_field(p, e), _oracle(p, e)
    mats = [tuple(_ints(M)) for M in enumerate_invertible(gf, 2)]
    assert len(mats) == len(set(mats)) == group_order(gf.q, 2)
    assert all(_det(ref, M) != 0 for M in mats)
