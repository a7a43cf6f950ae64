import itertools
import json
import random

import pytest

import bruteforce as bf
from qgrass.field import make_field
from qgrass.grassmann import (
    enumerate_grassmannian,
    random_flag,
    random_subspace,
    rank_subspace,
    unrank_subspace,
)
from qgrass.group import SemilinearMap
from qgrass.linalg import (
    Subspace,
    matmul,
    matrix_inverse,
    random_invertible,
    random_matrix,
    rref,
)
from qgrass.schubert import SchubertVariety


def _eye(m):
    return [[int(i == j) for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_matches_naive(p):
    gf = make_field(p)
    rng = random.Random(p * 100)
    for _ in range(150):
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(1, 9)
        mat = random_matrix(gf, nrows, ncols, rng)
        if nrows > 1:
            # rank-deficient shapes: a zero row, or a multiple of another row
            kind = rng.randrange(3)
            if kind == 1:
                mat[rng.randrange(nrows)] = [0] * ncols
            elif kind == 2:
                mat[-1] = gf.mul(rng.randrange(1, p), mat[0])
        R, rk, pivots = rref(gf, mat)
        form, naive_piv = bf.naive_rref(mat, p)
        assert [len(r) for r in R] == [ncols] * nrows
        assert all(type(x) is int for r in R for x in r)
        assert rk == len(form) == Subspace.from_rows(gf, mat).dim
        assert pivots == naive_piv
        assert R[:rk] == [list(r) for r in form]
        assert not any(any(r) for r in R[rk:])


def test_rref_structure_over_gf4(gf4):
    rng = random.Random(42)
    for _ in range(30):
        mat = random_matrix(gf4, rng.randrange(1, 5), rng.randrange(1, 6), rng)
        R, rk, pivots = rref(gf4, mat)
        # idempotent and structurally reduced
        R2, rk2, piv2 = rref(gf4, R)
        assert rk2 == rk and piv2 == pivots
        assert R == R2
        for i, c in enumerate(pivots):
            assert R[i][c] == 1
            assert sum(1 for row in R if row[c]) == 1
            assert not any(R[i][:c])
        # original rows lie in the span of the reduced rows
        S = Subspace.from_rows(gf4, R[:rk], ambient=len(mat[0]))
        for row in mat:
            assert not any(S.reduce(row))


def test_row_space_is_canonical(gf3):
    rng = random.Random(9)
    for _ in range(25):
        mat = random_matrix(gf3, 3, 5, rng)
        basis = Subspace.from_rows(gf3, mat).basis
        # scale rows and shuffle; canonical basis must not move
        scrambled = [gf3.mul(rng.randrange(1, 3), row) for row in mat]
        rng.shuffle(scrambled)
        assert Subspace.from_rows(gf3, scrambled).basis == basis


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_kernel_annihilates(p, e):
    gf = make_field(p, e)
    rng = random.Random(31 * p + e)
    for _ in range(25):
        mat = random_matrix(gf, rng.randrange(1, 4), rng.randrange(1, 6), rng)
        span = Subspace.from_rows(gf, mat)
        ker = span.perp()
        assert ker.dim == len(mat[0]) - span.dim
        for vec in ker.basis:
            column = [[x] for x in vec]
            assert not any(any(row) for row in matmul(gf, mat, column))


def test_kernel_edge_cases(gf2):
    assert Subspace.from_rows(gf2, _eye(4)).perp().dim == 0
    assert Subspace.from_rows(gf2, [[0] * 4] * 2).perp().dim == 4


def test_matmul_matches_naive(gf4):
    rng = random.Random(5)
    a = random_matrix(gf4, 3, 4, rng)
    b = random_matrix(gf4, 4, 2, rng)
    out = matmul(gf4, a, b)
    for i in range(3):
        for j in range(2):
            acc = 0
            for k in range(4):
                acc = gf4.add(acc, gf4.mul(a[i][k], b[k][j]))
            assert out[i][j] == acc
    with pytest.raises(ValueError):
        matmul(gf4, a, a)


@pytest.mark.parametrize(
    "a,message",
    [([[1, 0], [1, 0, 1]], "row 1 of length 3 times 2 rows"), ([[1], [1, 0]], "row 0 of length 1 times 2 rows")],
)
def test_matmul_names_the_ragged_row(gf2, a, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        matmul(gf2, a, _eye(2))


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2)])
def test_matmul_takes_only_int_codes_in_either_factor(p, e):
    gf = make_field(p, e)
    for bad in (1.5, 5, -1, True, "1"):
        with pytest.raises(ValueError, match=rf"^entries must be codes in \[0, {gf.q}\)$"):
            matmul(gf, [[bad, 0]], _eye(2))
        with pytest.raises(ValueError, match=rf"^entries must be codes in \[0, {gf.q}\)$"):
            matmul(gf, _eye(2), [[1, 0], [bad, 1]])
    assert matmul(gf, (), _eye(2)) == [] and matmul(gf, [[]], []) == [[]]
    # a flat vector is no 2 x 2 factor, though it has two entries
    with pytest.raises(ValueError, match="^expected a 2-d matrix of codes$"):
        matmul(gf, [[1, 0]], [1, 0])


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 2), (3, 2)])
def test_matrix_inverse(p, e):
    gf = make_field(p, e)
    rng = random.Random(17 * p + e)
    eye = _eye(4)
    for _ in range(10):
        mat = random_invertible(gf, 4, rng)
        inv = matrix_inverse(gf, mat)
        assert matmul(gf, mat, inv) == eye
        assert matmul(gf, inv, mat) == eye
    singular = mat[:3] + [mat[2]]
    with pytest.raises(ValueError):
        matrix_inverse(gf, singular)
    with pytest.raises(ValueError):
        matrix_inverse(gf, mat[:3])  # not square


def test_random_invertible_rejects_n_below_one(gf2):
    rng = random.Random(0)
    state = rng.getstate()
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"got n = {n}$"):
            random_invertible(gf2, n, rng)
    assert rng.getstate() == state  # refused before any draw


def test_from_rows_and_map_constructor_validation(gf3):
    for bad in (3, -1):
        with pytest.raises(ValueError):
            Subspace.from_rows(gf3, [[0, bad]])
        with pytest.raises(ValueError):
            SemilinearMap(gf3, 2, [[1, bad], [0, 1]])
    assert Subspace.from_rows(gf3, [1, 2, 0]).basis == ((1, 2, 0),)
    with pytest.raises(ValueError):
        Subspace.from_rows(gf3, [[0, None]])  # not a code
    with pytest.raises(ValueError):
        Subspace.from_rows(gf3, [])  # no rows and no ambient dimension
    with pytest.raises(ValueError):
        SemilinearMap(gf3, 3, [1, 2, 0])  # one row, three columns


# -- Subspace ----------------------------------------------------------------


def random_subspace_rows(gf, m, d, rng):
    return random_matrix(gf, d, m, rng)


@pytest.mark.parametrize("p", [2, 3])
def test_intersection_matches_span_sets(p):
    gf = make_field(p)
    m = 4
    rng = random.Random(p * 7)
    for _ in range(30):
        A = Subspace.from_rows(gf, random_subspace_rows(gf, m, 2, rng), ambient=m)
        B = Subspace.from_rows(gf, random_subspace_rows(gf, m, 2, rng), ambient=m)
        got = A & B
        sa = bf.span_set(A.to_rows(), p, m)
        sb = bf.span_set(B.to_rows(), p, m)
        expect = sa & sb
        assert bf.span_set(got.to_rows(), p, m) == expect
        assert p**got.dim == len(expect)
        # dimension formula against the join
        assert got.dim == A.dim + B.dim - (A + B).dim


def test_sum_and_containment(gf2):
    rng = random.Random(3)
    for _ in range(20):
        A = Subspace.from_rows(gf2, random_subspace_rows(gf2, 5, 2, rng), ambient=5)
        B = Subspace.from_rows(gf2, random_subspace_rows(gf2, 5, 2, rng), ambient=5)
        S = A + B
        assert A <= S and B <= S
        assert (A & B) <= A
        assert not (S != S and S <= S)
        assert S <= S
    assert not (Subspace.full(gf2, 5) <= A)  # a larger dimension
    with pytest.raises(TypeError):
        A <= 5


def test_perp_matches_naive(gf2):
    rng = random.Random(11)
    m = 5
    for _ in range(20):
        A = Subspace.from_rows(gf2, random_subspace_rows(gf2, m, 2, rng), ambient=m)
        P = A.perp()
        assert P.dim == m - A.dim
        naive = {
            v
            for v in bf.span_set(_eye(m), 2, m)
            if all(
                sum(x * y for x, y in zip(v, row)) % 2 == 0 for row in A.to_rows()
            )
        }
        assert bf.span_set(P.to_rows(), 2, m) == naive
        assert P.perp() == A


def test_perp_extremes(gf3):
    assert Subspace.zero(gf3, 4).perp() == Subspace.full(gf3, 4)
    assert Subspace.full(gf3, 4).perp() == Subspace.zero(gf3, 4)


def test_vector_enumeration(gf3):
    A = Subspace.from_rows(gf3, [[1, 0, 2, 0], [0, 1, 1, 0]], ambient=4)
    vecs = [tuple(map(int, v)) for v in A.vectors()]
    assert len(vecs) == 9
    assert len(set(vecs)) == 9
    assert vecs[0] == (0, 0, 0, 0)
    assert all(not any(A.reduce(v)) for v in vecs)
    nz = list(A.vectors(nonzero=True))
    assert len(nz) == 8
    span = bf.span_set(A.to_rows(), 3, 4)
    assert set(vecs) == set(span)
    with pytest.raises(ValueError):
        A.vector_at(9)


def test_subspace_identity(gf2, gf3):
    A = Subspace.from_rows(gf2, [[1, 0, 1], [0, 1, 1]], ambient=3)
    B = Subspace.from_rows(gf2, [[0, 1, 1], [1, 1, 0]], ambient=3)
    assert A == B
    assert hash(A) == hash(B)
    C = Subspace.from_rows(gf2, [[1, 0, 1]], ambient=3)
    assert A != C
    assert (A == 0) is False
    assert len({A, B, C}) == 2
    with pytest.raises(ValueError):
        A._check_ambient(Subspace.zero(gf3, 3))
    with pytest.raises(ValueError):
        A._check_ambient(Subspace.zero(gf2, 4))


def test_subspace_validation_and_immutability(gf2):
    with pytest.raises(ValueError):
        Subspace(gf2, [[0, 1], [1, 0]])  # pivots out of order
    with pytest.raises(ValueError):
        Subspace(gf2, [[1, 1], [0, 1]])  # pivot column not cleared
    with pytest.raises(ValueError):
        Subspace(gf2, [[0, 0, 0]])  # zero row
    A = Subspace.from_rows(gf2, [[1, 0, 1]], ambient=3)
    with pytest.raises(AttributeError):
        A.m = 7
    with pytest.raises(TypeError):
        A.basis[0][0] = 0
    with pytest.raises(TypeError):
        A.basis[0] = (0, 0, 0)


def test_reduce_residual(gf2, gf3):
    A = Subspace.from_rows(gf3, [[1, 0, 2], [0, 1, 1]], ambient=3)
    res = A.reduce([2, 2, 1])
    # residual has zeros on pivot coordinates
    assert int(res[0]) == 0 and int(res[1]) == 0
    assert not any(A.reduce([2, 2, 0]))  # 2 * row 0 + 2 * row 1
    with pytest.raises(ValueError):
        A.reduce([2, 2])  # short vector
    assert A.reduce((2, 2, 1)) == res and type(A.reduce((0, 0, 0))) is list
    # codes outside [0, q) are refused, as from_rows refuses them: the
    # whole space and the zero space see them too
    for S, vec in [
        (Subspace.full(gf2, 3), [2, 0, 1]),
        (Subspace.zero(gf2, 3), [0, 0, 3]),
        (A, [5, -1, 0]),
        (Subspace.full(gf3, 2), [5, -1]),
    ]:
        with pytest.raises(ValueError, match=rf"codes in \[0, {S.gf.q}\)"):
            S.reduce(vec)


def _assert_int_tuples(W):
    assert type(W.basis) is tuple and all(type(row) is tuple for row in W.basis)
    assert all(type(x) is int for row in W.basis for x in row)
    assert all(type(c) is int for c in W.pivots)
    json.dumps(W.to_rows())


def _check_tuple_basis(W, rng):
    """W is held by int tuples and is found again from any spanning rows."""
    gf, m = W.gf, W.m
    _assert_int_tuples(W)
    mix = random_invertible(gf, W.dim, rng)
    rows = matmul(gf, mix, W.basis)
    for twin in (
        Subspace.from_rows(gf, rows, ambient=m),
        unrank_subspace(gf, m, W.dim, rank_subspace(W)),
    ):
        _assert_int_tuples(twin)
        assert twin == W and hash(twin) == hash(W)
        assert twin.basis == W.basis and twin.pivots == W.pivots


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_tuple_basis_over_whole_g24(p, e):
    gf = make_field(p, e)
    rng = random.Random(7 * p + e)
    for W in enumerate_grassmannian(gf, 4, 2):
        _check_tuple_basis(W, rng)


def test_tuple_basis_over_gf343():
    gf = make_field(7, 3)
    rng = random.Random(343)
    for l in (1, 2, 3):
        for _ in range(4):
            _check_tuple_basis(random_subspace(gf, 4, l, rng), rng)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (7, 3)])
def test_subspace_rejects_ragged_and_out_of_range_rows(p, e):
    gf = make_field(p, e)
    with pytest.raises(ValueError):
        Subspace(gf, [[1, 0, 0], [0, 1]])
    with pytest.raises(ValueError):
        Subspace.from_rows(gf, [[1, 0, 0], [0, 1]])
    for bad in (gf.q, -1):
        with pytest.raises(ValueError):
            Subspace(gf, [[1, 0, bad]])
        with pytest.raises(ValueError):
            Subspace.from_rows(gf, [[1, 0, bad]], ambient=3)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_rows_take_only_int_codes(p, e):
    """A float, a string or a bool is refused, not truncated to a code."""
    gf = make_field(p, e)
    codes = rf"^entries must be codes in \[0, {gf.q}\)$"
    for bad in (0.9, 1.0, "1", True, False, None):
        with pytest.raises(ValueError, match=codes):
            Subspace.from_rows(gf, [[1, 0, bad]])
        with pytest.raises(ValueError, match=codes):
            Subspace(gf, [[1, 0, bad]])
        with pytest.raises(ValueError, match=codes):
            Subspace.full(gf, 3).reduce([bad, 0, 0])
        with pytest.raises(ValueError, match=codes):
            SemilinearMap(gf, 2, [[1, 0], [0, bad]])
    with pytest.raises(ValueError, match=codes):
        Subspace.from_rows(gf, [[True, 0.9, "1"]])
    with pytest.raises(ValueError, match="^expected a 2-d matrix of codes$"):
        Subspace.from_rows(gf, [[1, 0, 0], 1])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_trusted_subspaces_equal_validated_ones_over_whole_g24(p, e):
    """Every unchecked build on G(2,4) passes the checks and hashes alike."""
    gf = make_field(p, e)
    rng = random.Random(11 * p + e)
    built = [Subspace.zero(gf, 4), Subspace.full(gf, 4), *enumerate_grassmannian(gf, 4, 2)]
    for alpha in itertools.combinations(range(1, 5), 2):
        omega = SchubertVariety(random_flag(gf, 4, alpha, rng))
        built.extend(omega._cell_points())
        built.extend(omega.flag.subspaces)
    for W in built:
        twin = Subspace(gf, W.basis, ambient=4)
        assert twin == W and hash(twin) == hash(W)
        assert (twin.basis, twin.pivots, twin.m) == (W.basis, W.pivots, W.m)
        with pytest.raises(AttributeError):
            W.m = 5


def test_subspace_takes_no_validate_flag(gf2):
    with pytest.raises(TypeError):
        Subspace(gf2, [[1, 0]], validate=False)


@pytest.mark.parametrize("p,e,m,max_rows", [(2, 1, 3, 3), (3, 1, 3, 2), (2, 2, 3, 2), (2, 1, 4, 2)])
def test_subspace_accepts_exactly_its_own_rref_rows(p, e, m, max_rows):
    """Subspace() succeeds on a matrix exactly when it is its own RREF basis."""
    gf = make_field(p, e)
    vectors = list(itertools.product(range(gf.q), repeat=m))
    for d in range(max_rows + 1):
        for rows in itertools.product(vectors, repeat=d):
            canonical = Subspace.from_rows(gf, rows, ambient=m).basis == rows
            try:
                W = Subspace(gf, rows, ambient=m)
            except ValueError:
                assert not canonical, rows
            else:
                assert canonical, rows
                assert W == Subspace.from_rows(gf, rows, ambient=m)


def test_reprs_name_the_shape_and_the_field(gf4):
    assert repr(Subspace.full(gf4, 3)) == "Subspace(dim=3, m=3, GF(4))"
    assert repr(SemilinearMap.identity(gf4, 3)) == "SemilinearMap(m=3, GF(4), covariant)"
    assert repr(SemilinearMap(gf4, 3, _eye(3), 1)) == "SemilinearMap(m=3, GF(4), frobenius^1, covariant)"
    assert repr(SemilinearMap.perp_map(gf4, 2)) == "SemilinearMap(m=2, GF(4), contravariant)"
    assert repr(SchubertVariety.standard(gf4, 4, (2, 4))) == "SchubertVariety(alpha=(2, 4), m=4, GF(4))"
