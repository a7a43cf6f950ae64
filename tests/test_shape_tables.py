"""What the per-shape tables and the cell walk must keep.

One function lists the canonical order base + sum x_j g_j, g_0 most
significant and each x_j in code order; a cell walk multiplies one such
list per row, row 0 slowest, and a subspace lists its vectors in it.
Each is checked here against a reference built in this file from
itertools.product and the public gf.add and gf.mul.  A Subspace hashes
like the tuple of its field, ambient dimension and basis.  Tables built
once per shape may be shared between callers only if none of them can
change a table.  A Schubert variety's cells are the G(l, m) layout's
own tuples, filtered, and their sizes are checked against a recurrence
that does not use the package.
"""

import functools
import itertools
import random

import pytest

import bruteforce as bf
from qgrass.field import make_field
from qgrass.grassmann import (
    _count_grassmannian,
    _grassmannian_layout,
    _walk_cell,
    enumerate_grassmannian,
    gaussian_binomial,
)
from qgrass.linalg import Subspace, _identity, _row_chunks, _row_list, random_invertible
from qgrass.schubert import SchubertVariety, _nc_positions, _schubert_cells, alpha_nc, cell_count_polynomial

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]

# every field with 0-6 generators, up to q^k = 9^4 rows, so that the
# reference below stays quick
CASES = [(k, p, e) for k in range(7) for p, e in FIELDS if (p**e) ** k <= 9**4]


def _random_row(gf, m, rng):
    return [rng.randrange(gf.q) for _ in range(m)]


def _reference(gf, base, gens):
    """base + sum x_j gens[j] over x in itertools.product's order, as tuples."""
    terms = [[gf.mul(x, g) for x in range(gf.q)] for g in gens]
    return [tuple(functools.reduce(gf.add, combo, list(base))) for combo in itertools.product(*terms)]


@pytest.mark.parametrize("ngens, p, e", CASES)
def test_flat_row_list_is_the_list_of_row_choices(ngens, p, e):
    gf = make_field(p, e)
    rng = random.Random(f"flat/{gf.q}/{ngens}")
    for m in (1, 4):
        base = _random_row(gf, m, rng)
        gens = [_random_row(gf, m, rng) for _ in range(ngens)]
        flat = _row_list(gf, base, gens)
        assert flat == _reference(gf, base, gens)
        assert len(flat) == gf.q**ngens
        # read lazily, in q^(k // 2) chunks of q^(k - k // 2) rows each
        chunks = list(_row_chunks(gf, base, gens))
        assert [v for chunk in chunks for v in chunk] == flat
        assert [len(chunk) for chunk in chunks] == [gf.q ** (ngens - ngens // 2)] * gf.q ** (ngens // 2)


@pytest.mark.parametrize("ngens, p, e", CASES)
def test_cell_walk_is_the_product_of_the_row_choices(ngens, p, e):
    gf = make_field(p, e)
    m = 5
    rng = random.Random(f"{gf.q}/{ngens}")
    # row 0, read a chunk at a time, carries the ngens generators
    rows = [
        (_random_row(gf, m, rng), [_random_row(gf, m, rng) for _ in range(ngens)]),
        (_random_row(gf, m, rng), [_random_row(gf, m, rng)]),
    ]
    if ngens < 2:
        rows.append((_random_row(gf, m, rng), [_random_row(gf, m, rng) for _ in range(ngens)]))
    choices = [_reference(gf, base, gens) for base, gens in rows]
    # the walk reads each row's pivot and free columns as indices into a basis
    basis = [v for base, gens in rows for v in (base, *gens)]
    cell, k = [], 0
    for _, gens in rows:
        cell.append((k, tuple(range(k + 1, k + 1 + len(gens)))))
        k += 1 + len(gens)
    assert list(_walk_cell(gf, basis, cell[:1])) == [(v,) for v in choices[0]]
    assert list(_walk_cell(gf, basis, cell)) == list(itertools.product(*choices))


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2)])
def test_every_cell_walk_is_product_of_its_row_lists_in_order(p, e):
    gf = make_field(p, e)
    rng = random.Random(f"cells/{gf.q}")
    for m in range(1, 6):
        basis = random_invertible(gf, m, rng)
        for l in range(min(3, m) + 1):
            for _, rows, _ in _grassmannian_layout(m, l):
                choices = [_reference(gf, basis[c], [basis[j] for j in free]) for c, free in rows]
                assert list(_walk_cell(gf, basis, rows)) == list(itertools.product(*choices))
    # the one cell of G(0, m) holds one point, the empty tuple of rows
    for m in range(6):
        assert list(_walk_cell(gf, _identity(m), ())) == [()]
        assert _count_grassmannian(gf, m, 0) == gaussian_binomial(m, 0, gf.q) == 1
        assert [S.dim for S in enumerate_grassmannian(gf, m, 0)] == [0]


@pytest.mark.parametrize("ngens, p, e", CASES)
def test_subspace_vectors_are_the_canonical_order(ngens, p, e):
    gf = make_field(p, e)
    m = ngens + 1
    rng = random.Random(f"vectors/{gf.q}/{ngens}")
    S = Subspace.zero(gf, m)
    while S.dim < ngens:
        S = Subspace.from_rows(gf, [*S.basis, _random_row(gf, m, rng)], ambient=m)
    vectors = list(S.vectors())
    assert vectors == _reference(gf, [0] * m, S.basis)
    assert all(isinstance(v, tuple) for v in vectors)
    assert [list(v) for v in vectors] == [S.vector_at(t) for t in range(gf.q**ngens)]
    assert list(S.vectors(nonzero=True)) == vectors[1:]


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2)])
def test_subspace_hash_is_the_hash_of_its_value(p, e):
    gf = make_field(p, e)
    assert hash(gf) == hash((gf.p, gf.e, gf.modulus))
    for S in enumerate_grassmannian(gf, 4, 2):
        assert hash(S) == hash((S.gf, S.m, S.basis))
        # a tuple hashes its members, so this pins the value itself
        assert hash(S) == hash(((gf.p, gf.e, gf.modulus), S.m, S.basis))


def _frozen(table):
    """Whether table is a tuple all the way down to its ints."""
    return isinstance(table, int) or (isinstance(table, tuple) and all(map(_frozen, table)))


def test_shape_tables_are_shared_tuples_no_caller_can_change():
    gf = make_field(3)
    tables = [
        _identity(4),
        _schubert_cells((2, 4), 4),
        _schubert_cells((2, 4), 4, True),
        _grassmannian_layout(4, 2),
        _nc_positions((1, 3, 4)),
        gf._negs,
    ]
    for table in tables:
        assert _frozen(table), table
    assert _identity(4) is _identity(4)
    assert gf._negs is gf._negs == (2, 1)
    assert _schubert_cells((2, 4), 4) is _schubert_cells((2, 4), 4)
    with pytest.raises(TypeError):
        _identity(4)[0] = (0, 0, 0, 0)
    with pytest.raises(TypeError):
        _schubert_cells((2, 4), 4)[0] = ((0, 1), (), ())
    # a walk hands out tuples, read from the variety's own adapted basis
    omega = SchubertVariety.standard(gf, 4, (2, 4))
    walked = list(omega._walk())
    assert _frozen(tuple(walked)) and len(walked) == omega.count_points()
    assert list(omega._walk()) == walked
    assert _identity(4)[0] == (1, 0, 0, 0)
    assert omega.nc_positions == (0, 1) and alpha_nc(omega.alpha) == (2, 4)


def test_the_cells_of_the_top_tuple_are_the_grassmannian_layout():
    for m in range(1, 7):
        for l in range(1, m + 1):
            top = tuple(range(m - l + 1, m + 1))
            for dual, k in ((False, l), (True, m - l)):
                cells, layout = _schubert_cells(top, m, dual), _grassmannian_layout(m, k)
                assert len(cells) == len(layout)
                assert all(cell is whole for cell, whole in zip(cells, layout))


def test_the_kept_cells_sum_to_the_recurrence():
    for m in range(1, 7):
        for alpha in (a for l in range(1, m + 1) for a in itertools.combinations(range(1, m + 1), l)):
            sizes = [len(free) for _, _, free in _schubert_cells(alpha, m)]
            want = bf.schubert_count_poly(alpha)
            assert len(sizes) == sum(want), alpha
            assert tuple(map(sizes.count, range(len(want)))) == want == cell_count_polynomial(alpha, m), alpha
