"""What the per-shape tables and the cell walk must keep.

A cell walk multiplies one list of choices per row, row 0 slowest, in the
order _row_choices yields them; a Subspace hashes like the tuple of its
field, ambient dimension and basis.  Tables built once per shape may be
shared between callers only if none of them can change a table.
"""

import itertools
import random

import pytest

from qgrass.field import make_field
from qgrass.grassmann import (
    _grassmannian_layout,
    _negatives,
    _row_choices,
    _row_list,
    _walk_cell,
    enumerate_grassmannian,
)
from qgrass.linalg import _identity
from qgrass.schubert import SchubertVariety, _cell_layout, _cells, _nc_positions

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]


def _random_row(gf, m, rng):
    return [rng.randrange(gf.q) for _ in range(m)]


@pytest.mark.parametrize("p, e", FIELDS)
@pytest.mark.parametrize("ngens", range(4))
def test_flat_row_list_is_the_list_of_row_choices(p, e, ngens):
    gf = make_field(p, e)
    rng = random.Random(f"flat/{gf.q}/{ngens}")
    for m in (1, 4):
        for _ in range(3):
            base = _random_row(gf, m, rng)
            gens = [_random_row(gf, m, rng) for _ in range(ngens)]
            flat = _row_list(gf, base, gens)
            assert flat == list(_row_choices(gf, base, gens))
            assert len(flat) == gf.q**ngens


@pytest.mark.parametrize("p, e", FIELDS)
@pytest.mark.parametrize("ngens", range(4))
def test_cell_walk_is_the_product_of_the_row_choices(p, e, ngens):
    gf = make_field(p, e)
    m = 5
    rng = random.Random(f"{gf.q}/{ngens}")
    for _ in range(3):
        rows = [
            (_random_row(gf, m, rng), [_random_row(gf, m, rng)]),
            (_random_row(gf, m, rng), [_random_row(gf, m, rng) for _ in range(ngens)]),
        ]
        if ngens < 2:
            rows.append((_random_row(gf, m, rng), [_random_row(gf, m, rng) for _ in range(ngens)]))
        choices = [list(_row_choices(gf, base, gens)) for base, gens in rows]
        assert list(_walk_cell(gf, rows)) == list(itertools.product(*choices))
        assert all(isinstance(v, tuple) for row in choices for v in row)


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
        _cells((2, 4), 4),
        _cell_layout((2, 4), 4),
        _grassmannian_layout(4, 2),
        _nc_positions((1, 3, 4)),
        _negatives(gf),
    ]
    for table in tables:
        assert _frozen(table), table
    assert _identity(4) is _identity(4)
    assert _cell_layout((2, 4), 4) is _cell_layout((2, 4), 4)
    with pytest.raises(TypeError):
        _identity(4)[0] = (0, 0, 0, 0)
    with pytest.raises(TypeError):
        _cells((2, 4), 4)[0] = (1, 2)
    # what callers get to change is built fresh from the tables
    omega = SchubertVariety.standard(gf, 4, (2, 4))
    before = repr(list(omega._cell_rows()))
    for rows in omega._cell_rows():
        for base, gens in rows:
            base[0] = 2
            gens.clear()
    assert repr(list(omega._cell_rows())) == before
    assert _identity(4)[0] == (1, 0, 0, 0)
    assert omega.nc_positions == (0, 1) and omega.alpha_nc == (2, 4)
