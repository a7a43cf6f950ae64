"""Extension-field arithmetic against the polynomial oracle in bruteforce.py.

Every row and scalar operation of GF(p^e), the two row operations the
elimination kernel runs on, and the Frobenius row helper that
semilinear maps run on must agree code for code with
schoolbook polynomial arithmetic modulo the canonical irreducible.
Fields up to order 256 are checked on every pair of elements; GF(343)
and GF(512) pair every element with a seeded sample.
"""

import random

import pytest

import bruteforce as bf
from qgrass.field import field_from_order

ORDERS = [4, 8, 9, 16, 25, 27, 49, 243, 256, 343, 512]


def _partners(q, rng):
    """Second operands: every element up to q = 256, a sample beyond."""
    if q <= 256:
        return list(range(q))
    return sorted({0, 1, q - 1} | set(rng.sample(range(q), 13)))


def _sample(rng, population, k):
    return rng.sample(population, min(k, len(population)))


@pytest.mark.parametrize("q", ORDERS)
def test_add_sub_neg_mul_match_polynomial_arithmetic(q):
    gf = field_from_order(q)
    ref = bf.PolyField(gf.p, gf.e)
    assert gf.modulus == ref.modulus
    rng = random.Random(q)
    els = list(range(q))
    bs = _partners(q, rng)
    a = [x for x in els for _ in bs]
    b = bs * q
    pairs = list(zip(a, b))
    assert gf.add(a, b) == [ref.add(x, y) for x, y in pairs]
    assert gf.sub(a, b) == [ref.sub(x, y) for x, y in pairs]
    assert gf.mul(a, b) == [ref.mul(x, y) for x, y in pairs]
    assert gf.neg(els) == [ref.neg(x) for x in els]
    # scalar calls on a sample of the same pairs
    for x, y in _sample(rng, pairs, 200):
        assert gf.add(x, y) == ref.add(x, y)
        assert gf.sub(x, y) == ref.sub(x, y)
        assert gf.mul(x, y) == ref.mul(x, y)
        assert gf.neg(x) == ref.neg(x)


@pytest.mark.parametrize("q", ORDERS)
def test_inv_power_frobenius_match_polynomial_arithmetic(q):
    gf = field_from_order(q)
    ref = bf.PolyField(gf.p, gf.e)
    rng = random.Random(q + 1)
    for a in range(1, q):
        assert ref.mul(a, gf.inv(a)) == 1
    for a in [0, 1, q - 1] + _sample(rng, range(q), 10):
        for n in [0, 1, 2, q - 2, q - 1, q, 2 * q + 3] + rng.sample(range(3 * q), 4):
            assert gf.power(a, n) == ref.power(a, n)
        if a:
            inv = ref.power(a, q - 2)
            for n in (1, 2, q + 1):
                assert gf.power(a, -n) == ref.power(inv, n)
    frob = [ref.frobenius(a, 1) for a in range(q)]
    want = list(range(q))
    for k in range(gf.e):
        assert gf.frobenius(list(range(q)), k) == want
        for a in _sample(rng, range(q), 20):
            assert gf.frobenius(a, k) == want[a]
        want = [frob[a] for a in want]


@pytest.mark.parametrize("q", ORDERS)
def test_row_operations_match_polynomial_arithmetic(q):
    gf = field_from_order(q)
    ref = bf.PolyField(gf.p, gf.e)
    rng = random.Random(q + 2)
    row = list(range(q))
    piv = row[:]
    rng.shuffle(piv)
    for c in sorted({1, q - 1} | set(_sample(rng, range(1, q), 6))):
        assert gf._scale_row(row, c) == [ref.mul(c, x) for x in row]
        want = [ref.sub(x, ref.mul(c, y)) for x, y in zip(row, piv)]
        assert gf._sub_row(row, c, piv) == want


@pytest.mark.parametrize("q", [4, 8, 9, 27, 243, 256])
def test_the_frobenius_row_helper_matches_polynomial_arithmetic(q):
    # every code, zero included, in rows of a matrix with a short last row
    gf = field_from_order(q)
    ref = bf.PolyField(gf.p, gf.e)
    codes = list(range(q))
    rows = [codes[i : i + 7] for i in range(0, q, 7)]
    for k in range(1, gf.e):
        want = [ref.frobenius(a, k) for a in codes]
        got = gf._frobenius_rows(rows, k)
        assert [x for row in got for x in row] == want
        assert [len(row) for row in got] == [len(row) for row in rows]
        assert gf._frobenius_rows(tuple(map(tuple, rows)), k) == got
