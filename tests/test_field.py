import itertools
import random

import numpy as np
import pytest

from qgrass.errors import BudgetExceededError
from qgrass.field import (
    GF,
    FieldAutomorphism,
    automorphism_group,
    field_from_order,
    make_field,
)


def oracle_smallest_irreducible(p, e):
    """Re-derive the canonical modulus by naive factor search."""

    def poly_eval(poly, x):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        return acc

    def divides(small, big):
        rem = list(big)
        ds = len(small) - 1
        while len(rem) - 1 >= ds:
            lead = rem[-1]
            if lead == 0:
                rem.pop()
                continue
            shift = len(rem) - 1 - ds
            for i, c in enumerate(small):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
            rem.pop()
        return all(c == 0 for c in rem)

    def irreducible(poly):
        deg = len(poly) - 1
        if deg == 1:
            return True
        if any(poly_eval(poly, x) == 0 for x in range(p)):
            return False
        for d in range(2, deg // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                if divides(list(tail) + [1], poly):
                    return False
        return True

    if e == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=e):
        poly = list(tail) + [1]
        if irreducible(poly):
            return tuple(poly)
    raise AssertionError("unreachable")


def test_canonical_moduli_frozen():
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(2, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_modulus_matches_oracle(p, e):
    assert make_field(p, e).modulus == oracle_smallest_irreducible(p, e)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    gf = make_field(p, e)
    q = gf.q
    els = list(gf.elements())
    for a in els:
        assert int(gf.add(a, 0)) == a
        assert int(gf.mul(a, 1)) == a
        assert int(gf.add(a, int(gf.neg(a)))) == 0
        if a != 0:
            assert int(gf.mul(a, gf.inv(a))) == 1
    for a, b in itertools.product(els, repeat=2):
        assert int(gf.add(a, b)) == int(gf.add(b, a))
        assert int(gf.mul(a, b)) == int(gf.mul(b, a))
    for a, b, c in itertools.product(els, repeat=3):
        assert int(gf.add(gf.add(a, b), c)) == int(gf.add(a, gf.add(b, c)))
        assert int(gf.mul(gf.mul(a, b), c)) == int(gf.mul(a, gf.mul(b, c)))
        assert int(gf.mul(a, gf.add(b, c))) == int(gf.add(gf.mul(a, b), gf.mul(a, c)))
    assert q == p**e


def test_gf4_known_products(gf4):
    # codes: 0, 1, 2 = x, 3 = x + 1, with x^2 = x + 1
    assert int(gf4.mul(2, 2)) == 3
    assert int(gf4.mul(2, 3)) == 1
    assert int(gf4.mul(3, 3)) == 2
    assert int(gf4.add(2, 3)) == 1
    assert gf4.inv(2) == 3
    assert gf4.inv(3) == 2


def test_gf9_squares(gf9):
    # x^2 = -1 = 2 under the modulus, so code 3 squares to 2
    assert int(gf9.mul(3, 3)) == 2
    sq = sorted({int(gf9.mul(a, a)) for a in gf9.elements()})
    assert len(sq) == 5  # 0 plus the four nonzero squares


def test_inv_of_zero_raises(gf2, gf4):
    with pytest.raises(ZeroDivisionError):
        gf2.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf4.inv(0)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_frobenius_fixed_subfields(p, e):
    import math

    gf = make_field(p, e)
    for k in range(e):
        fixed = [a for a in gf.elements() if int(gf.frobenius(a, k)) == a]
        assert len(fixed) == p ** math.gcd(k, e)


def test_frobenius_is_a_field_map(gf9):
    rng = random.Random(101)
    for _ in range(50):
        a = rng.randrange(gf9.q)
        b = rng.randrange(gf9.q)
        fa, fb = int(gf9.frobenius(a)), int(gf9.frobenius(b))
        assert int(gf9.frobenius(int(gf9.add(a, b)))) == int(gf9.add(fa, fb))
        assert int(gf9.frobenius(int(gf9.mul(a, b)))) == int(gf9.mul(fa, fb))
    assert int(gf9.frobenius(5, 0)) == 5
    with pytest.raises(ValueError):
        gf9.frobenius(1, 2)
    with pytest.raises(ValueError):
        gf9.frobenius(1, -1)


def test_tables_match_generic_path():
    fast = GF(2, 4)
    slow = GF(2, 4, use_tables=False)
    assert fast._tables is not None and slow._tables is None
    for a, b in itertools.product(range(16), repeat=2):
        assert int(fast.add(a, b)) == int(slow.add(a, b))
        assert int(fast.mul(a, b)) == int(slow.mul(a, b))
    for a in range(16):
        for k in range(4):
            assert int(fast.frobenius(a, k)) == int(slow.frobenius(a, k))
        if a:
            assert fast.inv(a) == slow.inv(a)


def test_array_ops_match_scalar(gf4, gf3):
    rng = random.Random(7)
    for gf in (gf4, gf3):
        a = np.array([[rng.randrange(gf.q) for _ in range(5)] for _ in range(3)])
        b = np.array([[rng.randrange(gf.q) for _ in range(5)] for _ in range(3)])
        s = gf.add(a, b)
        m = gf.mul(a, b)
        d = gf.sub(a, b)
        for i in range(3):
            for j in range(5):
                assert int(s[i, j]) == int(gf.add(int(a[i, j]), int(b[i, j])))
                assert int(m[i, j]) == int(gf.mul(int(a[i, j]), int(b[i, j])))
                assert int(d[i, j]) == int(gf.sub(int(a[i, j]), int(b[i, j])))
        # broadcasting a scalar across a row
        row = gf.mul(2 % gf.q, a[0])
        for j in range(5):
            assert int(row[j]) == int(gf.mul(2 % gf.q, int(a[0, j])))


def test_power_and_order(gf4, gf9):
    for gf in (gf4, gf9):
        for a in range(1, gf.q):
            assert gf.power(a, gf.q - 1) == 1
        assert gf.power(0, 0) == 1
        a = gf.q - 1
        assert gf.power(a, -1) == gf.inv(a)


@pytest.mark.parametrize("q", [7, 243, 343, 512])
def test_inverse_and_power_by_scalar_products(q):
    # prime, tabled and untabled fields each take their own scalar path
    gf = field_from_order(q)
    for a in range(1, q):
        assert int(gf.mul(gf.inv(a), a)) == 1
    rng = random.Random(q)
    for a in [rng.randrange(q) for _ in range(20)]:
        acc = 1
        for n in range(12):
            assert gf.power(a, n) == acc
            acc = int(gf.mul(acc, a))


def test_dot_products(gf4):
    assert gf4.dot([1, 2], [2, 2]) == 1  # x + x^2 = 1 when x^2 = x + 1
    assert gf4.dot([0, 0, 0], [1, 2, 3]) == 0


def test_digit_round_trip(gf9):
    for a in gf9.elements():
        assert gf9.from_digits(gf9.digits(a)) == a
    assert gf9.digits(5) == (2, 1)  # 5 = 2 + 1 * 3


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2, 0)
    with pytest.raises(BudgetExceededError):
        GF(2, 21)
    with pytest.raises(BudgetExceededError):
        GF(2, 5, order_bound=32)


def test_equality_and_caching():
    assert make_field(2, 2) is make_field(2, 2)
    assert GF(2, 2) == make_field(2, 2)
    assert hash(GF(2, 2)) == hash(make_field(2, 2))
    assert make_field(2) != make_field(3)
    assert repr(make_field(2, 3)) == "GF(8)"


def test_json_round_trip(gf9):
    data = gf9.to_json_dict()
    assert data == {"p": 3, "e": 2, "modulus": [1, 0, 1]}
    assert GF.from_json_dict(data) == gf9
    with pytest.raises(ValueError):
        GF.from_json_dict({"p": 3, "e": 2, "modulus": [2, 0, 1]})


def test_field_from_order():
    assert field_from_order(8) is make_field(2, 3)
    assert field_from_order(49).p == 7
    assert field_from_order(49).e == 2
    assert field_from_order(2).e == 1
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            field_from_order(bad)


def test_automorphism_group_is_cyclic(gf9):
    group = automorphism_group(gf9)
    assert len(group) == 2
    ident, frob = group
    assert ident.k == 0 and frob.k == 1
    assert frob.compose(frob).k == 0
    assert frob.inverse().k == 1
    assert ident(7) == 7
    assert frob(int(gf9.mul(3, 3))) == int(gf9.mul(frob(3), frob(3)))
    with pytest.raises(ValueError):
        FieldAutomorphism(gf9, 2)
