import itertools
import random

import pytest

import bruteforce as bf
from qgrass.errors import BudgetExceededError
from qgrass.field import GF, field_from_order, make_field
from qgrass.grassmann import random_flag
from qgrass.group import SemilinearMap
from qgrass.linalg import matmul, matrix_inverse, random_invertible, random_matrix, rref


def test_canonical_moduli_frozen():
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(2, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_modulus_matches_oracle(p, e):
    assert make_field(p, e).modulus == bf.smallest_irreducible(p, e)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    gf = make_field(p, e)
    q = gf.q
    els = list(range(gf.q))
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
    sq = sorted({int(gf9.mul(a, a)) for a in range(gf9.q)})
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
        fixed = [a for a in range(gf.q) if int(gf.frobenius(a, k)) == a]
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


def test_array_ops_match_scalar(gf4, gf3):
    rng = random.Random(7)
    for gf in (gf4, gf3):
        a = [[rng.randrange(gf.q) for _ in range(5)] for _ in range(3)]
        b = [[rng.randrange(gf.q) for _ in range(5)] for _ in range(3)]
        s = gf.add(a, b)
        m = gf.mul(a, b)
        d = gf.sub(a, b)
        for i in range(3):
            for j in range(5):
                assert s[i][j] == gf.add(a[i][j], b[i][j])
                assert m[i][j] == gf.mul(a[i][j], b[i][j])
                assert d[i][j] == gf.sub(a[i][j], b[i][j])
        # a scalar goes with every entry of a row
        row = gf.mul(2 % gf.q, a[0])
        for j in range(5):
            assert row[j] == gf.mul(2 % gf.q, a[0][j])
        with pytest.raises(ValueError):
            gf.add(a[0], a[0][:4])


def test_power_and_order(gf4, gf9):
    for gf in (gf4, gf9):
        for a in range(1, gf.q):
            assert gf.power(a, gf.q - 1) == 1
        assert gf.power(0, 0) == 1
        a = gf.q - 1
        assert gf.power(a, -1) == gf.inv(a)


@pytest.mark.parametrize("q", [7, 243, 343, 512])
def test_inverse_and_power_by_scalar_products(q):
    # prime fields use pow, extensions their log tables
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
    with pytest.raises(ValueError):
        gf4.dot([1, 2], [1, 2, 3])


@pytest.mark.parametrize("p,e", [(5, 1), (2, 3), (3, 2), (7, 3)])
def test_dot_is_one_sum_not_an_add_per_coordinate(p, e):
    gf = GF(p, e)
    q = gf.q
    ref = bf.PolyField(gf.p, gf.e)
    gf.add = None
    rng = random.Random(q)
    for length in (0, 1, 2, 5, 9):
        for _ in range(10):
            u = [rng.randrange(q) for _ in range(length)]
            v = [rng.randrange(q) for _ in range(length)]
            want = 0
            for x, y in zip(u, v):
                want = ref.add(want, ref.mul(x, y))
            got = gf.dot(u, v)
            assert type(got) is int and got == want
            assert gf.dot(tuple(u), v) == want


@pytest.mark.parametrize("q", [2, 7, 4, 9, 343])
def test_frobenius_of_a_scalar_is_an_int(q):
    gf = field_from_order(q)
    for k in range(gf.e):
        for a in (0, 1, q - 1):
            got = gf.frobenius(a, k)
            assert type(got) is int and got == gf.power(a, gf.p**k)
        row = gf.frobenius((0, 1, q - 1), k)
        assert type(row) is list and all(type(x) is int for x in row)


def test_extension_tables_are_logs_of_a_primitive_element():
    for q in (4, 9, 16, 27, 243, 256, 343, 512):
        gf = field_from_order(q)
        ref = bf.PolyField(gf.p, gf.e)
        n = q - 1
        exp, log = gf._tables["exp"], gf._tables["log"]
        g = exp[1]
        assert exp[:n] == [ref.power(g, k) for k in range(n)]
        assert sorted(exp[:n]) == list(range(1, q))  # g generates the units
        assert exp[n : 2 * n] == exp[:n] and not any(exp[2 * n :])
        assert len(exp) == 3 * n  # 3n - 1 is the largest index a lookup reaches
        assert all(log[exp[k]] == k for k in range(n)) and log[0] == 2 * n
        if gf.p == 2:
            assert "zech" not in gf._tables  # a sum is an XOR
        else:
            assert gf._tables["zech"] == [log[ref.add(1, exp[k])] for k in range(n)]
        # the smallest code that generates the units
        assert all(len({ref.power(h, k) for k in range(n)}) < n for h in range(2, g))


def test_large_extensions_on_rows_match_the_oracle():
    for q in (343, 512):
        gf = field_from_order(q)
        ref = bf.PolyField(gf.p, gf.e)
        rng = random.Random(q)
        a = random_matrix(gf, 3, 4, rng)
        b = random_matrix(gf, 3, 4, rng)
        pairs = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]

        def flat(mat):
            return [x for row in mat for x in row]

        assert flat(gf.add(a, b)) == [ref.add(x, y) for x, y in pairs]
        assert flat(gf.sub(a, b)) == [ref.sub(x, y) for x, y in pairs]
        assert flat(gf.mul(a, b)) == [ref.mul(x, y) for x, y in pairs]
        assert flat(gf.neg(a)) == [ref.neg(x) for x, _ in pairs]
        assert flat(gf.frobenius(a, 1)) == [ref.frobenius(x, 1) for x, _ in pairs]
        for x in range(1, q, 17):
            assert ref.mul(x, gf.inv(x)) == 1
            assert gf.power(x, 5) == ref.power(x, 5)
        M = random_invertible(gf, 5, rng)
        assert rref(gf, M)[1] == 5
        assert matmul(gf, M, matrix_inverse(gf, M)) == [[int(i == j) for j in range(5)] for i in range(5)]
        tau = SemilinearMap(gf, 5, M, 1)
        flag = random_flag(gf, 5, (2, 3, 5), rng=rng)
        image = tau(flag)
        assert image != flag and tau.inverse()(image) == flag


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(9)  # odd, and not prime
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2, 0)
    with pytest.raises(BudgetExceededError):
        GF(2, 21)
    with pytest.raises(BudgetExceededError):
        GF(2, 20)  # the order bound 2^20 itself is refused


def test_equality_and_caching():
    assert make_field(2, 2) is make_field(2, 2)
    assert GF(2, 2) == make_field(2, 2)
    assert hash(GF(2, 2)) == hash(make_field(2, 2))
    assert make_field(2) != make_field(3)
    assert repr(make_field(2, 3)) == "GF(8)"


def test_field_from_order():
    assert field_from_order(8) is make_field(2, 3)
    assert field_from_order(49).p == 7
    assert field_from_order(49).e == 2
    assert field_from_order(2).e == 1
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            field_from_order(bad)


def _sieve(n):
    """The primes below n, by the sieve of Eratosthenes."""
    composite = [False] * n
    primes = []
    for k in range(2, n):
        if not composite[k]:
            primes.append(k)
            for j in range(k * k, n, k):
                composite[j] = True
    return primes


def test_field_from_order_accepts_exactly_the_prime_powers(monkeypatch):
    n = 1 << 12
    powers = {}
    for p in _sieve(n):
        q, e = p, 1
        while q < n:
            powers[q] = (p, e)
            q, e = q * p, e + 1
    # the factoring is under test, not the fields: make_field hands back (p, e)
    monkeypatch.setattr("qgrass.field.make_field", lambda p, e: (p, e))
    for q in range(n):
        if q in powers:
            assert field_from_order(q) == powers[q], q
        else:
            with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
                field_from_order(q)


def test_gf_takes_exactly_the_primes_below_1000():
    primes = set(_sieve(1000))
    for p in range(1000):
        if p in primes:
            assert GF(p).p == p
        else:
            with pytest.raises(ValueError, match=f"^characteristic {p} is not prime$"):
                GF(p)
