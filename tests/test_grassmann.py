import itertools
import random

import pytest

import bruteforce as bf
from qgrass.errors import BudgetExceededError
from qgrass.field import field_from_order, make_field
from qgrass.grassmann import (
    Flag,
    _cell_offsets,
    _grassmannian_layout,
    adapted_basis,
    check_alpha,
    enumerate_grassmannian,
    enumeration_bound,
    gaussian_binomial,
    random_flag,
    random_subspace,
    rank_subspace,
    standard_flag,
    unrank_subspace,
)
from qgrass.group import SemilinearMap, random_semilinear
from qgrass.linalg import Subspace, _identity
from qgrass.schubert import SchubertVariety
from qgrass.verify import stabilizer_census


def test_gaussian_binomial_frozen_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(3, 1, 2) == 7


def test_gaussian_binomial_edges_and_symmetry():
    for m in range(7):
        assert gaussian_binomial(m, 0, 2) == 1
        assert gaussian_binomial(m, m, 3) == 1
        for l in range(m + 1):
            assert gaussian_binomial(m, l, 2) == gaussian_binomial(m, m - l, 2)
    assert gaussian_binomial(3, 4, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0


@pytest.mark.parametrize(
    "m,l,p", [(3, 1, 2), (3, 2, 2), (4, 2, 2), (3, 1, 3), (3, 2, 3), (4, 2, 3)]
)
def test_gaussian_binomial_matches_raw_enumeration(m, l, p):
    assert gaussian_binomial(m, l, p) == bf.naive_subspace_count(m, l, p)


def test_gaussian_binomial_matches_polynomial():
    for m in range(1, 7):
        for l in range(m + 1):
            poly = bf.q_binomial_poly(m, l)
            for q in (2, 3, 4):
                assert gaussian_binomial(m, l, q) == bf.poly_eval(poly, q)


def test_enumeration_is_complete_and_canonical(gf2):
    pts = list(enumerate_grassmannian(gf2, 4, 2))
    assert len(pts) == 35
    assert len(set(pts)) == 35
    assert all(W.dim == 2 and W.m == 4 for W in pts)
    got = {frozenset(tuple(map(int, v)) for v in W.vectors()) for W in pts}
    expect = set(bf.naive_subspaces(4, 2, 2))
    assert got == expect
    # first point is the leading-coordinate plane
    assert pts[0].basis == ((1, 0, 0, 0), (0, 1, 0, 0))


@pytest.mark.parametrize(
    "q,m,l", [(2, 4, 2), (3, 3, 2), (2, 5, 2), (4, 3, 1), (3, 5, 1), (4, 5, 2), (2, 6, 3)]
)
def test_rank_unrank_round_trip(q, m, l):
    gf = make_field(*((2, 2) if q == 4 else (q, 1)))
    pts = list(enumerate_grassmannian(gf, m, l))
    assert [rank_subspace(W) for W in pts] == list(range(len(pts)))
    assert len(pts) == gaussian_binomial(m, l, q)
    for r in range(0, len(pts), 7):
        assert unrank_subspace(gf, m, l, r) == pts[r]
    with pytest.raises(ValueError):
        unrank_subspace(gf, m, l, len(pts))


@pytest.mark.parametrize("q,m,l", [(3, 5, 2), (2, 6, 3)])
def test_rank_reads_one_offset_table_per_shape(q, m, l):
    gf = make_field(q)
    pts = list(enumerate_grassmannian(gf, m, l))
    assert [rank_subspace(W) for W in pts] == list(range(len(pts)))
    assert [unrank_subspace(gf, m, l, r) for r in range(len(pts))] == pts
    offsets = _cell_offsets(m, l, q)
    assert offsets is _cell_offsets(m, l, q)
    assert len(offsets) == len(_grassmannian_layout(m, l))
    for W in pts:
        offset, free = offsets[W.pivots]
        assert offset <= rank_subspace(W) < offset + q ** len(free)


def test_enumeration_budget(gf2, monkeypatch):
    with pytest.raises(BudgetExceededError):
        list(enumerate_grassmannian(gf2, 25, 12))
    with pytest.raises(BudgetExceededError):
        list(enumerate_grassmannian(gf2, 4, 2, limit=10))
    monkeypatch.setenv("QGRASS_MAX_ENUM", "34")
    assert enumeration_bound() == 34
    with pytest.raises(BudgetExceededError):
        list(enumerate_grassmannian(gf2, 4, 2))
    monkeypatch.delenv("QGRASS_MAX_ENUM")
    assert len(list(enumerate_grassmannian(gf2, 4, 2))) == 35


def test_random_subspace_is_seeded_and_spread(gf2):
    a = random_subspace(gf2, 4, 2, rng=123)
    b = random_subspace(gf2, 4, 2, rng=123)
    assert a == b
    rng = random.Random(0)
    seen = {random_subspace(gf2, 4, 2, rng=rng) for _ in range(200)}
    assert len(seen) >= 30  # of 35


def test_draws_without_an_rng_are_valid(gf2):
    # rng=None draws from a fresh, unseeded random.Random
    fl = random_flag(gf2, 4, (2, 4))
    assert fl.alpha == (2, 4) and fl[0] != fl[1] and fl[0] <= fl[1] == Subspace.full(gf2, 4)
    assert Flag.from_json_dict(fl.to_json_dict()) == fl
    W = random_subspace(gf2, 4, 2)
    assert W.dim == 2 and W == Subspace(gf2, W.basis, ambient=4)
    assert 0 <= rank_subspace(W) < 35


def test_check_alpha():
    assert check_alpha((1, 3), 4) == (1, 3)
    assert check_alpha([2], 2) == (2,)
    assert check_alpha((), 4, allow_empty=True) == ()
    for bad in [(), (0, 1), (2, 2), (3, 1), (1, 5)]:
        if bad == ():
            with pytest.raises(ValueError):
                check_alpha(bad, 4)
            continue
        with pytest.raises(ValueError):
            check_alpha(bad, 4)


def test_standard_flag_members(gf2):
    fl = standard_flag(gf2, 4, (1, 3))
    assert fl.alpha == (1, 3)
    assert fl[0].dim == 1 and fl[1].dim == 3
    assert fl[1].basis == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert fl[fl.alpha.index(3)] == fl[1]
    assert 2 not in fl.alpha
    assert len(fl.subspaces) == 2


def test_flag_validation(gf2, gf3):
    W1 = Subspace.from_rows(gf2, [[1, 0, 0, 0]], ambient=4)
    W2 = Subspace.from_rows(gf2, [[0, 1, 0, 0], [0, 0, 1, 0]], ambient=4)
    with pytest.raises(ValueError):
        Flag(gf2, 4, (1, 2), (W1, W2))  # not nested
    with pytest.raises(ValueError):
        Flag(gf2, 4, (1,), (W2,))  # wrong dimension
    with pytest.raises(ValueError):
        Flag(gf2, 4, (1, 2), (W1,))  # length mismatch
    W3 = Subspace.from_rows(gf3, [[1, 0, 0, 0]], ambient=4)
    with pytest.raises(ValueError):
        Flag(gf2, 4, (1,), (W3,))  # wrong field
    with pytest.raises(TypeError):
        Flag(gf2, 4, (1,), (((1, 0, 0, 0),),))  # rows, not a Subspace


def test_random_flag_reproducible(gf3):
    f1 = random_flag(gf3, 4, (1, 2, 4), rng=9)
    f2 = random_flag(gf3, 4, (1, 2, 4), rng=9)
    assert f1 == f2
    assert f1.alpha == (1, 2, 4)
    for i in range(2):
        assert f1[i] != f1[i + 1] and f1[i] <= f1[i + 1]


def test_flag_json_round_trip(gf2):
    fl = random_flag(gf2, 4, (2, 3), rng=5)
    data = fl.to_json_dict()
    assert data["q"] == 2 and data["alpha"] == [2, 3]
    back = Flag.from_json_dict(data)
    assert back == fl


@pytest.mark.parametrize(
    "key,value,kind",
    [
        ("q", 2.7, "an int"),
        ("m", True, "an int"),
        ("alpha", [1.5, 3], "a list of ints"),
        ("alpha", "23", "a list of ints"),
        ("includes_zero", "no", "a bool"),
        ("includes_zero", 1, "a bool"),
    ],
)
def test_flag_json_takes_only_ints_and_bools_where_they_are_meant(gf2, key, value, kind):
    data = dict(random_flag(gf2, 4, (2, 3), rng=5).to_json_dict(), **{key: value})
    with pytest.raises(ValueError, match=f"^'{key}' must be {kind}, got "):
        Flag.from_json_dict(data)


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: SemilinearMap(make_field(2), 2, _identity(2), 0, "false"), "dual"),
        (lambda: SemilinearMap(make_field(2), 2, _identity(2), 0, 0), "dual"),
        (lambda: SemilinearMap(make_field(2, 2), 2, _identity(2), 1.9), "frobenius_power"),
        (lambda: SemilinearMap(make_field(2, 2), 2, _identity(2), True), "frobenius_power"),
        (lambda: field_from_order(2.7), "q"),
        (lambda: field_from_order("4"), "q"),
        (lambda: field_from_order(True), "q"),
        (lambda: standard_flag(make_field(2), 4, (1.9, 3)), "alpha"),
        (lambda: random_flag(make_field(3), 4, (1, "3"), rng=1), "alpha"),
        (lambda: Flag(make_field(2), 4, (True,), (Subspace.from_rows(make_field(2), [[1, 0, 0, 0]]),)), "alpha"),
        (lambda: random_flag(make_field(2), 4, (2, 4), rng=2.7), "rng"),
        (lambda: random_flag(make_field(2), 4, (2, 4), rng="5"), "rng"),
        (lambda: random_flag(make_field(2), 4, (2, 4), rng=True), "rng"),
        (lambda: random_subspace(make_field(2), 4, 2, rng=1.0), "rng"),
        (lambda: random_semilinear(make_field(2), 2, rng=1, dual="false"), "dual"),
        (lambda: random_semilinear(make_field(2), 2, rng=1, dual=0), "dual"),
        (lambda: stabilizer_census(SchubertVariety.standard(make_field(2), 2, (1, 2)), include_dual="no"), "include_dual"),
        (lambda: stabilizer_census(SchubertVariety.standard(make_field(2), 2, (1, 2)), include_frobenius=1), "include_frobenius"),
    ],
    ids=[
        "dual-str",
        "dual-int",
        "power-float",
        "power-bool",
        "q-float",
        "q-str",
        "q-bool",
        "alpha-float",
        "alpha-str",
        "alpha-bool",
        "rng-float",
        "rng-str",
        "rng-bool",
        "subspace-rng-float",
        "random-dual-str",
        "random-dual-int",
        "census-dual-str",
        "census-frobenius-int",
    ],
)
def test_constructors_take_only_ints_and_bools_where_they_are_meant(build, name):
    # the rule the JSON readers apply: no int() or bool() coercion
    with pytest.raises(ValueError, match=f"^'{name}' must "):
        build()


def test_dual_flag_is_an_involution(gf2, gf3):
    cases = [
        (gf2, 4, (1, 3)),
        (gf2, 4, (2, 4)),
        (gf3, 4, (1, 2, 3, 4)),
        (gf2, 5, (5,)),
    ]
    for gf, m, alpha in cases:
        fl = random_flag(gf, m, alpha, rng=sum(alpha))
        perp = SemilinearMap.perp_map(gf, m)
        dd = perp(perp(fl))
        assert dd == fl
        dl = perp(fl)
        formal_dims = ((0,) if fl.includes_zero else ()) + fl.alpha
        expect_dims = tuple(sorted(m - d for d in formal_dims if m - d > 0))
        assert dl.alpha == expect_dims
        assert dl.includes_zero == (m in formal_dims)
        # members are the annihilators
        for a, S in zip(fl.alpha, fl.subspaces):
            if m - a > 0:
                assert dl[dl.alpha.index(m - a)] == S.perp()


def test_adapted_basis_realizes_the_flag(gf2, gf3):
    for gf, m, alpha, seed in [
        (gf2, 4, (1, 3), 1),
        (gf2, 5, (2, 4), 2),
        (gf3, 4, (2, 3, 4), 3),
    ]:
        fl = random_flag(gf, m, alpha, rng=seed)
        basis = adapted_basis(fl)
        assert [len(row) for row in basis] == [m] * m
        for a, S in zip(alpha, fl.subspaces):
            assert Subspace.from_rows(gf, basis[:a], ambient=m) == S
        assert Subspace.from_rows(gf, basis, ambient=m).dim == m


def _reverse_flag(gf, m, alpha):
    """Members spanned by the last coordinate vectors."""
    eye = Subspace.full(gf, m).basis
    return Flag(gf, m, alpha, tuple(Subspace.from_rows(gf, eye[m - a :], ambient=m) for a in alpha))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_adapted_basis_matches_the_vector_scan(p, e):
    gf, ref = make_field(p, e), bf.cached_field(p, e)
    rng = random.Random(37 * p + e)
    for m in range(1, 6 if gf.q < 5 else 5):
        for l in range(1, m + 1):
            for alpha in itertools.combinations(range(1, m + 1), l):
                for flag in (_reverse_flag(gf, m, alpha), random_flag(gf, m, alpha, rng=rng)):
                    members = [S.basis for S in flag.subspaces]
                    want = bf.adapted_basis_scan(members, ref, m)
                    assert [tuple(row) for row in adapted_basis(flag)] == want


def test_adapted_basis_enumerates_no_vectors(monkeypatch):
    # the scan would walk q^3 vectors of the top member here
    gf = make_field(2, 9)

    def refuse(self, nonzero=False):
        raise AssertionError("adapted_basis enumerated a subspace")

    monkeypatch.setattr(Subspace, "vectors", refuse)
    flag = _reverse_flag(gf, 6, (2, 3, 5))
    eye = [list(row) for row in Subspace.full(gf, 6).basis]
    assert adapted_basis(flag) == eye[::-1]
