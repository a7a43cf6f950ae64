import itertools
import json
import random

import pytest

import bruteforce as bf
from qgrass import schubert
from qgrass.errors import BudgetExceededError
from qgrass.field import field_from_order, make_field
from qgrass.grassmann import (
    Flag,
    enumerate_grassmannian,
    gaussian_binomial,
    random_flag,
    standard_flag,
)
from qgrass.group import is_automorphism_fast, is_automorphism_oracle
from qgrass.linalg import Subspace, intersection_dim
from qgrass.schubert import (
    SchubertVariety,
    alpha_nc,
    cell_count_polynomial,
    condition_word,
    dual_index_set,
    equal_fast,
    equal_oracle,
    equality_witness,
    polynomial_value,
)
from qgrass.verify import _flag_stabilizer, _resample_member

# point counts over GF(2), ambient dimension 4, points of dimension 2,
# one per dimension tuple; frozen from the enumeration oracle below
COUNTS_M4_L2_Q2 = {
    (1, 2): 1,
    (1, 3): 3,
    (1, 4): 7,
    (2, 3): 7,
    (2, 4): 19,
    (3, 4): 35,
}


def test_alpha_nc():
    assert alpha_nc((2, 4)) == (2, 4)
    assert alpha_nc((1, 2, 3)) == (3,)
    assert alpha_nc((1, 3, 4)) == (1, 4)
    assert alpha_nc((2,)) == (2,)
    assert alpha_nc((1, 2, 4, 5, 7)) == (2, 5, 7)


def test_condition_word():
    assert condition_word((2, 4), 4) == (0, 1, 1, 2)
    assert condition_word((1, 3), 4) == (1, 1, 2, 2)
    assert condition_word((1, 2, 3), 3) == (1, 2, 3)


def test_dual_index_set():
    assert dual_index_set((1, 4), 4) == (2, 3)
    assert dual_index_set((2, 3), 4) == (1, 4)
    self_dual = [
        a
        for l in (1, 2, 3)
        for a in itertools.combinations(range(1, 5), l)
        if dual_index_set(a, 4) == a
    ]
    assert self_dual == [(1, 2), (1, 3), (2, 4), (3, 4)]
    # reflection of the complement is an involution
    for l in (1, 2):
        for a in itertools.combinations(range(1, 6), l):
            d = dual_index_set(a, 6)
            assert len(d) == 6 - l
            assert dual_index_set(d, 6) == a


def test_cell_count_polynomial_frozen():
    assert cell_count_polynomial((2, 4), 4) == (1, 1, 2, 1)
    assert polynomial_value((1, 1, 2, 1), 2) == 19
    assert cell_count_polynomial((1, 4), 4) == (1, 1, 1)
    assert cell_count_polynomial((2, 3), 4) == (1, 1, 1)
    # the full variety recovers the whole Grassmannian count
    assert cell_count_polynomial((3, 4), 4) == bf.q_binomial_poly(4, 2)
    assert cell_count_polynomial((2, 3, 4), 4) == bf.q_binomial_poly(4, 3)


@pytest.mark.parametrize("q", [2, 3])
def test_counts_match_enumeration_m4(q):
    gf = make_field(q)
    for alpha in itertools.combinations(range(1, 5), 2):
        omega = SchubertVariety.standard(gf, 4, alpha)
        expect = polynomial_value(cell_count_polynomial(alpha, 4), q)
        assert omega.count_points() == expect
        if q == 2:
            assert expect == COUNTS_M4_L2_Q2[alpha]


def test_point_count_tie_exists():
    # distinct dimension tuples can share a point count: these two do
    assert COUNTS_M4_L2_Q2[(1, 4)] == COUNTS_M4_L2_Q2[(2, 3)] == 7


def test_counts_are_flag_independent(gf2, gf3):
    for gf, seed in [(gf2, 1), (gf3, 2)]:
        for alpha in [(1, 3), (2, 4), (1, 2, 4)]:
            std = SchubertVariety.standard(gf, 4, alpha)
            rnd = SchubertVariety(random_flag(gf, 4, alpha, rng=seed))
            assert std.count_points() == rnd.count_points()


def test_membership_matches_span_set_oracle(gf2):
    omega = SchubertVariety.standard(gf2, 4, (2, 4))
    a1 = bf.span_set([[1, 0, 0, 0], [0, 1, 0, 0]], 2, 4)
    pts = []
    for W in bf.naive_subspaces(4, 2, 2):
        if len(W & a1) >= 2:  # spans meet in dimension >= 1
            pts.append(W)
    assert len(pts) == 19
    got = {
        frozenset(tuple(map(int, v)) for v in W.vectors())
        for W in omega.points()
    }
    assert got == set(pts)


def test_minimal_and_full_conditions_agree(gf2):
    rng = random.Random(13)
    for alpha in [(1, 2), (1, 3), (1, 2, 4), (2, 3, 4)]:
        omega = SchubertVariety(random_flag(gf2, 4, alpha, rng=rng.randrange(2**30)))
        assert len(omega.nc_positions) == len(alpha_nc(alpha))
        for W in enumerate_grassmannian(gf2, 4, len(alpha)):
            full = all(intersection_dim(W, S) > i for i, S in enumerate(omega.flag.subspaces))
            assert omega.contains(W) == full


def test_contains_validates_input(gf2, gf3):
    omega = SchubertVariety.standard(gf2, 4, (1, 3))
    with pytest.raises(ValueError):
        omega.contains(Subspace.zero(gf2, 4))  # wrong dimension
    with pytest.raises(ValueError):
        omega.contains(Subspace.from_rows(gf3, [[1, 0, 0, 0], [0, 1, 0, 0]], ambient=4))
    with pytest.raises(TypeError):
        omega.contains([[1, 0, 0, 0]])


def test_redundant_member_does_not_matter(gf2):
    a2 = Subspace.from_rows(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]], ambient=4)
    f1 = Flag(gf2, 4, (1, 2), (Subspace.from_rows(gf2, [[1, 0, 0, 0]], ambient=4), a2))
    f2 = Flag(gf2, 4, (1, 2), (Subspace.from_rows(gf2, [[0, 1, 0, 0]], ambient=4), a2))
    o1, o2 = SchubertVariety(f1), SchubertVariety(f2)
    assert o1.flag != o2.flag
    assert equal_fast(o1, o2)
    assert equal_oracle(o1, o2)
    assert equality_witness(o1, o2) is None
    assert o1.point_set() == frozenset({a2})


def test_nonredundant_member_matters(gf2):
    # same top member, different bottom member at a non-redundant spot
    f1 = standard_flag(gf2, 4, (1, 4))
    moved = Subspace.from_rows(gf2, [[0, 1, 0, 0]], ambient=4)
    f2 = Flag(gf2, 4, (1, 4), (moved, f1[1]))
    o1, o2 = SchubertVariety(f1), SchubertVariety(f2)
    assert not equal_fast(o1, o2)
    assert not equal_oracle(o1, o2)
    W = equality_witness(o1, o2)
    assert W is not None
    assert o1.contains(W) != o2.contains(W)


def test_witness_at_top_condition(gf2):
    f1 = standard_flag(gf2, 4, (1, 3))
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    f2 = Flag(gf2, 4, (1, 3), (f1[0], Subspace.from_rows(gf2, rows, ambient=4)))
    o1, o2 = SchubertVariety(f1), SchubertVariety(f2)
    W = equality_witness(o1, o2)
    assert W is not None and W.dim == 2
    assert o1.contains(W) != o2.contains(W)
    # in G(1, 3) the witness is the searched line alone, with no generators
    plane = Subspace.from_rows(gf2, [[1, 0, 0], [0, 0, 1]], ambient=3)
    o1 = SchubertVariety.standard(gf2, 3, (2,))
    o2 = SchubertVariety(Flag(gf2, 3, (2,), (plane,)))
    W = equality_witness(o1, o2)
    assert W is not None and W.dim == 1
    assert o1.contains(W) != o2.contains(W)


def test_witness_for_distinct_dimension_tuples(gf2):
    o1 = SchubertVariety.standard(gf2, 4, (1, 2))
    o2 = SchubertVariety.standard(gf2, 4, (1, 3))
    assert not equal_fast(o1, o2)
    W = equality_witness(o1, o2)
    assert o1.contains(W) != o2.contains(W)


def test_witness_for_different_point_dimensions_is_the_first_point(gf3):
    # points of different dimensions never coincide, so any point of the
    # first variety separates; the witness is its canonical first one
    rng = random.Random(20)
    for _ in range(5):
        o1 = SchubertVariety(random_flag(gf3, 3, (2, 3), rng=rng))
        o2 = SchubertVariety(random_flag(gf3, 3, (3,), rng=rng))
        for oa, ob in ((o1, o2), (o2, o1)):
            W = equality_witness(oa, ob)
            assert W == next(oa.points()) and oa.contains(W)


def test_a_scan_that_separates_nothing_returns_none(gf2, monkeypatch):
    # distinct tuples never give one point set, so the scan always finds a
    # point; under a membership that takes every point it finds none
    monkeypatch.setattr(SchubertVariety, "contains", lambda self, W: True)
    o1 = SchubertVariety.standard(gf2, 4, (1, 2))
    o2 = SchubertVariety.standard(gf2, 4, (1, 3))
    assert equality_witness(o1, o2) is None


def test_variety_json_round_trip(gf3):
    omega = SchubertVariety(random_flag(gf3, 4, (2, 3), rng=8))
    data = omega.to_json_dict()
    text = json.dumps(data, sort_keys=True)
    back = SchubertVariety.from_json_dict(json.loads(text))
    assert back == omega
    # a bare flag payload is accepted too
    back2 = SchubertVariety.from_json_dict(omega.flag.to_json_dict())
    assert back2 == omega
    bad = dict(data)
    bad["alpha"] = [1, 2]
    with pytest.raises(ValueError):
        SchubertVariety.from_json_dict(bad)
    bad = dict(data, flag=random_flag(gf3, 5, (2, 3), rng=8).to_json_dict())
    with pytest.raises(ValueError):
        SchubertVariety.from_json_dict(bad)  # the flag's m is not the variety's


@pytest.mark.parametrize("key,value", [("q", 3.0), ("m", 4.0), ("alpha", [2, 3.0])])
def test_variety_json_header_takes_only_ints(gf3, key, value):
    data = SchubertVariety(random_flag(gf3, 4, (2, 3), rng=8)).to_json_dict()
    with pytest.raises(ValueError, match=f"^'{key}' must be "):
        SchubertVariety.from_json_dict(dict(data, **{key: value}))


def test_descriptor_identity(gf2):
    o1 = SchubertVariety.standard(gf2, 4, (1, 3))
    o2 = SchubertVariety.standard(gf2, 4, (1, 3))
    assert o1 == o2 and hash(o1) == hash(o2)
    o3 = SchubertVariety(random_flag(gf2, 4, (1, 3), rng=3))
    assert o1 != o3 or o1.flag == o3.flag
    assert (o1 == 0) is False
    with pytest.raises(ValueError):
        SchubertVariety(Flag(gf2, 4, (), ()))
    with pytest.raises(TypeError):
        SchubertVariety(None)
    with pytest.raises(ValueError):
        equal_fast(o1, SchubertVariety.standard(make_field(3), 4, (1, 3)))


def test_point_set_budget_holds_after_the_cache_is_filled(gf2, monkeypatch):
    omega = SchubertVariety.standard(gf2, 6, (3, 6))
    assert len(omega.point_set()) == omega.count_points() == 203
    with pytest.raises(BudgetExceededError):
        omega.count_points(limit=10)
    monkeypatch.setenv("QGRASS_MAX_ENUM", "10")
    with pytest.raises(BudgetExceededError):
        omega.point_set()
    assert omega.count_points(limit=10**6) == 203


@pytest.mark.parametrize("q,m,l", [(2, 4, 2), (3, 4, 2), (2, 5, 3)])
def test_budget_admits_exactly_the_grassmannian_size(q, m, l, monkeypatch):
    gf = make_field(q)
    total = gaussian_binomial(m, l, q)
    omega = SchubertVariety(random_flag(gf, m, tuple(range(m - l + 1, m + 1)), rng=q))
    assert sum(1 for _ in enumerate_grassmannian(gf, m, l, limit=total)) == total
    assert omega.count_points(limit=total) == total
    monkeypatch.setenv("QGRASS_MAX_ENUM", str(total))
    assert len(omega.point_set()) == total
    with pytest.raises(BudgetExceededError):
        next(enumerate_grassmannian(gf, m, l, limit=total - 1))
    with pytest.raises(BudgetExceededError):
        omega.count_points(limit=total - 1)
    monkeypatch.setenv("QGRASS_MAX_ENUM", str(total - 1))
    with pytest.raises(BudgetExceededError):
        omega.point_set()  # the cached set
    with pytest.raises(BudgetExceededError):
        SchubertVariety(omega.flag).point_set()  # a fresh walk


@pytest.mark.parametrize("q,m,l", [(2, 4, 2), (3, 4, 2), (4, 4, 2), (2, 5, 2), (2, 5, 3), (2, 6, 3)])
def test_witness_at_the_top_condition_needs_no_scan(q, m, l, monkeypatch):
    """Pairs differing at the top non-redundant member get a direct witness."""

    def refuse(*args, **kwargs):
        raise AssertionError("equality_witness scanned the Grassmannian")

    monkeypatch.setattr("qgrass.schubert.enumerate_grassmannian", refuse)
    gf = field_from_order(q)
    rng = random.Random(11)
    kept = 0
    for _ in range(300):
        alpha = tuple(sorted(rng.sample(range(1, m), l)))
        o1 = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
        o2 = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
        nc = set(alpha_nc(alpha))
        diffs = [i for i, a in enumerate(alpha) if a in nc and o1.flag[i] != o2.flag[i]]
        if l - 1 not in diffs:
            continue
        kept += 1
        W = equality_witness(o1, o2)
        assert o1.contains(W) != o2.contains(W)
    assert kept > 200


def test_a_variety_builds_its_adapted_basis_and_inverse_once(monkeypatch):
    bases, inverses = [], []
    adapted_basis, inverse = schubert.adapted_basis, schubert._inverse

    def counted_basis(flag):
        bases.append(flag)
        return adapted_basis(flag)

    def counted_inverse(gf, rows):
        inverses.append(rows)
        return inverse(gf, rows)

    monkeypatch.setattr(schubert, "adapted_basis", counted_basis)
    monkeypatch.setattr(schubert, "_inverse", counted_inverse)
    gf = make_field(3)
    rng = random.Random(12)
    omega = SchubertVariety(random_flag(gf, 4, (1, 3), rng=rng))
    tau = _flag_stabilizer(omega, rng)
    assert is_automorphism_fast(tau, omega) and is_automorphism_oracle(tau, omega)
    # the members at dimension 1 differ, and both are non-redundant
    other = SchubertVariety(_resample_member(omega.flag, 0, rng))
    assert not equal_oracle(omega, other) and not equal_oracle(other, omega)
    W = equality_witness(omega, other)
    assert omega.contains(W) != other.contains(W)
    assert omega.count_points() == other.count_points() == polynomial_value(omega.count_polynomial(), 3)
    assert bases == [omega.flag, other.flag]
    assert inverses == [omega._adapted(), other._adapted()]
