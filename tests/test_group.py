import hashlib
import itertools
import json
import random

import pytest

from qgrass.field import make_field
from qgrass.grassmann import (
    Flag,
    enumerate_grassmannian,
    random_flag,
    standard_flag,
)
from qgrass.group import (
    SemilinearMap,
    compose,
    enumerate_invertible,
    group_order,
    image_of_schubert,
    is_automorphism_fast,
    is_automorphism_oracle,
    random_semilinear,
)
from qgrass.linalg import Subspace, _identity
from qgrass.schubert import SchubertVariety


def all_subspaces(gf, m):
    out = []
    for l in range(m + 1):
        out.extend(enumerate_grassmannian(gf, m, l))
    return out


def sample_maps(gf, m, seed):
    rng = random.Random(seed)
    maps = [
        SemilinearMap.identity(gf, m),
        SemilinearMap.perp_map(gf, m),
        random_semilinear(gf, m, rng=rng),
        random_semilinear(gf, m, rng=rng, dual=True),
    ]
    if gf.e > 1:
        maps.append(SemilinearMap(gf, m, _identity(m), 1))
        maps.append(random_semilinear(gf, m, rng=rng, dual=None))
    return maps


def test_identity_and_matrix_action(gf2):
    ident = SemilinearMap.identity(gf2, 3)
    for W in all_subspaces(gf2, 3):
        assert ident(W) == W
    swap = SemilinearMap(gf2, 3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    e1 = Subspace.from_rows(gf2, [[1, 0, 0]], ambient=3)
    e2 = Subspace.from_rows(gf2, [[0, 1, 0]], ambient=3)
    assert swap(e1) == e2 and swap(e2) == e1


def test_frobenius_action(gf4):
    tau = SemilinearMap(gf4, 2, _identity(2), 1)
    W = Subspace.from_rows(gf4, [[1, 2]], ambient=2)
    assert tau(W) == Subspace.from_rows(gf4, [[1, 3]], ambient=2)
    # squares: applying it twice is the identity on subspaces
    for S in all_subspaces(gf4, 2):
        assert tau(tau(S)) == S


def test_perp_action_reverses_flags(gf2):
    fl = random_flag(gf2, 4, (1, 2, 4), rng=3)
    tau = SemilinearMap.perp_map(gf2, 4)
    image = tau(fl)
    assert image.alpha == (2, 3) and image.includes_zero
    assert image.subspaces == (fl[1].perp(), fl[0].perp())
    single = fl[0]
    assert tau(single) == single.perp()


@pytest.mark.parametrize("params", [(2, 1, 3), (2, 2, 2)])
def test_compose_matches_pointwise_application(params):
    p, e, m = params
    gf = make_field(p, e)
    spaces = all_subspaces(gf, m)
    maps = sample_maps(gf, m, seed=p * 10 + e)
    for a, b in itertools.product(maps, repeat=2):
        c = compose(a, b)
        assert c == a * b
        for W in spaces:
            assert c(W) == a(b(W))


@pytest.mark.parametrize("params", [(2, 1, 3), (2, 2, 2), (3, 1, 3)])
def test_inverse_matches_pointwise(params):
    p, e, m = params
    gf = make_field(p, e)
    spaces = all_subspaces(gf, m)
    for tau in sample_maps(gf, m, seed=p + e):
        inv = tau.inverse()
        assert inv.dual == tau.dual
        for W in spaces:
            assert inv(tau(W)) == W
            assert tau(inv(W)) == W
        round_trip = compose(tau, inv)
        for W in spaces:
            assert round_trip(W) == W


def test_flag_images_and_zero_tracking(gf2):
    fl = random_flag(gf2, 4, (2, 4), rng=5)
    tau = SemilinearMap.perp_map(gf2, 4)
    image = tau(fl)
    assert image.alpha == (2,)
    assert image.includes_zero
    back = tau(image)
    assert back == fl  # involution thanks to the formal zero member
    lin = random_semilinear(gf2, 4, rng=6)
    assert lin(fl).alpha == (2, 4)


@pytest.mark.parametrize("p, e", [(2, 2), (3, 2)])
def test_a_flag_image_is_the_flag_a_checked_build_gives(p, e):
    # tau(flag) skips Flag's checks; the flag they pass on the same
    # members, zero member included, must be the same
    gf = make_field(p, e)
    rng = random.Random(10 * p + e)
    zero = Subspace.zero(gf, 4)
    seen = set()
    for alpha in itertools.combinations(range(1, 5), 2):
        for includes_zero, k, dual in itertools.product((False, True), range(e), (False, True)):
            flag = Flag(gf, 4, alpha, random_flag(gf, 4, alpha, rng=rng).subspaces, includes_zero)
            tau = SemilinearMap(gf, 4, random_semilinear(gf, 4, rng=rng).matrix, k, dual)
            image = tau(flag)
            members = sorted(map(tau, [zero] * includes_zero + list(flag.subspaces)), key=lambda S: S.dim)
            kept = tuple(S for S in members if S.dim)
            checked = Flag(gf, 4, tuple(S.dim for S in kept), kept, len(kept) < len(members))
            assert image == checked, (alpha, includes_zero, k, dual)
            assert type(image.alpha) is tuple and type(image.includes_zero) is bool
            seen.add((image.includes_zero, k, dual))
    assert len(seen) == 8  # a zero member in and out of each kind of image


def test_map_validation(gf2, gf4):
    with pytest.raises(ValueError):
        SemilinearMap(gf2, 3, [[0] * 3] * 3)
    with pytest.raises(ValueError):
        SemilinearMap(gf2, 3, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        SemilinearMap(gf2, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], frobenius_power=1)
    SemilinearMap(gf4, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], frobenius_power=1)
    tau = SemilinearMap.identity(gf2, 3)
    with pytest.raises(TypeError, match="^cannot apply a semilinear map to str$"):
        tau("not a subspace")
    # a subspace, a flag, a map or a variety of GF(2)^4 or GF(4)^3 meets a
    # map of GF(2)^3
    for x, kind in [
        (Subspace.zero(gf2, 4), "subspace"),
        (Subspace.full(gf4, 3), "subspace"),
        (standard_flag(gf2, 4, (1, 3)), "flag"),
        (standard_flag(gf4, 3, (1,)), "flag"),
    ]:
        with pytest.raises(ValueError, match=f"^{kind} in the wrong ambient space$"):
            tau(x)
    with pytest.raises(ValueError):
        compose(tau, SemilinearMap.identity(gf2, 4))
    omega = SchubertVariety.standard(gf2, 4, (1, 3))
    for act in (image_of_schubert, is_automorphism_fast):
        with pytest.raises(ValueError, match="^map and variety in different ambient spaces$"):
            act(tau, omega)
    assert (tau == 0) is False
    with pytest.raises(AttributeError):
        tau.dual = True


def test_map_json_round_trip(gf4):
    tau = random_semilinear(gf4, 3, rng=11, dual=True)
    data = json.loads(json.dumps(tau.to_json_dict(), sort_keys=True))
    back = SemilinearMap.from_json_dict(data)
    assert back == tau
    assert hash(back) == hash(tau)
    assert back.dual and back.m == 3


@pytest.mark.parametrize(
    "key,value",
    [("dual", "false"), ("dual", 0), ("frobenius_power", 1.9), ("frobenius_power", True), ("m", 3.0), ("q", "4")],
)
def test_map_json_takes_only_ints_and_bools_where_they_are_meant(gf4, key, value):
    data = dict(random_semilinear(gf4, 3, rng=11).to_json_dict(), **{key: value})
    with pytest.raises(ValueError, match=f"^'{key}' must be an? (int|bool), got {value!r}$"):
        SemilinearMap.from_json_dict(data)


def test_map_json_takes_only_int_codes_in_the_matrix(gf4):
    data = dict(random_semilinear(gf4, 3, rng=11).to_json_dict(), matrix=[[1.0, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match=r"codes in \[0, 4\)"):
        SemilinearMap.from_json_dict(data)


def test_covariant_image_matches_pointwise(gf2, gf3):
    for gf, seed in [(gf2, 1), (gf3, 2)]:
        omega = SchubertVariety(random_flag(gf, 4, (2, 3), rng=seed))
        tau = random_semilinear(gf, 4, rng=seed + 10)
        image = image_of_schubert(tau, omega)
        assert image.alpha == omega.alpha
        assert image.point_set() == {tau(W) for W in omega.point_set()}


def test_contravariant_image_matches_pointwise(gf2, gf3, gf4):
    for gf in (gf2, gf3, gf4):
        for alpha, seed in [((2, 4), 0), ((1, 3), 1), ((1, 4), 2), ((2, 3), 7)]:
            omega = SchubertVariety(random_flag(gf, 4, alpha, rng=seed))
            tau = random_semilinear(gf, 4, rng=seed + 20, dual=True)
            image = image_of_schubert(tau, omega)
            assert image.point_set() == {tau(W) for W in omega.point_set()}


def _contravariant_image_bytes():
    """Canonical JSON of contravariant images over several fields and shapes.

    Every tuple of G(2, 4) over GF(2), GF(3) and GF(4) and of G(3, 6)
    over GF(2), each with a seeded random flag and a random contravariant
    map; over GF(4) the maps cycle through both Frobenius powers.
    """
    rng = random.Random(2024)
    for (p, e), m, l in [((2, 1), 4, 2), ((3, 1), 4, 2), ((2, 2), 4, 2), ((2, 1), 6, 3)]:
        gf = make_field(p, e)
        for i, alpha in enumerate(itertools.combinations(range(1, m + 1), l)):
            omega = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
            drawn = random_semilinear(gf, m, rng=rng, dual=True)
            tau = SemilinearMap(gf, m, drawn.matrix, i % gf.e, dual=True)
            yield json.dumps(image_of_schubert(tau, omega).to_json_dict(), sort_keys=True)


def test_contravariant_image_bytes_match_the_frozen_digest():
    # no campaign digest pins these: the benchmark's image tasks use
    # covariant maps and the dual-image campaign records pass or fail only
    text = "\n".join(_contravariant_image_bytes())
    assert text.count("\n") == 3 * 6 + 20 - 1
    assert hashlib.sha256(text.encode()).hexdigest() == "5b26079635b48c5cee37856f2405e11503c874088dd9e7268092296e8cad642b"


def test_contravariant_image_needs_middle_grassmannian(gf2):
    # the image and both criteria refuse the pair by one rule, in one message
    for m in (3, 4):
        omega = SchubertVariety.standard(gf2, m, (1,))
        tau = SemilinearMap.perp_map(gf2, m)
        for act in (image_of_schubert, is_automorphism_fast, is_automorphism_oracle):
            with pytest.raises(ValueError, match="^a contravariant map cannot preserve this Grassmannian unless m = 2l$"):
                act(tau, omega)


def test_the_criterion_never_maps_the_whole_space_member(gf2, monkeypatch):
    """A member at dimension m binds nothing, so neither variance reads it."""
    seen = []
    on_subspace = SemilinearMap._on_subspace
    monkeypatch.setattr(SemilinearMap, "_on_subspace", lambda tau, W: seen.append(W.dim) or on_subspace(tau, W))
    rng = random.Random(3)
    for alpha in ((2, 4), (1, 4), (1, 3, 4), (2, 3), (4,)):
        omega = SchubertVariety(random_flag(gf2, 4, alpha, rng=rng))
        for tau in (SemilinearMap.identity(gf2, 4), random_semilinear(gf2, 4, rng=rng)):
            is_automorphism_fast(tau, omega)
    assert sorted(set(seen)) == [1, 2, 3]
    # (2, 4) is its own reflected complement, so a contravariant map is read too
    seen.clear()
    omega = SchubertVariety(Flag(gf2, 4, (2, 4), (self_perp_plane(gf2), Subspace.full(gf2, 4))))
    assert is_automorphism_fast(SemilinearMap.perp_map(gf2, 4), omega)
    assert seen == [2]


def test_covariant_stabilizer_criterion(gf2):
    omega = SchubertVariety.standard(gf2, 4, (2, 4))
    keep = SemilinearMap(
        gf2,
        4,
        [[1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 1]],
    )
    move = SemilinearMap(
        gf2,
        4,
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    )
    assert is_automorphism_fast(keep, omega)
    assert is_automorphism_oracle(keep, omega)
    assert not is_automorphism_fast(move, omega)
    assert not is_automorphism_oracle(move, omega)
    assert is_automorphism_fast(keep, omega) == is_automorphism_oracle(keep, omega)


def self_perp_plane(gf2):
    return Subspace.from_rows(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]], ambient=4)


def test_perp_symmetric_flag_admits_the_perp_map(gf2):
    a1 = self_perp_plane(gf2)
    assert a1.perp() == a1
    flag = Flag(gf2, 4, (2, 4), (a1, Subspace.full(gf2, 4)))
    omega = SchubertVariety(flag)
    tau = SemilinearMap.perp_map(gf2, 4)
    assert is_automorphism_fast(tau, omega)
    assert is_automorphism_oracle(tau, omega)
    assert is_automorphism_fast(tau, omega) == is_automorphism_oracle(tau, omega)


def test_contravariant_criterion_rejects_non_self_dual(gf2):
    omega = SchubertVariety.standard(gf2, 4, (1, 4))
    tau = SemilinearMap.perp_map(gf2, 4)
    assert not is_automorphism_fast(tau, omega)
    assert not is_automorphism_oracle(tau, omega)


def test_fast_criterion_agrees_with_oracle_at_edge_dimension(gf2):
    omega = SchubertVariety.standard(gf2, 3, (2,))
    tau = SemilinearMap.identity(gf2, 3)
    fast = is_automorphism_fast(tau, omega)
    assert fast == is_automorphism_oracle(tau, omega) == True  # noqa: E712


def test_enumerate_invertible_counts():
    gf2 = make_field(2)
    gf3 = make_field(3)
    small = list(enumerate_invertible(gf2, 2))
    assert len(small) == group_order(2, 2) == 6
    assert small[0] == ((0, 1), (1, 0))
    mats = list(enumerate_invertible(gf3, 2))
    assert len(mats) == group_order(3, 2) == 48
    assert len(set(mats)) == 48
    bigger = list(enumerate_invertible(gf2, 3))
    assert len(bigger) == group_order(2, 3) == 168


def test_group_order_frozen():
    assert group_order(2, 4) == 20160
    assert group_order(2, 3) == 168


def test_random_semilinear_determinism(gf4):
    a = random_semilinear(gf4, 3, rng=99, dual=None)
    b = random_semilinear(gf4, 3, rng=99, dual=None)
    assert a == b
    assert random_semilinear(gf4, 3, rng=1, dual=True).dual
    duals = {random_semilinear(gf4, 3, rng=s, dual=None).dual for s in range(12)}
    assert duals == {True, False}
    ks = {random_semilinear(gf4, 3, rng=s).frobenius_power for s in range(12)}
    assert ks == {0, 1}


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_trusted_maps_equal_validated_ones(p, e):
    """identity, perp, compose, inverse and frobenius match a checked build."""
    gf = make_field(p, e)
    maps = sample_maps(gf, 3, seed=13 * p + e)
    maps += [compose(a, b) for a, b in itertools.product(maps, repeat=2)]
    maps += [tau.inverse() for tau in maps]
    for tau in maps:
        twin = SemilinearMap(gf, 3, tau.matrix, tau.frobenius_power, tau.dual)
        assert twin == tau and hash(twin) == hash(tau)
        assert type(tau.matrix) is tuple
        assert all(type(row) is tuple for row in tau.matrix)
        assert all(type(x) is int for row in tau.matrix for x in row)
        assert type(tau.frobenius_power) is int and type(tau.dual) is bool
        with pytest.raises(AttributeError):
            tau.dual = not tau.dual


def test_map_takes_no_validate_flag(gf2):
    with pytest.raises(TypeError):
        SemilinearMap(gf2, 2, [[1, 0], [0, 1]], validate=False)
