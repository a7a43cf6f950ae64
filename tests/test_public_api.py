"""The public names: each job has one entry point, and every export resolves."""

import inspect

import pytest

import qgrass
from qgrass import cli, linalg
from qgrass.field import GF, make_field
from qgrass.group import SemilinearMap, random_semilinear
from qgrass.linalg import Subspace
from qgrass.schubert import SchubertVariety


def test_removed_names_are_gone_and_every_export_resolves():
    # rank is Subspace.from_rows(gf, mat).dim, kernel its perp
    for name in ("rank", "kernel"):
        assert not hasattr(qgrass, name) and not hasattr(linalg, name), name
    # no JSON format stores a field: they all store q
    assert not hasattr(GF, "to_json_dict") and not hasattr(GF, "from_json_dict")
    # SemilinearMap(gf, m, matrix, frobenius_power, dual) builds every map
    assert not hasattr(SemilinearMap, "from_matrix") and not hasattr(SemilinearMap, "frobenius_map")
    # QGRASS_MAX_ENUM bounds point_set; dual=None draws the coin
    assert list(inspect.signature(SchubertVariety.point_set).parameters) == ["self"]
    assert list(inspect.signature(random_semilinear).parameters) == ["gf", "m", "rng", "dual"]
    assert inspect.signature(random_semilinear).parameters["dual"].default is False
    # not any(S.reduce(v)) tests a vector, S != T and S <= T a proper
    # subspace, and alpha_nc(omega.alpha) lists the non-redundant entries
    assert not hasattr(linalg.Subspace, "contains_vector")
    assert linalg.Subspace.__lt__ is object.__lt__
    assert not hasattr(SchubertVariety, "alpha_nc")
    # a map is covariant when not tau.dual, and cli.main(argv) runs a command
    assert not hasattr(SemilinearMap, "is_covariant")
    assert not hasattr(cli, "build_parser")

    assert len(qgrass.__all__) == len(set(qgrass.__all__)) == 45
    for name in qgrass.__all__:
        assert getattr(qgrass, name) is not None, name


# The parameters the one type rule (errors._exact) guards at the public
# entries: seeds, counts and powers are exactly ints, flags exactly
# bools, and an rng is a random.Random, None or exactly an int seed.
INTS = ("seed", "subsample", "frobenius_power", "rng")
BOOLS = ("dual", "include_frobenius", "include_dual", "includes_zero")
WRONG = {"int": (2.5, "2", True), "bool": ("yes",)}


def _entries():
    """(name, callable, valid keyword arguments) for every guarded entry.

    Each call is cheap and valid as it stands; the test swaps one
    argument for a wrong type.
    """
    gf2, gf4 = make_field(2), make_field(2, 2)
    line = Subspace.from_rows(gf2, [[1, 0]])
    omega = SchubertVariety.standard(gf2, 2, (1,))
    entries = [
        ("Flag", qgrass.Flag, dict(gf=gf2, m=2, alpha=(1,), subspaces=(line,), includes_zero=False)),
        ("SemilinearMap", SemilinearMap, dict(gf=gf4, m=2, matrix=[[1, 0], [0, 1]], frobenius_power=1, dual=False)),
        ("random_semilinear", random_semilinear, dict(gf=gf2, m=2, rng=1, dual=False)),
        ("random_subspace", qgrass.random_subspace, dict(gf=gf2, m=2, l=1, rng=1)),
        ("random_flag", qgrass.random_flag, dict(gf=gf2, m=2, alpha=(1,), rng=1)),
        ("linalg.random_matrix", linalg.random_matrix, dict(gf=gf2, nrows=2, ncols=2, rng=1)),
        ("linalg.random_invertible", linalg.random_invertible, dict(gf=gf2, n=2, rng=1)),
        (
            "stabilizer_census",
            qgrass.stabilizer_census,
            dict(omega=omega, include_frobenius=True, include_dual=False, subsample=2, seed=0),
        ),
    ]
    for campaign in qgrass.CAMPAIGNS.values():
        params = inspect.signature(campaign).parameters
        size = "trials" if "trials" in params else "flags_per_alpha"
        entries.append((campaign.__name__, campaign, {"q": 2, "m": 2, "l": 1, size: 1, "seed": 0}))
    return entries


def _guarded(fn):
    return [p for p in inspect.signature(fn).parameters if p in INTS + BOOLS]


def test_the_table_lists_every_guarded_parameter_of_the_public_entries():
    listed = {name: sorted(k for k in kwargs if k in INTS + BOOLS) for name, _, kwargs in _entries()}
    public = {name: getattr(qgrass, name) for name in qgrass.__all__ if callable(getattr(qgrass, name))}
    walked = {name: sorted(_guarded(fn)) for name, fn in public.items() if _guarded(fn)}
    for name in ("random_matrix", "random_invertible"):
        walked[f"linalg.{name}"] = sorted(_guarded(getattr(linalg, name)))
    assert listed == walked


@pytest.mark.parametrize("name,fn,kwargs", _entries(), ids=[name for name, _, _ in _entries()])
def test_every_public_entry_takes_only_ints_and_bools_where_they_are_meant(name, fn, kwargs):
    fn(**kwargs)
    for param in kwargs:
        kind = "int" if param in INTS else "bool" if param in BOOLS else None
        for value in WRONG.get(kind, ()):
            with pytest.raises(ValueError, match=f"^'{param}' must be an? {kind}, got {value!r}$"):
                fn(**dict(kwargs, **{param: value}))
