"""The public names: each job has one entry point, and every export resolves."""

import inspect

import qgrass
from qgrass import linalg
from qgrass.field import GF
from qgrass.group import SemilinearMap, random_semilinear
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

    assert len(qgrass.__all__) == len(set(qgrass.__all__)) == 45
    for name in qgrass.__all__:
        assert getattr(qgrass, name) is not None, name
