"""Campaign harness tests: green on healthy code, red under every mutant."""

import dataclasses
import hashlib
import inspect
import itertools
import json
import re

import pytest

import bruteforce as bf
from qgrass.cli import main
from qgrass.errors import BudgetExceededError
from qgrass.field import make_field
from qgrass.group import (
    SemilinearMap,
    image_of_schubert,
    is_automorphism_fast,
    is_automorphism_oracle,
    random_semilinear,
)
from qgrass.schubert import SchubertVariety, _images_within, dual_index_set, equal_oracle
from qgrass.verify import (
    CAMPAIGNS,
    VerificationReport,
    _covariant_case,
    _member_mover,
    _perp_symmetric_flag,
    _resample_member,
    stabilizer_census,
    verify_alpha_uniqueness,
    verify_automorphism_criterion,
    verify_covariant_criterion,
    verify_dual_image,
    verify_flag_equality,
    verify_redundancy,
)
from qgrass.grassmann import Flag, random_flag
import random


def test_redundancy_campaign_passes():
    rep = verify_redundancy(2, 4, 2, flags_per_alpha=4, seed=11)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 6 * 4 * 35
    assert rep.parameters["mode"] == "exhaustive"


def test_redundancy_sampling_with_no_points_is_refused():
    with pytest.raises(ValueError, match="sample_points=0"):
        verify_redundancy(2, 4, 2, mode="sample", flags_per_alpha=1, sample_points=0)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        verify_redundancy(2, 4, 2, mode="bogus", flags_per_alpha=1)


def test_redundancy_campaign_other_field():
    rep = verify_redundancy(3, 4, 2, flags_per_alpha=2, seed=11)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 6 * 2 * 130


def test_redundancy_mutant_fails():
    rep = verify_redundancy(
        2, 4, 2, flags_per_alpha=3, seed=11, mutant="drop-nonredundant-condition"
    )
    assert rep.verdict == "fail"
    assert rep.failures
    assert rep.failures[0]["reduced"] != rep.failures[0]["full"]


def test_redundancy_sample_mode():
    rep = verify_redundancy(
        2, 4, 2, mode="sample", flags_per_alpha=2, sample_points=30, seed=11
    )
    assert rep.verdict == "pass"
    assert rep.cases_tested == 6 * 2 * 30


def test_flag_equality_campaign_passes_and_witnesses():
    rep = verify_flag_equality(2, 4, 2, trials=80, seed=2)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 80
    assert rep.parameters["negative_cases"] > 0
    assert rep.parameters["witnessed"] == rep.parameters["negative_cases"]


def test_flag_equality_mutant_fails():
    rep = verify_flag_equality(2, 4, 2, trials=80, seed=2, mutant="alpha-for-alpha-nc")
    assert rep.verdict == "fail"
    problems = {f["problem"] for f in rep.failures}
    assert "fast-oracle-disagreement" in problems


def test_dual_image_campaign_passes():
    rep = verify_dual_image(2, 4, 2, trials=8, seed=6)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 8 * 6


def test_dual_image_needs_middle_dimension():
    with pytest.raises(ValueError):
        verify_dual_image(2, 4, 1)


def test_dual_image_mutant_fails():
    rep = verify_dual_image(2, 4, 2, trials=4, seed=6, mutant="dual-formula-m-minus-j")
    assert rep.verdict == "fail"
    problems = {f["problem"] for f in rep.failures}
    assert problems <= {"image-flag-invalid", "image-points-differ"}
    assert problems


def test_covariant_criterion_campaign():
    rep = verify_covariant_criterion(2, 4, 2, trials=60, seed=4)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 60


def test_covariant_criterion_with_frobenius_twists():
    rep = verify_covariant_criterion(4, 3, 1, trials=40, seed=4)
    assert rep.verdict == "pass"


def test_automorphism_criterion_campaign():
    rep = verify_automorphism_criterion(2, 4, 2, trials=90, seed=8)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 90


def test_automorphism_criterion_off_middle_falls_back_to_covariant():
    rep = verify_automorphism_criterion(2, 4, 1, trials=30, seed=8)
    assert rep.verdict == "pass"


def test_automorphism_mutant_fails():
    rep = verify_automorphism_criterion(
        2, 4, 2, trials=90, seed=8, mutant="skip-contravariant-set-check"
    )
    assert rep.verdict == "fail"
    assert any(f.get("contravariant") for f in rep.failures)


def test_covariant_mutant_fails_on_stabilizers():
    rep = verify_covariant_criterion(2, 4, 2, trials=60, seed=4, mutant="fix-every-member")
    assert rep.verdict == "fail"
    assert "stabilizing" in {f["kind"] for f in rep.failures}
    # only a moved redundant member can trip it: the oracle still accepts
    assert all(f["oracle"] and not f["fast"] for f in rep.failures)


def test_alpha_uniqueness_mutant_merges_equal_counts():
    rep = verify_alpha_uniqueness(2, 4, 2, flags_per_alpha=2, seed=0, mutant="bucket-by-point-count")
    assert rep.verdict == "fail"
    shared = {(tuple(map(tuple, f["alphas"])), f["size"]) for f in rep.failures}
    assert (((1, 4), (2, 3)), 7) in shared


def test_alpha_uniqueness_campaign():
    rep = verify_alpha_uniqueness(2, 4, 2, flags_per_alpha=8, seed=0)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 6 * 8
    assert rep.parameters["distinct_point_sets"] <= rep.cases_tested


def test_unknown_mutant_rejected():
    with pytest.raises(ValueError):
        verify_redundancy(2, 3, 1, mutant="no-such-mutant")
    with pytest.raises(ValueError):
        verify_covariant_criterion(2, 3, 1, mutant="drop-nonredundant-condition")


def test_reports_are_seed_deterministic():
    a = verify_flag_equality(2, 4, 2, trials=24, seed=5)
    b = verify_flag_equality(2, 4, 2, trials=24, seed=5)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    c = verify_flag_equality(2, 4, 2, trials=24, seed=6)
    assert json.dumps(a.to_json_dict(), sort_keys=True) != json.dumps(
        c.to_json_dict(), sort_keys=True
    )


# SHA-256 of the canonical report bytes, frozen from the per-campaign
# implementation that preceded the shared runner; any drift in seeding,
# trial order, counters, sorting or truncation changes them
GOLDEN_REPORTS = [
    ("redundancy", (2, 4, 2), dict(flags_per_alpha=3, seed=9),
     "ecc6f0cdd74afb0050225d6e9e631f13d8176395cf75e35791aa22cda7f28292"),
    ("redundancy", (2, 4, 2), dict(mode="sample", flags_per_alpha=2, sample_points=30, seed=11),
     "a1a3d8724b971d36145f4fe71093bc63309af7a0cc6bb7743d905f7ff418e91e"),
    ("redundancy", (3, 4, 2), dict(flags_per_alpha=1, seed=11),
     "5502b66b6fa1ee006635892c1a19c3e88c94bfb878e2eb4336ac13011f95855f"),
    # 50 recorded failures with failures_truncated set
    ("redundancy", (2, 4, 2), dict(flags_per_alpha=3, seed=11, mutant="drop-nonredundant-condition"),
     "ec3088e27a2aa53cb5518a72ec2fbbb05d8cbcc4da5de1bbea889abd48a7d07c"),
    ("flag-equality", (2, 4, 2), dict(trials=40, seed=2),
     "c0c22b23ac5d0c63644445c4960b5a7f760b8c0d590351c353647b3cd42d15fb"),
    ("flag-equality", (2, 4, 2), dict(trials=40, seed=2, mutant="alpha-for-alpha-nc"),
     "ae223f5030cec5e9785835c52f44e384e883a53e0656203aa557bcb2290e5486"),
    ("dual-image", (2, 4, 2), dict(trials=4, seed=6),
     "33a2d606aebe8dd0a0be1eb49d944bb395a9ac1ba3001b4ceaf211ccdeda264d"),
    ("dual-image", (2, 4, 2), dict(trials=4, seed=6, mutant="dual-formula-m-minus-j"),
     "6dbda5566fcfe091b0428d23b49330bc63109db24d740dfb5df37a563a2684fc"),
    ("covariant-criterion", (2, 4, 2), dict(trials=40, seed=4),
     "24c3853d4eb401151211c929aef711ce5e5af532ea8db9483aa54b7be99af061"),
    ("covariant-criterion", (4, 3, 1), dict(trials=20, seed=4),
     "d0450a5323c62d18f4c6735a5cc403fc8f7f52d9982e27885ffded4b48c1bb33"),
    ("automorphism-criterion", (2, 4, 2), dict(trials=60, seed=8),
     "b756bffe5d54e725cad45cff930456e966e4ffbd0ae654bab98478f4a1dad551"),
    ("automorphism-criterion", (2, 4, 2), dict(trials=60, seed=8, mutant="skip-contravariant-set-check"),
     "b07d3335afa3fc83f00e371e175c5fe96b53a112e554e50a61567f3eb4f75795"),
    ("alpha-uniqueness", (2, 4, 2), dict(flags_per_alpha=4, seed=0),
     "b34d80cc536378f9feb1e9bef518ff9c21179e54c1b1a89164adbf0c1b38aede"),
    # fields other than GF(2), and the sample path: the benchmark's
    # digests cover these campaigns over GF(2) only
    ("redundancy", (3, 4, 2), dict(flags_per_alpha=1, seed=5, mutant="drop-nonredundant-condition"),
     "7cac62f9fe4ffc390cc5aeba076fb9c29db2f9decc2e8454723ab0776a084b1f"),
    ("redundancy", (2, 5, 2), dict(mode="sample", flags_per_alpha=2, sample_points=40, seed=13),
     "cab8851196be3ada51a1c5ae0378045145ca1d4ddf829294180bacb15669abef"),
    ("automorphism-criterion", (3, 4, 2), dict(trials=30, seed=12),
     "044463e615abef6da7f2f2bf895d64e04fa0f14cf0c7cfe1cf728b45ed6cacc8"),
]


@pytest.mark.parametrize(
    "campaign, shape, options, digest",
    GOLDEN_REPORTS,
    ids=[f"{c}-{i}" for i, (c, _, _, _) in enumerate(GOLDEN_REPORTS)],
)
def test_report_bytes_match_the_frozen_digest(campaign, shape, options, digest):
    rep = CAMPAIGNS[campaign](*shape, **options)
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# each campaign under its mutant, red on every row
MUTANT_RUNS = [
    ("redundancy", (2, 4, 2), dict(flags_per_alpha=3, seed=11, mutant="drop-nonredundant-condition")),
    ("flag-equality", (2, 4, 2), dict(trials=40, seed=2, mutant="alpha-for-alpha-nc")),
    ("dual-image", (2, 4, 2), dict(trials=4, seed=6, mutant="dual-formula-m-minus-j")),
    ("covariant-criterion", (2, 4, 2), dict(trials=60, seed=4, mutant="fix-every-member")),
    ("automorphism-criterion", (2, 4, 2), dict(trials=60, seed=8, mutant="skip-contravariant-set-check")),
    ("alpha-uniqueness", (2, 4, 2), dict(flags_per_alpha=2, seed=0, mutant="bucket-by-point-count")),
]


@pytest.mark.parametrize("campaign, shape, options", MUTANT_RUNS, ids=[c for c, _, _ in MUTANT_RUNS])
def test_every_trial_failure_carries_its_trials_subseed(campaign, shape, options):
    # the master seed draws one 48-bit subseed per key, in key order; a
    # failure is replayed from the subseed it records, so that subseed
    # must be its own trial's
    rep = CAMPAIGNS[campaign](*shape, **options)
    assert rep.verdict == "fail"
    _, m, l = shape
    if "trials" in options:
        keys = range(options["trials"])
    else:
        alphas = itertools.combinations(range(1, m + 1), l)
        keys = [alpha for alpha in alphas for _ in range(options["flags_per_alpha"])]
    master = random.Random(options["seed"])
    key_of = {master.getrandbits(48): key for key in keys}
    for f in rep.failures:
        if f.get("problem") == "point-set-shared-across-tuples":  # found across trials by finish()
            assert "seed" not in f
        else:
            assert key_of[f["seed"]] == (f["trial"] if "trial" in f else tuple(f["alpha"]))


def test_report_json_shape():
    rep = verify_alpha_uniqueness(2, 3, 1, flags_per_alpha=2, seed=0)
    d = rep.to_json_dict()
    assert set(d) == {"theorem_id", "parameters", "cases_tested", "failures", "verdict"}
    assert "elapsed_seconds" in rep.to_json_dict(include_elapsed=True)
    assert rep.elapsed > 0
    bad = VerificationReport("x", {}, 1, failures=[{"problem": "p"}])
    assert bad.verdict == "fail"


def test_resample_members_changes_exactly_the_target():
    gf = make_field(2)
    rng = random.Random(31)
    flag = random_flag(gf, 4, (1, 2, 3), rng=rng)
    moved = _resample_member(flag, 1, rng)
    assert moved[0] == flag[0]
    assert moved[2] == flag[2]
    assert moved[1] != flag[1]
    assert moved[0] <= moved[1] <= moved[2]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_drawn_flags_are_like_validated_ones(p, e):
    gf = make_field(p, e)
    rng = random.Random(37 * p + e)
    for m, alpha in [(1, (1,)), (3, (1, 2)), (4, (1, 3, 4)), (5, (2, 3, 5))]:
        flag = random_flag(gf, m, alpha, rng=rng)
        movable = range(len(alpha) - (alpha[-1] == m))  # the full space cannot move
        flags = [flag] + [_resample_member(flag, i, rng) for i in movable]
        for f in flags:
            rebuilt = Flag(gf, m, list(f.alpha), list(f.subspaces))
            assert f == rebuilt and hash(f) == hash(rebuilt)
            assert type(f.alpha) is tuple and all(type(a) is int for a in f.alpha)
            assert type(f.subspaces) is tuple and f.includes_zero is False
            with pytest.raises(dataclasses.FrozenInstanceError):
                f.alpha = alpha


def test_perp_symmetric_flag_construction():
    gf = make_field(2)
    flag = _perp_symmetric_flag(gf, 4, (2, 4))
    assert flag is not None
    inner = flag[0]
    assert inner.perp() == inner
    om = SchubertVariety(flag)
    perp = SemilinearMap.perp_map(gf, 4)
    assert is_automorphism_fast(perp, om)
    assert is_automorphism_oracle(perp, om)
    # reflection of the tuple's complement must equal the tuple itself
    assert _perp_symmetric_flag(gf, 4, (1, 4)) is None
    # the search is deterministic, so it runs once per (field, m, alpha)
    assert _perp_symmetric_flag(gf, 4, (2, 4)) is flag


def test_a_campaign_records_each_trial_whose_criterion_raises(monkeypatch, capsys):
    def raises(tau, omega):
        raise ValueError("criterion refused")

    monkeypatch.setattr("qgrass.verify.is_automorphism_fast", raises)
    trials = 12
    rep = verify_automorphism_criterion(2, 4, 2, trials=trials, seed=8)
    assert rep.verdict == "fail" and rep.cases_tested == trials
    assert sorted(f["trial"] for f in rep.failures) == list(range(trials))
    for record in rep.failures:
        assert set(record) == {"trial", "seed", "kind", "alpha", "problem", "error"}
        assert (record["problem"], record["error"]) == ("fast-raised", "criterion refused")
    assert {f["kind"] for f in rep.failures} >= {"random-covariant", "random-contravariant", "perp-symmetric"}
    argv = ["verify", "automorphism-criterion", "--q", "2", "--m", "4", "--l", "2", "--trials", str(trials)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_the_contravariant_kinds_fall_back_where_no_flag_serves_them():
    # over GF(3), x^2 + y^2 = 0 has no nonzero solution, and both tuples
    # of G(1, 2) are their own reflected complement: no perp-symmetric
    # flag and no non-self-dual tuple, so both kinds draw random maps
    gf = make_field(3)
    assert [dual_index_set(a, 2) for a in ((1,), (2,))] == [(1,), (2,)]
    assert _perp_symmetric_flag(gf, 2, (1,)) is None
    assert _perp_symmetric_flag(gf, 2, (2,)) is None
    rep = verify_automorphism_criterion(3, 2, 1, trials=12, seed=1)
    assert rep.verdict == "pass" and rep.cases_tested == 12


# sha256 of the canonical JSON of two census reports, frozen before the
# census's point set was listed from the Grassmannian's cell layout
GOLDEN_CENSUSES = [
    ((2, 2), 2, (1,), True, 720, "5d5d7553a1d82746f4296c856d8a5aec072c75d35487467f836433d066604545"),
    ((3, 1), 3, (1, 3), False, 11232, "583999a5974eddf5a3c40499330aaa47f6944927b7d473faee0ed2fbb3058816"),
]


@pytest.mark.parametrize("field, m, alpha, dual, size, digest", GOLDEN_CENSUSES)
def test_census_bytes_match_the_frozen_digest(field, m, alpha, dual, size, digest):
    om = SchubertVariety(random_flag(make_field(*field), m, alpha, rng=1))
    rep = stabilizer_census(om, oracle="full", include_dual=dual)
    assert rep.group_size == rep.oracle_checked == size
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_census_line_in_three_space():
    gf = make_field(2)
    om = SchubertVariety.standard(gf, 3, (1, 3))
    rep = stabilizer_census(om, oracle="full")
    assert rep.verdict == "pass"
    assert rep.group_size == 168
    assert rep.fast_count == 24
    assert rep.oracle_count == 24
    assert rep.oracle_checked == 168
    assert rep.tested == 168
    assert rep.fraction == pytest.approx(24 / 168)


def test_a_census_records_the_maps_its_criterion_gets_wrong(monkeypatch, capsys):
    # a criterion that accepts every map disagrees with the oracle on the
    # 144 maps that move the line; the census records the first 50
    monkeypatch.setattr("qgrass.verify.is_automorphism_fast", lambda tau, omega: True)
    om = SchubertVariety.standard(make_field(2), 3, (1, 3))
    rep = stabilizer_census(om, oracle="full")
    assert (rep.fast_count, rep.oracle_count, rep.oracle_checked) == (168, 24, 168)
    assert len(rep.mismatches) == 50
    for record in rep.mismatches:
        assert set(record) == {"matrix", "frobenius_power", "dual", "fast", "oracle"}
        assert (record["fast"], record["oracle"], record["dual"]) == (True, False, False)
        assert record["frobenius_power"] == 0
        tau = SemilinearMap(om.gf, 3, record["matrix"])
        assert not is_automorphism_oracle(tau, om)
    assert rep.verdict == "fail"
    assert main(["census", "--q", "2", "--m", "3", "--alpha", "1,3", "--oracle", "full"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_census_with_frobenius_layer():
    gf = make_field(2, 2)
    om = SchubertVariety.standard(gf, 2, (1,))
    rep = stabilizer_census(om, oracle="full", include_frobenius=True)
    assert rep.verdict == "pass"
    assert rep.group_size == 360
    assert rep.fast_count == 72
    assert rep.oracle_count == 72


def test_census_with_contravariant_layer():
    gf = make_field(2)
    om = SchubertVariety.standard(gf, 2, (1,))
    rep = stabilizer_census(om, oracle="full", include_dual=True)
    assert rep.verdict == "pass"
    assert rep.group_size == 12
    assert rep.fast_count == 4
    assert rep.oracle_count == 4


@pytest.mark.parametrize("p,e,m,l", [(2, 1, 3, 1), (2, 1, 3, 2), (3, 1, 2, 1), (2, 2, 2, 1)])
def test_census_equals_the_closed_form(p, e, m, l):
    gf = make_field(p, e)
    rng = random.Random(10 * gf.q + m + l)
    dual = m == 2 * l
    for alpha in itertools.combinations(range(1, m + 1), l):
        om = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
        rep = stabilizer_census(om, oracle="full", include_frobenius=True, include_dual=dual)
        want = bf.automorphism_count(gf.q, e, m, alpha, frobenius=True, dual=dual)
        assert rep.fast_count == rep.oracle_count == want, alpha


def test_census_subsample_and_none_oracles():
    gf = make_field(2)
    om = SchubertVariety.standard(gf, 3, (1, 3))
    rep = stabilizer_census(om, oracle="subsample", subsample=30, seed=2)
    assert rep.verdict == "pass"
    assert rep.oracle_count is None
    assert rep.oracle_checked == 30
    rep = stabilizer_census(om, oracle="none")
    assert rep.oracle_checked == 0
    assert rep.fast_count == 24


def test_census_validation_and_budget():
    gf = make_field(2)
    om = SchubertVariety.standard(gf, 3, (1, 3))
    with pytest.raises(ValueError):
        stabilizer_census(om, include_dual=True)  # m != 2l
    with pytest.raises(ValueError):
        stabilizer_census(om, oracle="psychic")
    with pytest.raises(BudgetExceededError):
        stabilizer_census(om, budget=100)


def test_census_is_seed_deterministic():
    gf = make_field(2)
    om = SchubertVariety.standard(gf, 3, (1, 3))
    a = stabilizer_census(om, oracle="subsample", subsample=12, seed=3)
    b = stabilizer_census(om, oracle="subsample", subsample=12, seed=3)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )


def test_campaign_registry():
    assert set(CAMPAIGNS) == {
        "redundancy",
        "flag-equality",
        "dual-image",
        "covariant-criterion",
        "automorphism-criterion",
        "alpha-uniqueness",
    }
    rep = CAMPAIGNS["redundancy"](2, 3, 1, flags_per_alpha=2, seed=1)
    assert rep.verdict == "pass"


# Each campaign's shape and size arguments are exactly ints, checked
# before anything reads them (verify._check_sizes).  Kept apart from
# test_public_api's table, where m would pull in every function that takes one.
SIZES = ("q", "m", "l", "trials", "flags_per_alpha", "sample_points")
SIZE_CASES = [
    (name, param, value)
    for name, campaign in CAMPAIGNS.items()
    for param in SIZES
    if param in inspect.signature(campaign).parameters
    for value in (2.5, "2", True)
]


@pytest.mark.parametrize("name, param, value", SIZE_CASES, ids=[f"{n}-{p}-{v!r}" for n, p, v in SIZE_CASES])
def test_every_campaign_takes_only_int_shapes_and_sizes(name, param, value):
    campaign = CAMPAIGNS[name]
    size = "trials" if "trials" in inspect.signature(campaign).parameters else "flags_per_alpha"
    kwargs = {"q": 2, "m": 2, "l": 1, size: 1, param: value}
    with pytest.raises(ValueError, match=f"^{re.escape(f'{param!r} must be an int, got {value!r}')}$"):
        campaign(**kwargs)


def test_the_size_table_covers_every_campaign_argument():
    assert len(SIZE_CASES) == 3 * (5 + 4 * 5)
    for name, campaign in CAMPAIGNS.items():
        ints = {p for p, v in inspect.signature(campaign).parameters.items() if type(v.default) is int}
        assert ints - {"seed"} <= {p for n, p, _ in SIZE_CASES if n == name}, name


# shapes with no points of dimension 1 to m: each campaign refuses them
# by name, before anything is drawn (verify._check_sizes)
BAD_SHAPES = [(2, 3), (0, 0), (2, 0), (2, -1), (0, 1), (-1, 1)]
SHAPE_CASES = [(name, m, l) for name in CAMPAIGNS for m, l in BAD_SHAPES]


@pytest.mark.parametrize("name, m, l", SHAPE_CASES, ids=[f"{n}-m{m}-l{l}" for n, m, l in SHAPE_CASES])
def test_every_campaign_refuses_a_shape_outside_1_to_m(name, m, l):
    campaign = CAMPAIGNS[name]
    size = "trials" if "trials" in inspect.signature(campaign).parameters else "flags_per_alpha"
    message = f"no campaign runs on G({l}, {m}): l must lie in [1, m]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        campaign(q=2, m=m, l=l, **{size: 1})


def test_a_shape_outside_1_to_m_is_a_usage_error_and_l_equal_to_m_runs(capsys):
    rc = main(["verify", "flag-equality", "--q", "2", "--m", "2", "--l", "3"])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (2, "", "error: no campaign runs on G(3, 2): l must lie in [1, m]\n")
    assert main(["verify", "flag-equality", "--q", "2", "--m", "2", "--l", "2", "--trials", "3"]) == 0


def test_the_covariant_cases():
    gf = make_field(2)
    omega = SchubertVariety(random_flag(gf, 4, (2, 4), rng=1))
    for kind, expected in (("stabilizing", True), ("mover", False)):
        got_kind, tau, got = _covariant_case(kind, omega, random.Random(0), "random")
        assert (got_kind, got) == (kind, expected)
        assert is_automorphism_fast(tau, omega) == is_automorphism_oracle(tau, omega) == expected
    # on G(1, 2) at (2,) the only non-redundant member is the whole plane:
    # a mover has nothing to move and draws a random covariant map instead
    omega = SchubertVariety(random_flag(gf, 2, (2,), rng=1))
    assert _member_mover(omega, random.Random(0)) is None
    for kind in ("mover", "random-covariant"):
        got_kind, tau, got = _covariant_case(kind, omega, random.Random(0), "random-covariant")
        assert (got_kind, got) == ("random-covariant", None)
        assert tau == random_semilinear(gf, 2, rng=random.Random(0))


# -- a wrong oracle or witness is caught -------------------------------------

FLAG_EQUALITY = ["verify", "flag-equality", "--q", "2", "--m", "4", "--l", "2", "--trials", "12", "--seed", "2"]
RECORD_FIELDS = {"trial", "seed", "kind", "alpha", "fast", "oracle", "problem"}


def _problems(rep):
    for record in rep.failures:
        assert set(record) == RECORD_FIELDS, record
    return {record["problem"] for record in rep.failures}


def test_a_negated_equality_oracle_is_caught(monkeypatch):
    monkeypatch.setattr("qgrass.verify.equal_oracle", lambda o1, o2: not equal_oracle(o1, o2))
    rep = verify_flag_equality(2, 4, 2, trials=12, seed=2)
    assert rep.verdict == "fail"
    problems = _problems(rep)
    assert {"identical-pair-unequal", "redundant-change-was-seen", "nc-change-was-invisible"} <= problems
    by_problem = {}
    for record in rep.failures:
        by_problem.setdefault(record["problem"], []).append(record)
    assert {r["kind"] for r in by_problem["identical-pair-unequal"]} == {"identical"}
    assert {r["kind"] for r in by_problem["redundant-change-was-seen"]} == {"redundant-resample"}
    assert {r["kind"] for r in by_problem["nc-change-was-invisible"]} == {"nc-differ"}
    for record in rep.failures:
        if record["problem"] != "no-verified-witness":
            assert record["fast"] != record["oracle"]
    assert main(FLAG_EQUALITY) == 1


def test_a_missing_witness_is_caught(monkeypatch, capsys):
    monkeypatch.setattr("qgrass.verify.equality_witness", lambda o1, o2: None)
    rep = verify_flag_equality(2, 4, 2, trials=12, seed=2)
    assert _problems(rep) == {"no-verified-witness"}
    assert len(rep.failures) == rep.parameters["negative_cases"] > 0
    assert rep.parameters["witnessed"] == 0
    assert all(r["oracle"] is False for r in rep.failures)
    assert main(FLAG_EQUALITY) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_a_negated_automorphism_oracle_is_caught(monkeypatch):
    def negated(tau, omega):
        return not is_automorphism_oracle(tau, omega)

    monkeypatch.setattr("qgrass.verify.is_automorphism_oracle", negated)
    rep = verify_automorphism_criterion(2, 4, 2, trials=12, seed=3)
    surprised = [r for r in rep.failures if r["problem"] == "constructed-case-surprised"]
    assert surprised and {r["kind"] for r in surprised} >= {"stabilizing", "perp-symmetric", "mover"}
    for record in rep.failures:
        assert set(record) == RECORD_FIELDS | {"contravariant"}
        assert record["fast"] != record["oracle"]
    # the covariant campaign holds its constructions against the fast
    # side, so a wrong oracle shows there as a disagreement on every trial
    rep = verify_covariant_criterion(2, 4, 2, trials=12, seed=5)
    assert _problems(rep) == {"fast-oracle-disagreement"}
    assert len(rep.failures) == 12
    shape = ["--q", "2", "--m", "4", "--l", "2", "--trials", "12"]
    assert main(["verify", "automorphism-criterion", *shape]) == 1
    assert main(["verify", "covariant-criterion", *shape]) == 1


def test_a_negated_fast_criterion_surprises_the_covariant_constructions(monkeypatch):
    def negated(tau, omega):
        return not is_automorphism_fast(tau, omega)

    monkeypatch.setattr("qgrass.verify.is_automorphism_fast", negated)
    rep = verify_covariant_criterion(2, 4, 2, trials=12, seed=5)
    surprised = [r for r in rep.failures if r["problem"] == "constructed-case-surprised"]
    assert {r["kind"] for r in surprised} == {"stabilizing", "mover"}
    assert _problems(rep) == {"fast-oracle-disagreement", "constructed-case-surprised"}


def test_a_descriptor_holding_more_than_the_image_is_caught(monkeypatch):
    # the whole G(2, 4) holds every image, so only the sizes tell it apart
    whole = SchubertVariety.standard(make_field(2), 4, (3, 4))
    monkeypatch.setattr("qgrass.verify.image_of_schubert", lambda tau, omega: whole)
    rep = verify_dual_image(2, 4, 2, trials=2, seed=6)
    assert {f["problem"] for f in rep.failures} == {"image-points-differ"}
    assert len(rep.failures) == 2 * 5  # every tuple but (3, 4) itself
    for record in rep.failures:
        assert record["descriptor_size"] == 35 > record["pointwise_size"]
        assert record["image_alpha"] == [3, 4] != record["alpha"]


# -- the oracles' walks keep the enumeration budget --------------------------


def test_the_oracle_walks_keep_the_budget(monkeypatch):
    gf = make_field(2)
    rng = random.Random(4)
    omega = SchubertVariety(random_flag(gf, 4, (2, 4), rng=rng))
    other = SchubertVariety(random_flag(gf, 4, (2, 4), rng=rng))
    tau = random_semilinear(gf, 4, rng=rng)
    sigma = random_semilinear(gf, 4, rng=rng, dual=True)
    image = image_of_schubert(sigma, omega)
    monkeypatch.setenv("QGRASS_MAX_ENUM", "35")  # G(2, 4) over GF(2) exactly
    sigma_parts = (sigma.frobenius_power, sigma.matrix, sigma.dual)
    is_automorphism_oracle(tau, omega)
    equal_oracle(omega, other)
    assert _images_within(omega, image, *sigma_parts)
    monkeypatch.setenv("QGRASS_MAX_ENUM", "34")
    with pytest.raises(BudgetExceededError):
        is_automorphism_oracle(tau, omega)
    with pytest.raises(BudgetExceededError):
        is_automorphism_oracle(sigma, omega)
    with pytest.raises(BudgetExceededError):
        equal_oracle(omega, other)
    with pytest.raises(BudgetExceededError):
        equal_oracle(omega, omega)
    with pytest.raises(BudgetExceededError):
        _images_within(omega, image, *sigma_parts)
    with pytest.raises(BudgetExceededError):
        verify_dual_image(2, 4, 2, trials=1, seed=6)
