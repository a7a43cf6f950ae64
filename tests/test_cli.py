"""End-to-end command tests, run in process through main()."""

import inspect
import json
import re
import subprocess
import sys

import pytest

import qgrass
from qgrass import cli, linalg
from qgrass.cli import main
from qgrass.field import field_from_order
from qgrass.grassmann import Flag, enumerate_grassmannian, gaussian_binomial
from qgrass.schubert import SchubertVariety
from qgrass.verify import CAMPAIGNS

MUTANTS = {
    "redundancy": "drop-nonredundant-condition",
    "flag-equality": "alpha-for-alpha-nc",
    "dual-image": "dual-formula-m-minus-j",
    "covariant-criterion": "fix-every-member",
    "automorphism-criterion": "skip-contravariant-set-check",
    "alpha-uniqueness": "bucket-by-point-count",
}


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_count_grassmannian(capsys):
    rc, out, _ = run(capsys, "count", "--q", "2", "--m", "4", "--l", "2")
    assert rc == 0
    assert json.loads(out)["count"] == 35


def test_count_variety_with_polynomial(capsys):
    rc, out, _ = run(
        capsys, "count", "--q", "2", "--m", "4", "--alpha", "2,4", "--polynomial"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 19
    assert doc["polynomial"] == [1, 1, 2, 1]


def test_count_huge_is_closed_form(capsys):
    rc, out, _ = run(capsys, "count", "--q", "3", "--m", "40", "--l", "20")
    assert rc == 0
    assert json.loads(out)["count"] > 10**100


def test_count_needs_exactly_one_shape(capsys):
    rc, _, err = run(capsys, "count", "--q", "2", "--m", "4")
    assert rc == 2
    rc, _, err = run(capsys, "count", "--q", "2", "--m", "4", "--l", "2", "--alpha", "1,2")
    assert rc == 2


def test_count_by_characteristic_and_degree(capsys):
    rc, out, _ = run(capsys, "count", "--p", "2", "--e", "2", "--m", "3", "--l", "1")
    assert rc == 0
    assert json.loads(out)["count"] == 21  # lines in 3-space over the 4-element field


def test_field_options_that_name_no_single_field_are_usage_errors(capsys):
    for argv in (
        ["--p", "2", "--e", "0"],
        ["--p", "2", "--e", "-1"],
        ["--q", "4", "--p", "3"],
        ["--q", "4", "--p", "2"],
        ["--q", "4", "--e", "3"],
        ["--q", "4", "--e", "1"],
    ):
        rc, out, err = run(capsys, "count", *argv, "--m", "3", "--l", "1")
        assert rc == 2 and out == ""
        assert err.startswith("error: ")
    _, _, err = run(capsys, "count", "--q", "4", "--p", "3", "--m", "3", "--l", "1")
    assert "not both" in err
    _, _, err = run(capsys, "count", "--q", "4", "--e", "3", "--m", "3", "--l", "1")
    assert "--p with --e" in err


def test_points_listing(capsys):
    rc, out, _ = run(capsys, "points", "--q", "2", "--m", "3", "--l", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 7
    assert len(doc["points"]) == 7
    assert doc["points"][0] == [[1, 0, 0]]


def test_points_variety_and_count_only(capsys):
    rc, out, _ = run(
        capsys, "points", "--q", "2", "--m", "4", "--alpha", "2,4", "--count-only"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 19
    assert "points" not in doc


def test_points_budget_exit_code(capsys):
    rc, _, err = run(capsys, "points", "--q", "2", "--m", "30", "--l", "15")
    assert rc == 3
    assert "budget" in err


def _count(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)["count"]


@pytest.mark.parametrize("q,m", [(2, 5), (3, 4), (4, 4), (9, 3)])
def test_points_count_only_counts_what_is_enumerated(tmp_path, capsys, q, m):
    gf = field_from_order(q)
    field = ["--q", str(q), "--m", str(m)]
    # a negative --l is a usage error (test_negative_integer_options_are_usage_errors)
    for l in (0, 1, 2, m, m + 1):
        shape = [*field, "--l", str(l)]
        got = _count(capsys, "points", *shape, "--count-only")
        assert got == len(list(enumerate_grassmannian(gf, m, l))), l
        assert got == _count(capsys, "count", *shape), l
    path = str(tmp_path / "flag.json")
    for alpha in ((1,), (m,), (1, m), (2, m), (1, 2, m)):
        text = ",".join(map(str, alpha))
        shape = [*field, "--alpha", text]
        closed_form = _count(capsys, "count", *shape)
        run(capsys, "gen-flag", *shape, "--seed", str(sum(alpha)), "-o", path)
        with open(path) as fh:
            drawn = Flag.from_json_dict(json.load(fh))
        for flag, option in ((None, []), (drawn, ["--flag", path])):
            omega = SchubertVariety(flag) if flag else SchubertVariety.standard(gf, m, alpha)
            got = _count(capsys, "points", *shape, *option, "--count-only")
            assert got == len(omega.point_set()) == closed_form, (alpha, option)


def test_points_limit_is_the_size_of_the_grassmannian(capsys):
    size = gaussian_binomial(4, 2, 3)
    for shape in (["--l", "2"], ["--alpha", "2,4"]):
        for mode in (["--count-only"], []):
            argv = ["points", "--q", "3", "--m", "4", *shape, *mode]
            rc, out, err = run(capsys, *argv, "--limit", str(size))
            assert rc == 0, err
            assert json.loads(out)["count"] == _count(capsys, "count", *argv[1:7])
            rc, out, err = run(capsys, *argv, "--limit", str(size - 1))
            assert (rc, out) == (3, "") and "budget" in err


def test_count_only_builds_no_subspace_and_eliminates_nothing(capsys, monkeypatch):
    gf = field_from_order(3)
    flags = {"2,4": SchubertVariety.standard(gf, 4, (2, 4)).flag}
    _, out, _ = run(capsys, "gen-flag", "--q", "3", "--m", "4", "--alpha", "1,3", "--seed", "8")
    flags["1,3"] = Flag.from_json_dict(json.loads(out))
    monkeypatch.setattr(cli, "_flag_for", lambda args, gf, m, alpha: flags[args.alpha])

    def refuse(*args):
        raise AssertionError("a point was built")

    monkeypatch.setattr(linalg.Subspace, "_trusted", classmethod(refuse))
    monkeypatch.setattr(linalg.Subspace, "_span", classmethod(refuse))
    eliminate = linalg._eliminate
    for name in dir(qgrass):
        module = getattr(qgrass, name)
        if getattr(module, "_eliminate", None) is eliminate:
            monkeypatch.setattr(module, "_eliminate", refuse)
    for shape in (["--l", "2"], ["--alpha", "2,4"], ["--alpha", "1,3"]):
        argv = ["--q", "3", "--m", "4", *shape]
        assert _count(capsys, "points", *argv, "--count-only") == _count(capsys, "count", *argv)
    with pytest.raises(AssertionError, match="a point was built"):
        linalg._eliminate(gf, [[1]], 1)


def test_points_flag_goes_with_alpha(tmp_path, capsys):
    for flag in (str(tmp_path / "missing.json"), "standard"):
        for mode in (["--count-only"], []):
            argv = ["points", "--q", "2", "--m", "4", "--l", "2", "--flag", flag, *mode]
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (2, "")
            assert "--flag goes with --alpha" in err


def test_count_polynomial_of_the_whole_grassmannian(capsys):
    for m in (1, 4):
        rc, out, _ = run(capsys, "count", "--q", "3", "--m", str(m), "--l", "0", "--polynomial")
        assert rc == 0
        assert json.loads(out) == {"q": 3, "m": m, "l": 0, "count": 1, "polynomial": [1]}
    rc, out, _ = run(capsys, "count", "--q", "2", "--m", "4", "--l", "4", "--polynomial")
    assert json.loads(out)["polynomial"] == [1]
    for l in ("5", "-1"):
        rc, out, err = run(capsys, "count", "--q", "2", "--m", "4", "--l", l, "--polynomial")
        assert (rc, out) == (2, "")
        assert f"--l {l}" in err and "[0, 4]" in err and "(" not in err


def test_alpha_nc_and_condition_word(capsys):
    rc, out, _ = run(capsys, "alpha-nc", "--alpha", "2,3,4", "--m", "5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["non_redundant"] == [4]
    assert doc["condition_word"] == [0, 1, 2, 3, 3]


def test_dual_alpha(capsys):
    rc, out, _ = run(capsys, "dual-alpha", "--alpha", "1,2", "--m", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["dual"] == [1, 2]
    assert doc["self_dual"] is True
    rc, out, _ = run(capsys, "dual-alpha", "--alpha", "1,4", "--m", "4")
    doc = json.loads(out)
    assert doc["dual"] == [2, 3]
    assert doc["self_dual"] is False


def test_dimension_tuple_verbs_refuse_invalid_tuples(capsys):
    for argv in (
        ["alpha-nc", "--alpha", "3,1"],
        ["alpha-nc", "--alpha", "2,2"],
        ["alpha-nc", "--alpha", "0,2"],
        ["alpha-nc", "--alpha", "1,5", "--m", "4"],
        ["dual-alpha", "--alpha", "1,4", "--m", "3"],
        ["dual-alpha", "--alpha", "2,1", "--m", "4"],
        ["dual-alpha", "--alpha", "0,1", "--m", "4"],
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert "dimensions" in err, argv
    rc, out, _ = run(capsys, "alpha-nc", "--alpha", "1,3,4")
    assert rc == 0 and json.loads(out)["non_redundant"] == [1, 4]


def test_negative_ambient_dimension_is_a_usage_error(capsys):
    for verb, shape in (("count", "--l"), ("points", "--l"), ("count", "--alpha")):
        rc, out, err = run(capsys, verb, "--q", "2", "--m", "-1", shape, "1" if shape == "--alpha" else "0")
        assert (rc, out) == (2, ""), verb
        assert "--m" in err and "-1" in err, verb
    rc, out, err = run(capsys, "count", "--q", "2", "--m", "-3", "--l", "0", "--polynomial")
    assert (rc, out) == (2, "") and "--m" in err and "[0, -3]" not in err
    # G(0, 0) is one point, the zero space
    for verb in ("count", "points"):
        rc, out, _ = run(capsys, verb, "--q", "2", "--m", "0", "--l", "0")
        assert rc == 0 and json.loads(out)["count"] == 1


def test_census_refuses_a_negative_subsample(capsys):
    rc, out, err = run(capsys, "census", "--q", "2", "--m", "3", "--alpha", "1,3", "--subsample", "-1")
    assert (rc, out) == (2, "")
    assert "--subsample" in err and "Sample larger" not in err


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--l", ["points", "--q", "2", "--m", "3", "--count-only", "--l"]),
        ("--limit", ["points", "--q", "2", "--m", "3", "--l", "1", "--limit"]),
        ("--budget", ["census", "--q", "2", "--m", "3", "--alpha", "1,3", "--budget"]),
        ("--m", ["verify", "redundancy", "--q", "2", "--l", "1", "--m"]),
        ("--l", ["verify", "redundancy", "--q", "2", "--m", "3", "--l"]),
        ("--trials", ["verify", "flag-equality", "--q", "2", "--m", "4", "--l", "2", "--trials"]),
        ("--flags-per-alpha", ["verify", "redundancy", "--q", "2", "--m", "3", "--l", "1", "--flags-per-alpha"]),
    ],
    ids=["points-l", "points-limit", "census-budget", "verify-m", "verify-l", "verify-trials", "verify-flags-per-alpha"],
)
def test_negative_integer_options_are_usage_errors(capsys, option, argv):
    rc, out, err = run(capsys, *argv, "-1")
    assert (rc, out) == (2, "")
    assert f"argument {option}: must be at least 0, got -1" in err
    rc, out, err = run(capsys, *argv, "x")
    assert (rc, out) == (2, "")
    assert f"argument {option}: invalid int value: 'x'" in err


def test_count_outside_the_grassmannian_is_zero(capsys):
    for l in ("-1", "4"):
        rc, out, _ = run(capsys, "count", "--q", "2", "--m", "3", "--l", l)
        assert rc == 0 and json.loads(out)["count"] == 0


def test_unparsable_dimension_tuple_is_a_usage_error(capsys):
    for verb in ("count", "points"):
        rc, out, err = run(capsys, verb, "--q", "2", "--m", "4", "--alpha", "1,x")
        assert (rc, out) == (2, "")
        assert "cannot parse dimension tuple '1,x'" in err


def test_points_needs_exactly_one_shape(capsys):
    for shape in ([], ["--l", "2", "--alpha", "2,4"]):
        rc, out, err = run(capsys, "points", "--q", "2", "--m", "4", *shape)
        assert (rc, out) == (2, "")
        assert "give exactly one of --l or --alpha" in err


def test_a_flag_file_of_another_shape_is_refused(tmp_path, capsys):
    flag = tmp_path / "flag.json"
    assert run(capsys, "gen-flag", "--q", "2", "--m", "4", "--alpha", "1,3", "-o", str(flag))[0] == 0
    for argv in (
        ["points", "--q", "2", "--m", "4", "--alpha", "2,4"],
        ["points", "--q", "3", "--m", "4", "--alpha", "1,3"],
        ["census", "--q", "2", "--m", "5", "--alpha", "1,3"],
    ):
        rc, out, err = run(capsys, *argv, "--flag", str(flag))
        assert (rc, out) == (2, ""), argv
        assert "flag file does not match the requested field/shape" in err, argv
    rc, out, _ = run(capsys, "points", "--q", "2", "--m", "4", "--alpha", "1,3", "--flag", str(flag), "--count-only")
    assert rc == 0 and json.loads(out)["count"] == 3


def test_a_variety_file_loads_like_its_flag_file(tmp_path, capsys):
    flag_file, variety_file = tmp_path / "flag.json", tmp_path / "variety.json"
    assert run(capsys, "gen-flag", "--q", "2", "--m", "4", "--alpha", "2,4", "--seed", "3", "-o", str(flag_file))[0] == 0
    omega = SchubertVariety(Flag.from_json_dict(json.loads(flag_file.read_text())))
    variety_file.write_text(json.dumps(omega.to_json_dict()))
    assert cli._load_variety(str(variety_file)) == omega == cli._load_variety(str(flag_file))
    rc, out, _ = run(capsys, "eq", str(variety_file), str(flag_file), "--oracle")
    assert rc == 0 and json.loads(out) == {"fast": True, "oracle": True, "agree": True}


def test_a_flag_file_is_read_as_strict_utf8(tmp_path, capsys):
    # CRLF line ends read as the plain file; a byte-order mark and a byte
    # that is no UTF-8 are input errors, with the messages of json and of
    # the utf-8 codec
    plain = tmp_path / "plain.json"
    assert run(capsys, "gen-flag", "--q", "4", "--m", "4", "--alpha", "2,3", "--seed", "1", "-o", str(plain))[0] == 0
    text = plain.read_bytes()
    want = run(capsys, "eq", str(plain), str(plain))
    assert want[0] == 0 and want[2] == ""
    cases = {
        "crlf": (text.replace(b"\n", b"\r\n"), want),
        "bom": (
            b"\xef\xbb\xbf" + text,
            (2, "", "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"),
        ),
        "ff": (
            text[:10] + b"\xff" + text[10:],
            (2, "", "error: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte\n"),
        ),
    }
    for name, (data, expected) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert run(capsys, "eq", str(path), str(path)) == expected, name


def test_a_fast_answer_the_oracle_contradicts_exits_1(tmp_path, capsys, monkeypatch):
    flag, tau = tmp_path / "flag.json", tmp_path / "tau.json"
    assert run(capsys, "gen-flag", "--q", "2", "--m", "4", "--alpha", "2,4", "--seed", "5", "-o", str(flag))[0] == 0
    assert run(capsys, "gen-map", "--q", "2", "--m", "4", "--seed", "3", "-o", str(tau))[0] == 0
    rc, out, _ = run(capsys, "aut-check", str(tau), str(flag), "--both")
    truth = json.loads(out)["oracle"]
    assert rc == 0

    monkeypatch.setattr(cli, "equal_fast", lambda o1, o2: False)
    rc, out, _ = run(capsys, "eq", str(flag), str(flag), "--oracle")
    assert rc == 1
    assert json.loads(out) == {"fast": False, "oracle": True, "agree": False}

    monkeypatch.setattr(cli, "is_automorphism_fast", lambda tau, omega: not truth)
    rc, out, _ = run(capsys, "aut-check", str(tau), str(flag), "--both")
    assert rc == 1
    assert json.loads(out) == {"fast": not truth, "oracle": truth, "agree": False}


def test_the_oracle_verbs_exit_3_over_the_budget(tmp_path, capsys, monkeypatch):
    flag, tau = tmp_path / "flag.json", tmp_path / "tau.json"
    assert run(capsys, "gen-flag", "--q", "2", "--m", "4", "--alpha", "2,4", "--seed", "5", "-o", str(flag))[0] == 0
    assert run(capsys, "gen-map", "--q", "2", "--m", "4", "--seed", "3", "-o", str(tau))[0] == 0
    monkeypatch.setenv("QGRASS_MAX_ENUM", "34")
    rc, out, err = run(capsys, "eq", str(flag), str(flag), "--oracle")
    assert rc == 3 and out == "" and "budget" in err
    rc, out, err = run(capsys, "aut-check", str(tau), str(flag), "--both")
    assert rc == 3 and out == "" and "budget" in err
    # the fast answers enumerate nothing
    assert run(capsys, "eq", str(flag), str(flag))[0] == 0
    assert run(capsys, "aut-check", str(tau), str(flag), "--fast")[0] == 0


def test_gen_eq_image_aut_pipeline(tmp_path, capsys):
    f1 = tmp_path / "f1.json"
    f2 = tmp_path / "f2.json"
    tau = tmp_path / "tau.json"
    sigma = tmp_path / "sigma.json"
    assert run(capsys, "gen-flag", "--q", "2", "--m", "4", "--alpha", "2,4",
               "--seed", "5", "-o", str(f1))[0] == 0
    assert run(capsys, "gen-flag", "--q", "2", "--m", "4", "--alpha", "2,4",
               "--seed", "9", "-o", str(f2))[0] == 0
    assert run(capsys, "gen-map", "--q", "2", "--m", "4", "--seed", "3",
               "-o", str(tau))[0] == 0
    assert run(capsys, "gen-map", "--q", "2", "--m", "4", "--seed", "3",
               "--dual", "-o", str(sigma))[0] == 0

    rc, out, _ = run(capsys, "eq", str(f1), str(f1), "--oracle")
    assert rc == 0
    doc = json.loads(out)
    assert doc["fast"] is True and doc["oracle"] is True and doc["agree"] is True

    rc, out, _ = run(capsys, "eq", str(f1), str(f2), "--oracle", "--witness")
    assert rc == 0
    doc = json.loads(out)
    assert doc["fast"] is False and doc["agree"] is True
    assert doc["witness"]["in_first"] != doc["witness"]["in_second"]

    rc, out, _ = run(capsys, "image", str(sigma), str(f1))
    assert rc == 0
    assert json.loads(out)["alpha"] == [2, 4]  # self-dual shape survives

    rc, out, _ = run(capsys, "aut-check", str(tau), str(f1), "--both")
    assert rc == 0
    doc = json.loads(out)
    assert doc["agree"] is True

    rc, out, _ = run(capsys, "aut-check", str(tau), str(f1), "--oracle")
    assert rc == 0
    assert set(json.loads(out)) == {"oracle"}


def test_aut_check_refuses_a_string_for_the_dual_bool(tmp_path, capsys):
    flag, tau = tmp_path / "flag.json", tmp_path / "tau.json"
    assert run(capsys, "gen-flag", "--q", "2", "--m", "4", "--alpha", "2,4", "--seed", "5", "-o", str(flag))[0] == 0
    identity = {"q": 2, "m": 4, "matrix": [[int(i == j) for j in range(4)] for i in range(4)], "frobenius_power": 0}
    tau.write_text(json.dumps(dict(identity, dual=False)))
    rc, out, _ = run(capsys, "aut-check", str(tau), str(flag), "--both")
    assert rc == 0 and json.loads(out) == {"fast": True, "oracle": True, "agree": True}
    # "false" is a non-empty string, not the bool false: refused, not read as true
    tau.write_text(json.dumps(dict(identity, dual="false")))
    rc, out, err = run(capsys, "aut-check", str(tau), str(flag), "--both")
    assert rc == 2 and out == "" and err == "error: 'dual' must be a bool, got 'false'\n"


def test_eq_witness_for_varieties_of_different_point_dimension(tmp_path, capsys):
    paths = []
    for alpha in ("2,4", "3"):
        paths.append(str(tmp_path / f"flag-{alpha}.json"))
        assert run(capsys, "gen-flag", "--q", "2", "--m", "4", "--alpha", alpha,
                   "--seed", "1", "-o", paths[-1])[0] == 0
    rc, out, _ = run(capsys, "eq", *paths, "--oracle", "--witness")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["fast"], doc["oracle"], doc["agree"]) == (False, False, True)
    witness = doc["witness"]
    assert (witness["in_first"], witness["in_second"]) == (True, False)
    # the first variety's canonical first point
    rc, out, _ = run(capsys, "points", "--q", "2", "--m", "4", "--alpha", "2,4", "--flag", paths[0])
    assert rc == 0 and witness["point"] == json.loads(out)["points"][0]


def test_image_of_contravariant_needs_middle(tmp_path, capsys):
    flag = tmp_path / "f.json"
    smap = tmp_path / "s.json"
    run(capsys, "gen-flag", "--q", "2", "--m", "3", "--alpha", "1,3",
        "--seed", "1", "-o", str(flag))
    run(capsys, "gen-map", "--q", "2", "--m", "3", "--seed", "1", "--dual",
        "-o", str(smap))
    rc, _, err = run(capsys, "image", str(smap), str(flag))
    assert rc == 2
    assert "error" in err


def test_verify_verb(capsys):
    rc, out, _ = run(
        capsys, "verify", "redundancy", "--q", "2", "--m", "3", "--l", "1",
        "--flags-per-alpha", "2", "--seed", "1",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert "elapsed_seconds" not in doc


def test_verify_verb_timing_and_mutant(capsys):
    rc, out, _ = run(
        capsys, "verify", "redundancy", "--q", "2", "--m", "4", "--l", "2",
        "--flags-per-alpha", "2", "--mutant", "drop-nonredundant-condition",
        "--timing",
    )
    assert rc == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert "elapsed_seconds" in doc


def test_verify_rejects_an_option_the_campaign_does_not_take(capsys):
    rc, out, err = run(
        capsys, "verify", "redundancy", "--q", "2", "--m", "3", "--l", "1",
        "--trials", "5",
    )
    assert rc == 2
    assert out == ""
    assert "trials" in err


def test_an_empty_campaign_is_a_usage_error(capsys):
    # a run that tests nothing must not read as a pass, mutant or not
    for name, campaign in CAMPAIGNS.items():
        size = "trials" if "trials" in inspect.signature(campaign).parameters else "flags_per_alpha"
        for mutant in ([], ["--mutant", MUTANTS[name]]):
            argv = ["verify", name, "--q", "2", "--m", "4", "--l", "2"]
            rc, out, err = run(capsys, *argv, "--" + size.replace("_", "-"), "0", *mutant)
            assert rc == 2 and out == "", name
            assert f"{size}=0" in err, name
    rc, _, err = run(
        capsys, "verify", "redundancy", "--q", "2", "--m", "4", "--l", "2",
        "--flags-per-alpha", "-3", "--mutant", "drop-nonredundant-condition",
    )
    assert rc == 2 and "argument --flags-per-alpha: must be at least 0, got -3" in err


def test_verify_unknown_campaign(capsys):
    rc, _, err = run(capsys, "verify", "nonsense", "--q", "2", "--m", "3", "--l", "1")
    assert rc == 2
    assert "unknown campaign" in err


def test_census_verb(capsys):
    rc, out, _ = run(
        capsys, "census", "--q", "2", "--m", "3", "--alpha", "1,3",
        "--oracle", "full",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["fast_count"] == 24
    assert doc["oracle_count"] == 24
    assert doc["verdict"] == "pass"


def test_census_budget_exit(capsys):
    rc, _, err = run(
        capsys, "census", "--q", "2", "--m", "4", "--alpha", "1,4",
        "--budget", "100",
    )
    assert rc == 3


def test_a_census_builds_the_point_set_only_for_its_oracle(capsys, monkeypatch):
    census = ["census", "--q", "2", "--m", "3", "--alpha", "1,3"]
    monkeypatch.setenv("QGRASS_MAX_ENUM", "6")  # G(2, 3) over GF(2) has 7 points
    for oracle in (["--oracle", "none"], ["--oracle", "subsample", "--subsample", "0"]):
        rc, out, _ = run(capsys, *census, *oracle)
        assert rc == 0, oracle
        doc = json.loads(out)
        assert (doc["fast_count"], doc["oracle_checked"]) == (24, 0)
    rc, _, err = run(capsys, *census, "--oracle", "subsample", "--subsample", "1")
    assert rc == 3 and "over the bound 6" in err


def test_census_timing_adds_only_the_elapsed_time(capsys):
    census = ["census", "--q", "2", "--m", "3", "--alpha", "1,3", "--oracle", "subsample", "--subsample", "5"]
    rc, plain, _ = run(capsys, *census)
    assert rc == 0
    rc, timed, _ = run(capsys, *census, "--timing")
    assert rc == 0
    plain, timed = json.loads(plain), json.loads(timed)
    assert isinstance(timed.pop("elapsed_seconds"), float)
    assert timed == plain


def test_generators_are_deterministic(capsys):
    rc, out1, _ = run(capsys, "gen-flag", "--q", "3", "--m", "4", "--alpha", "1,3", "--seed", "42")
    rc, out2, _ = run(capsys, "gen-flag", "--q", "3", "--m", "4", "--alpha", "1,3", "--seed", "42")
    assert rc == 0 and out1 == out2
    rc, out3, _ = run(capsys, "gen-flag", "--q", "3", "--m", "4", "--alpha", "1,3", "--seed", "43")
    assert out3 != out1
    rc, m1, _ = run(capsys, "gen-map", "--q", "4", "--m", "3", "--seed", "7", "--allow-dual")
    rc, m2, _ = run(capsys, "gen-map", "--q", "4", "--m", "3", "--seed", "7", "--allow-dual")
    assert m1 == m2


def test_gen_map_takes_one_variance_option(capsys):
    rc, out, err = run(capsys, "gen-map", "--q", "4", "--m", "3", "--dual", "--allow-dual")
    assert (rc, out) == (2, "")
    assert "not allowed with argument" in err
    rc, out, _ = run(capsys, "gen-map", "--q", "4", "--m", "3", "--seed", "7", "--dual")
    assert rc == 0 and json.loads(out)["dual"] is True


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "no-such-verb")[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "count", "--m", "4", "--l", "2")[0] == 2  # no field given


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qgrass", "count", "--q", "2", "--m", "4", "--l", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 35


def _fresh(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "qgrass", *argv], capture_output=True, text=True
    )
    return proc.returncode, _untimed(proc.stdout)


def _untimed(out):
    return re.sub(r'"elapsed_seconds": [-+.e0-9]+', '"elapsed_seconds": ...', out)


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """Each call in one process prints what a fresh interpreter prints."""
    monkeypatch.setenv("COLUMNS", "80")  # help wraps alike in both
    assert cli._parsers()[0] is cli._parsers()[0]
    flag, tau = str(tmp_path / "flag.json"), str(tmp_path / "tau.json")
    run(capsys, "gen-flag", "--q", "2", "--m", "4", "--alpha", "2,4", "--seed", "5", "-o", flag)
    run(capsys, "gen-map", "--q", "2", "--m", "4", "--seed", "3", "-o", tau)
    verify = ["verify", "redundancy", "--q", "2", "--m", "4", "--l", "2", "--flags-per-alpha", "1"]
    census = ["census", "--q", "4", "--m", "2", "--alpha", "1"]
    sequence = [
        ["count", "--q", "two", "--m", "4", "--l", "2"],
        ["--help"],
        ["aut-check", tau, flag, "--both"],
        ["aut-check", tau, flag],
        [*verify, "--mutant", "drop-nonredundant-condition", "--timing"],
        verify,
        [*census, "--include-dual"],
        census,
    ]
    results = [run(capsys, *argv)[:2] for argv in sequence]
    assert [rc for rc, _ in results] == [2, 0, 0, 0, 1, 0, 0, 0]
    assert set(json.loads(results[3][1])) == {"fast"}
    assert "elapsed_seconds" in results[4][1] and "elapsed_seconds" not in results[5][1]
    assert json.loads(results[6][1]) != json.loads(results[7][1])
    for argv, (rc, out) in zip(sequence, results):
        assert (rc, _untimed(out)) == _fresh(argv), argv


# (argv, whether the whole parser must run): no verb, an unknown one, -h
# or strings the verb's parser leaves over.  Every other row, errors
# included, is parsed by the verb's parser alone.
PARSE_TABLE = [
    ([], True),
    (["-h"], True),
    (["--help"], True),
    (["no-such-verb", "--q", "2"], True),
    (["--q", "2", "count"], True),
    (["count", "--q", "2", "--m", "4", "--l", "2"], False),
    (["count", "--q=2", "--m", "4", "--alpha", "2,4", "--poly"], False),
    (["count", "--q", "two", "--m", "4", "--l", "2"], False),
    (["count", "--q", "2", "--l", "2"], False),
    (["count", "-h"], False),
    (["count", "--q", "2", "--m", "4", "--l", "2", "extra"], True),
    (["count", "--q", "2", "--m", "4", "--l", "2", "--", "extra"], True),
    (["points", "--q", "3", "--m", "3", "--l", "1", "--count-only"], False),
    (["points", "--q", "2", "--m", "3", "--l", "-1"], False),
    (["alpha-nc", "--alpha", "2,4", "--m", "5"], False),
    (["dual-alpha", "--alpha", "2,4", "--m", "5", "--bogus"], True),
    (["eq", "{flag}", "{other}", "--oracle", "--witness"], False),
    (["eq", "{flag}", "{line}", "--witness"], False),
    (["eq", "--", "{flag}", "{flag}"], False),
    (["eq", "{flag}"], False),
    (["eq", "{flag}", "{flag}", "{flag}"], True),
    (["image", "{tau}", "{flag}"], False),
    (["aut-check", "{tau}", "{flag}", "--both"], False),
    (["aut-check", "{tau}", "{flag}", "--fast", "--oracle"], False),
    (["verify", "redundancy", "--q", "2", "--m", "4", "--l", "2", "--flags-per-alpha", "1"], False),
    (["verify", "no-such", "--q", "2", "--m", "3", "--l", "1"], False),
    (["verify", "dual-image", "--q", "2", "--m", "4", "--l", "2", "--flags-per-alpha", "1"], False),
    (["census", "--q", "4", "--m", "2", "--alpha", "1", "--oracle", "every"], False),
    (["census", "--q", "2", "--m", "2", "--alpha", "1", "--include-dual"], False),
    (["gen-flag", "--q", "3", "--m", "3", "--alpha", "1,3", "--seed", "4"], False),
    (["gen-map", "--q", "4", "--m", "2", "--dual", "--allow-dual"], False),
    (["gen-map", "--q", "4", "--m", "2", "--seed", "2", "--allow-dual"], False),
]


@pytest.fixture(scope="module")
def parse_files(tmp_path_factory):
    """The files PARSE_TABLE names: flags of two shapes, a second flag, a map."""
    tmp = tmp_path_factory.mktemp("parse")
    gf = field_from_order(2)
    docs = {
        "flag": qgrass.random_flag(gf, 4, (2, 4), rng=5).to_json_dict(),
        "other": qgrass.random_flag(gf, 4, (2, 4), rng=9).to_json_dict(),
        "line": qgrass.random_flag(gf, 4, (3,), rng=1).to_json_dict(),
        "tau": qgrass.random_semilinear(gf, 4, rng=3).to_json_dict(),
    }
    for name, doc in docs.items():
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(tmp / f"{name}.json") for name in docs}


@pytest.mark.parametrize("argv,whole", PARSE_TABLE, ids=[" ".join(argv) or "(none)" for argv, _ in PARSE_TABLE])
def test_main_parses_as_the_whole_parser_does(parse_files, capsys, monkeypatch, argv, whole):
    """main prints and returns what parsing with the whole parser gives.

    The reference is main with _parse replaced by the whole parser's
    parse_args, then the same dispatch.
    """
    monkeypatch.setenv("COLUMNS", "80")
    argv = [a.format(**parse_files) for a in argv]
    parser = cli._parsers()[0]
    whole_ran = []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda a: whole_ran.append(a) or parse_args(a))
    got = run(capsys, *argv)
    assert bool(whole_ran) == whole
    monkeypatch.setattr(cli, "_parse", parser.parse_args)
    assert run(capsys, *argv) == got
