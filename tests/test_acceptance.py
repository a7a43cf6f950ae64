"""Acceptance gate: the ten headline checks, with budgets and frozen values.

Each test prints one PASS line (visible under pytest -s) after its
assertions hold; ground truth comes from the in-repo brute-force
oracles, closed-form counts, and full enumerations.
"""

import json
import time

import bruteforce

from qgrass.cli import main as cli_main
from qgrass.field import make_field
from qgrass.grassmann import enumerate_grassmannian, gaussian_binomial
from qgrass.schubert import SchubertVariety, cell_count_polynomial, polynomial_value
from qgrass.verify import (
    stabilizer_census,
    verify_alpha_uniqueness,
    verify_automorphism_criterion,
    verify_covariant_criterion,
    verify_dual_image,
    verify_flag_equality,
    verify_redundancy,
)


def _report(n, label):
    print(f"[acceptance {n}] {label}: PASS")


def test_acceptance_01_grassmannian_counts():
    started = time.perf_counter()
    cases = {(4, 2, 2): 35, (4, 2, 3): 130, (6, 3, 2): 1395, (5, 2, 2): 155}
    for (m, l, q), expected in cases.items():
        assert bruteforce.naive_subspace_count(m, l, q) == expected
        assert gaussian_binomial(m, l, q) == expected
        gf = make_field(q)
        pts = list(enumerate_grassmannian(gf, m, l))
        assert len(pts) == expected
        assert len(set(pts)) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _report(1, f"four Grassmannian counts match oracle/formula/enumeration in {elapsed:.1f}s")


def test_acceptance_02_schubert_point_count():
    gf = make_field(2)
    omega = SchubertVariety.standard(gf, 4, (2, 4))
    count = omega.count_points()
    assert count == 19
    assert count == 35 - 2**4
    coeffs = cell_count_polynomial((2, 4), 4)
    assert coeffs == (1, 1, 2, 1)
    assert polynomial_value(coeffs, 2) == 19
    # cross-check against a from-scratch span enumeration
    members = [
        bruteforce.span_set(s.to_rows(), 2, 4) for s in omega.flag.subspaces
    ]
    naive = 0
    for span in bruteforce.naive_subspaces(4, 2, 2):
        if len(span & members[0]) >= 2 and len(span & members[1]) >= 4:
            naive += 1
    assert naive == 19
    _report(2, "19 points at (4,2,2,(2,4)) by complement, polynomial, and oracle")


def test_acceptance_03_redundancy_campaign():
    rep = verify_redundancy(2, 4, 2, flags_per_alpha=50, seed=0)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 6 * 50 * 35
    assert rep.elapsed < 30
    _report(3, f"reduced conditions decide membership over {rep.cases_tested} cases")


def test_acceptance_04_equality_theorem_campaign():
    rep = verify_flag_equality(2, 4, 2, trials=1000, seed=1)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 1000
    assert rep.parameters["negative_cases"] > 0
    assert rep.parameters["witnessed"] == rep.parameters["negative_cases"]
    assert rep.elapsed < 60
    _report(
        4,
        f"equality criterion matched the oracle on 1000 pairs; "
        f"all {rep.parameters['negative_cases']} negatives witnessed",
    )


def test_acceptance_05_dual_image_campaign():
    rep = verify_dual_image(2, 4, 2, trials=100, seed=7)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 100 * 6
    assert rep.elapsed < 60
    _report(5, f"contravariant image descriptor exact on {rep.cases_tested} cases")


def test_acceptance_06_automorphism_criterion_campaign():
    rep = verify_automorphism_criterion(2, 4, 2, trials=1000, seed=3)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 1000
    assert rep.elapsed < 120
    _report(6, "automorphism criterion agreed with the oracle on 1000 mixed trials")


def test_acceptance_07_alpha_uniqueness_campaign():
    rep = verify_alpha_uniqueness(2, 4, 2, flags_per_alpha=50, seed=0)
    assert rep.verdict == "pass"
    assert rep.cases_tested == 6 * 50
    _report(7, "equal point sets never crossed dimension tuples over 300 varieties")


def test_acceptance_08_stabilizer_census():
    gf = make_field(2)
    omega = SchubertVariety.standard(gf, 4, (1, 4))
    rep = stabilizer_census(omega, oracle="full")
    assert rep.group_size == 20160
    assert rep.tested == 20160
    assert rep.fast_count == rep.oracle_count == 1344  # 20160 / 15 lines
    assert rep.verdict == "pass"
    assert rep.elapsed < 600
    _report(8, f"census of 20160 matrices: criterion and oracle both accept 1344")


def test_acceptance_09_mutation_sensitivity():
    rep = verify_flag_equality(2, 4, 2, trials=200, seed=1, mutant="alpha-for-alpha-nc")
    assert rep.verdict == "fail" and rep.failures
    rep = verify_automorphism_criterion(
        2, 4, 2, trials=200, seed=3, mutant="skip-contravariant-set-check"
    )
    assert rep.verdict == "fail" and rep.failures
    rep = verify_dual_image(2, 4, 2, trials=20, seed=7, mutant="dual-formula-m-minus-j")
    assert rep.verdict == "fail" and rep.failures
    rep = verify_covariant_criterion(2, 4, 2, trials=200, seed=5, mutant="fix-every-member")
    assert rep.verdict == "fail" and rep.failures
    rep = verify_alpha_uniqueness(2, 4, 2, flags_per_alpha=10, seed=0, mutant="bucket-by-point-count")
    assert rep.verdict == "fail" and rep.failures
    _report(9, "all five injected criterion bugs were caught")


def test_acceptance_10_cli_determinism(tmp_path, capsys):
    flag1 = tmp_path / "flag1.json"
    flag2 = tmp_path / "flag2.json"
    tau = tmp_path / "tau.json"
    sigma = tmp_path / "sigma.json"
    setup = [
        ["gen-flag", "--q", "2", "--m", "4", "--alpha", "2,4", "--seed", "5", "-o", str(flag1)],
        ["gen-flag", "--q", "2", "--m", "4", "--alpha", "2,4", "--seed", "9", "-o", str(flag2)],
        ["gen-map", "--q", "2", "--m", "4", "--seed", "3", "-o", str(tau)],
        ["gen-map", "--q", "2", "--m", "4", "--seed", "3", "--dual", "-o", str(sigma)],
    ]
    for argv in setup:
        assert cli_main(argv) == 0
    capsys.readouterr()

    commands = [
        ["count", "--q", "2", "--m", "4", "--alpha", "2,4", "--polynomial"],
        ["points", "--q", "2", "--m", "4", "--alpha", "2,4"],
        ["alpha-nc", "--alpha", "2,3,4", "--m", "5"],
        ["dual-alpha", "--alpha", "1,4", "--m", "4"],
        ["eq", str(flag1), str(flag2), "--oracle", "--witness"],
        ["image", str(sigma), str(flag1)],
        ["aut-check", str(tau), str(flag1), "--both"],
        ["verify", "redundancy", "--q", "2", "--m", "4", "--l", "2",
         "--flags-per-alpha", "3", "--seed", "12"],
        ["verify", "flag-equality", "--q", "2", "--m", "4", "--l", "2",
         "--trials", "40", "--seed", "12"],
        ["census", "--q", "2", "--m", "3", "--alpha", "1,3", "--oracle", "full"],
        ["gen-flag", "--q", "2", "--m", "4", "--alpha", "1,3", "--seed", "21"],
        ["gen-map", "--q", "3", "--m", "3", "--seed", "21", "--allow-dual"],
    ]
    for argv in commands:
        first_rc = cli_main(argv)
        first = capsys.readouterr().out
        second_rc = cli_main(argv)
        second = capsys.readouterr().out
        assert first_rc == second_rc
        assert first == second, f"output drifted for {argv}"
        json.loads(first)  # every command speaks JSON
    _report(10, f"{len(commands)} commands byte-identical across repeated runs")
