"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned inside qharm.verification; the
baseline-guarded suites compare against the checked-in baselines file.
"""

import time

from qharm import verification as V


def _run(criterion, suite_fn, budget_s, detail_keys=(), **kwargs):
    t0 = time.time()
    result = suite_fn(**kwargs)
    elapsed = time.time() - t0
    status = "PASS" if result["pass"] else "FAIL"
    details = " ".join(f"{k}={result[k]!r}" for k in detail_keys if k in result)
    print(f"{status} criterion {criterion} [{result['suite']}] "
          f"({elapsed:.2f}s / budget {budget_s}s) {details}")
    assert result["pass"], result
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"
    return result


def test_criterion_01_sphere_integrals():
    _run(1, V.verify_spheres, 10, ("cases", "max_defect"))


def test_criterion_02_gamma():
    _run(2, V.verify_gamma, 5, ("max_reflection_defect", "max_integral_defect"))


def test_criterion_03_levy_khinchin():
    _run(3, V.verify_levy, 5, ("max_defect", "worked_case_exact"))


def test_criterion_04_kernel_three_way():
    r = _run(
        4,
        V.verify_kernel_agreement,
        30,
        ("points", "max_rel_disagreement", "max_gap_over_budget"),
    )
    assert r["points"] >= 500
    assert 0.0 < r["max_gap_over_budget"] <= 1.0


def test_criterion_05_mass_and_semigroup():
    _run(5, V.verify_semigroup, 30, ("max_mass_defect", "max_semigroup_l1"))


def test_criterion_06_kernel_estimates():
    r = _run(6, V.verify_kernel_bounds, 60)
    for combo in r["combos"]:
        assert combo["baseline_bound_ratio"] is not None, "baselines missing"


def test_criterion_07_taibleson_oracle():
    _run(7, V.verify_taibleson, 10, ("max_defect", "worked_value_defect"))


def test_criterion_08_contour_calculus():
    _run(8, V.verify_calculus, 20, ("max_contour_vs_direct", "max_nu_dependence"))


def test_criterion_09_square_function():
    _run(9, V.verify_squarefn, 30, ("max_l2_defect",))


def test_criterion_10a_doob():
    _run("10a", V.verify_doob, 60, ("instances", "max_excess"))


def test_criterion_10b_domination():
    _run("10b", V.verify_domination, 60, ("instances", "max_defect"))


def test_criterion_11_rbound():
    r = _run(11, V.verify_rbound, 60, ("ratio", "baseline", "seed_stable"))
    assert r["baseline"] is not None, "baselines missing"


def test_criterion_12_maximal_regularity():
    _run(12, V.verify_maxreg, 30, ("max_l2_ratio", "oracle_rel_err", "p4_ratio"))
