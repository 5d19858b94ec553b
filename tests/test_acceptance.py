"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Heavy sweeps are shared through session fixtures. The master seed is fixed so
every number below is reproducible; tolerances come from the criteria
themselves. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""
import numpy as np
import pytest

import sparse_risk as sr
from sparse_risk.experiments import (
    K,
    RHO,
    THETA0,
    count_local_maxima,
    moving_average_3,
)

SEED = 271828
GAMMA_POINTS = 21  # grid variant for the sweep criteria


def report_line(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="session")
def setup1_report():
    return sr.run_setup(
        "I", n_list=(60, 240, 960), replications=500,
        gamma_points=GAMMA_POINTS, master_seed=SEED,
    )


@pytest.fixture(scope="session")
def setup6_report():
    return sr.run_setup(
        "VI", n_list=(60, 960), replications=500,
        gamma_points=GAMMA_POINTS, master_seed=SEED,
    )


@pytest.fixture(scope="session")
def setup3_report():
    return sr.run_setup(
        "III", n_list=(480,), replications=500,
        gamma_points=41, master_seed=SEED,
    )


def test_criterion_1_ls_closed_form_risk():
    design = sr.DesignSpec("gaussian_ar", n=60, k=K, rho=RHO)
    row = sr.run_mc(
        design, THETA0, 0.0, ["ls"], 5000, SEED, setup="c1"
    )[0]
    target = sr.ls_mse_closed_form(60)
    ok = abs(row.mean_sq_err - target) < 0.05 * target
    line = report_line(
        1, ok, f"mc mean {row.mean_sq_err:.5f} vs 38/153 = {target:.5f} (5% band)"
    )
    assert ok, line


def test_criterion_2_oracle_equivalence():
    res = sr.oracle_check(cases_brute=1000, cases_solver=500, master_seed=SEED)
    ok = res.passed
    line = report_line(
        2, ok,
        f"grid-search dev {res.brute_force_max_dev:.2e} (<1e-4), "
        f"cd dev {res.cd_max_dev:.2e} (<1e-6)",
    )
    assert ok, line


def test_criterion_3_favorable_point(setup1_report):
    row = setup1_report.rows_for(estimator="scad", n=60, gamma=0.0)[0]
    ok = row.rel_median_me < 1.0
    line = report_line(
        3, ok, f"setup I n=60 gamma=0 rel median model error {row.rel_median_me:.3f} < 1"
    )
    assert ok, line


def test_criterion_4_worst_case_factors(setup1_report):
    points = {p.n: p for p in sr.worst_case_curve(setup1_report, "rel_median_me", "scad")}
    m60, m960 = points[60], points[960]
    gap_se = np.hypot(m60.mc_se, m960.mc_se)
    ok = (
        1.4 <= m60.value <= 2.6
        and 2.1 <= m960.value <= 3.9
        and (m960.value - m60.value) > 2 * gap_se
    )
    line = report_line(
        4, ok,
        f"max rel median ME: n=60 {m60.value:.3f} in [1.4,2.6], "
        f"n=960 {m960.value:.3f} in [2.1,3.9], "
        f"gap {m960.value - m60.value:.3f} > 2se = {2 * gap_se:.3f}",
    )
    assert ok, line


def test_criterion_5_peak_drift(setup1_report):
    points = {p.n: p for p in sr.worst_case_curve(setup1_report, "rel_median_me", "scad")}
    gammas = [points[n].gamma for n in (60, 240, 960)]
    ok = gammas[0] <= gammas[1] <= gammas[2]
    line = report_line(
        5, ok, "argmax gamma nondecreasing over n: " + " -> ".join(f"{g:.2f}" for g in gammas)
    )
    assert ok, line


def test_criterion_6_unscaled_grid_stays_bounded(setup6_report):
    points = {p.n: p for p in sr.worst_case_curve(setup6_report, "rel_median_me", "scad")}
    m60, m960 = points[60], points[960]
    diff = abs(m60.value - m960.value)
    band = 3 * np.hypot(m60.mc_se, m960.mc_se)
    ok = diff < band and 1.4 <= m60.value <= 2.6 and 1.4 <= m960.value <= 2.6
    line = report_line(
        6, ok,
        f"setup VI max: n=60 {m60.value:.3f}, n=960 {m960.value:.3f}, "
        f"|diff| {diff:.3f} < 3se = {band:.3f}, both near factor 2",
    )
    assert ok, line


def test_criterion_7_bimodal_curve(setup3_report):
    rows = sorted(
        setup3_report.rows_for(estimator="scad", n=480), key=lambda r: r.gamma
    )
    values = np.array([r.rel_median_me for r in rows])
    smoothed = moving_average_3(values)
    peaks = count_local_maxima(smoothed)
    ok = peaks == 2
    line = report_line(
        7, ok, f"setup III n=480 smoothed curve has {peaks} local maxima (want exactly 2)"
    )
    assert ok, line


def test_criterion_8_sparsity_condition(setup1_report):
    rates = [
        setup1_report.rows_for(estimator="scad", n=n, gamma=0.0)[0].sparsity_rate
        for n in (60, 240, 960)
    ]
    ok = rates[0] <= rates[1] <= rates[2] and rates[2] > 0.9
    line = report_line(
        8, ok,
        "P(pattern <= true pattern) over n: "
        + " -> ".join(f"{r:.3f}" for r in rates)
        + " (need nondecreasing and > 0.9 at n=960)",
    )
    assert ok, line


def test_criterion_9_lower_bound_against_bounded_benchmark():
    s = np.zeros(K)
    s[2] = 5.0
    bounds = []
    for n in (60, 240, 960):
        res = sr.lower_bound_diagnostic(s, n, "scad", 2000, SEED)
        bounds.append(res.bound)
    increasing = bounds[0] < bounds[1] < bounds[2]

    sigma = sr.ar1_covariance(K, RHO)
    target = 38.0 / 3.0
    ls_ok = True
    ls_risks = []
    for n in (60, 240, 960):
        X = sr.fixed_design_with_gram(n, sigma)
        design = sr.DesignSpec("fixed_matrix", n=n, k=K, fixed_matrix=X)
        row = sr.run_mc(
            design, -s / np.sqrt(n), 0.0, ["ls"], 2000, SEED, setup="c9"
        )[0]
        scaled = n * row.mean_sq_err
        ls_risks.append(scaled)
        ls_ok = ls_ok and abs(scaled - target) < 0.10 * target

    ok = increasing and ls_ok
    line = report_line(
        9, ok,
        "bound over n: " + " -> ".join(f"{b:.3f}" for b in bounds)
        + " (need strictly increasing toward 25); LS scaled risk "
        + ", ".join(f"{v:.2f}" for v in ls_risks)
        + f" each within 10% of {target:.2f}: {ls_ok}",
    )
    assert ok, line


def test_criterion_10_scalar_threshold_risk_diverges():
    curve = sr.hodges_risk_curve(
        (100, 10_000), np.linspace(-1.0, 1.0, 81), 20_000, SEED
    )
    peak_small, peak_large = curve.max_per_n()
    ok = peak_large > 5 * peak_small
    line = report_line(
        10, ok,
        f"max scaled MSE: n=100 {peak_small:.2f}, n=10000 {peak_large:.2f}, "
        f"ratio {peak_large / peak_small:.2f} > 5",
    )
    assert ok, line


def test_criterion_11_byte_identical_output_across_threads(tmp_path):
    from sparse_risk.cli import main

    outputs = []
    for name, threads in (("t1", "1"), ("t4", "4")):
        directory = tmp_path / name
        code = main(
            ["setup", "I", "--seed", str(SEED), "--reps", "40", "--n-list", "60",
             "--gamma-points", "5", "--threads", threads, "--out", str(directory)]
        )
        assert code == 0
        outputs.append(
            {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        )
    ok = outputs[0] == outputs[1] and len(outputs[0]) == 3
    line = report_line(
        11, ok, "setup I rerun with 1 vs 4 threads produced byte-identical CSVs"
    )
    assert ok, line


def test_extra_relative_mse_worst_case_grows(setup1_report):
    # companion check: the relative MSE worst case also rises with n
    points = {p.n: p for p in sr.worst_case_curve(setup1_report, "rel_mse", "scad")}
    ok = True
    for small, large in ((60, 240), (240, 960)):
        gap = points[large].value - points[small].value
        ok = ok and gap > 2 * np.hypot(points[small].mc_se, points[large].mc_se)
    print(
        "EXTRA: worst-case rel MSE "
        + " -> ".join(f"{points[n].value:.3f}" for n in (60, 240, 960))
        + f" strictly increasing beyond 2se: {ok}"
    )
    assert ok
