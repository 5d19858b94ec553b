import gc
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparse_risk
import sparse_risk.risk as risk_mod
from sparse_risk.datagen import (
    DesignSpec,
    RngStream,
    ar1_covariance,
    fixed_design_with_gram,
    make_theta,
    sample_design,
    sample_errors,
)
from sparse_risk.estimators import (
    _gram_sigma,
    fit_bic_select,
    fit_hard_threshold,
    fit_least_squares,
    gram_bundle,
    solve_vec,
)
from sparse_risk.experiments import run_setup
from sparse_risk.risk import (
    RiskReport,
    ls_mse_closed_form,
    map_cells,
    run_mc,
)
from sparse_risk.tuning import gcv_select, lambda_grid

THETA0 = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
ETA = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
SIGMA = ar1_covariance(8, 0.5)


def gaussian_design(n=60):
    return DesignSpec("gaussian_ar", n=n, k=8, rho=0.5)


def theta_at(gamma, n=60):
    """Setup I's parameter at gamma."""
    return make_theta(THETA0, ETA, n, gamma)


def model_error(theta_hat, theta_true):
    """The engine's covariance-weighted loss of one fit."""
    return risk_mod._losses(theta_hat[None], theta_true, SIGMA)[0][0]


class TestModelError:
    def test_zero_at_truth(self):
        assert model_error(THETA0, THETA0) == 0.0

    def test_unit_basis_vector(self):
        theta = THETA0.copy()
        theta[0] += 1.0
        assert model_error(theta, THETA0) == 1.0

    def test_two_correlated_coordinates(self):
        theta = THETA0.copy()
        theta[0] += 1.0
        theta[1] += 1.0
        assert model_error(theta, THETA0) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            model_error(np.ones(3), np.ones(3))


class TestLsClosedForm:
    def test_n60(self):
        assert ls_mse_closed_form(60) == pytest.approx(38 / 153)

    def test_n960(self):
        assert ls_mse_closed_form(960) == pytest.approx(38 / 2853)

    def test_limit_matches_trace_of_inverse(self):
        n = 10**9
        assert n * ls_mse_closed_form(n) == pytest.approx(
            np.trace(np.linalg.inv(SIGMA)), rel=1e-6
        )

    @pytest.mark.parametrize("n", [9, 5, 0])
    def test_small_n_rejected(self, n):
        with pytest.raises(ValueError):
            ls_mse_closed_form(n)


class TestRunMc:
    def test_least_squares_row_is_exactly_one(self):
        rows = run_mc(gaussian_design(), THETA0, 0.0, ["ls"], 40, 7)
        row = rows[0]
        assert row.rel_median_me == 1.0
        assert row.rel_mse == 1.0
        assert row.mc_se == 0.0
        # least squares is almost surely dense, so it never finds true zeros
        assert row.sparsity_rate == 0.0

    def test_zero_estimator_at_origin_has_zero_relative_error(self):
        rows = run_mc(
            gaussian_design(30), np.zeros(8), 0.0,
            ["zero", "ls"], 25, 13,
        )
        zero_row = next(r for r in rows if r.estimator == "zero")
        assert zero_row.rel_median_me == 0.0
        assert zero_row.allzero_rate == 1.0
        assert zero_row.mean_sq_err == 0.0

    def test_deterministic_and_thread_invariant(self):
        design = gaussian_design()
        names = ["scad", "ls", "hard", "bic"]
        # worker counts act across cells (map_cells), not inside one cell
        base = run_mc(design, theta_at(4.0), 4.0, names, 50, 99)
        again = run_mc(design, theta_at(4.0), 4.0, names, 50, 99)
        assert base == again

    def test_cell_leaves_no_reference_cycles(self):
        # an object cycle (a nested function that calls itself, say) would keep
        # every array it reaches alive until the cyclic collector runs
        names = ["scad", "ls", "hard", "bic"]
        run_mc(gaussian_design(), theta_at(4.0), 4.0, names, 50, 101)
        gc.collect()
        gc.disable()
        try:
            run_mc(gaussian_design(), theta_at(4.0), 4.0, names, 50, 102)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_fixed_design_ls_scaled_risk_matches_gram_trace(self):
        n = 120
        X = fixed_design_with_gram(n, SIGMA)
        design = DesignSpec("fixed_matrix", n=n, k=8, fixed_matrix=X)
        rows = run_mc(design, THETA0, 0.0, ["ls"], 2000, 21)
        scaled = n * rows[0].mean_sq_err
        target = float(np.trace(np.linalg.inv(SIGMA)))
        assert scaled == pytest.approx(target, rel=0.05)

    def test_gaussian_design_ls_matches_closed_form(self):
        rows = run_mc(gaussian_design(), THETA0, 0.0, ["ls"], 5000, 23)
        assert rows[0].mean_sq_err == pytest.approx(ls_mse_closed_form(60), rel=0.05)

    def test_scad_sparsity_indicator_semantics(self):
        design = gaussian_design()
        rows = run_mc(design, THETA0, 0.0, ["scad", "ls"], 60, 31)
        scad_row = next(r for r in rows if r.estimator == "scad")
        assert 0.0 <= scad_row.sparsity_rate <= 1.0
        # at gamma > 0 every path coordinate is nonzero, so any pattern passes
        rows_g = run_mc(design, theta_at(4.0), 4.0, ["scad"], 25, 31)
        assert rows_g[0].sparsity_rate == 1.0

    def test_failure_accounting(self, monkeypatch):
        design = gaussian_design(30)
        real_fit_block = risk_mod._fit_block

        def flaky(name, G, b, yty, th_ls, sig, n, k, scale):
            if name == "zero":
                if G.shape[0] > 1:
                    raise np.linalg.LinAlgError("batch boom")
                if abs(float(yty[0]) * 1e6) % 10 < 4:  # fail a data-dependent subset
                    raise np.linalg.LinAlgError("rep boom")
            return real_fit_block(name, G, b, yty, th_ls, sig, n, k, scale)

        monkeypatch.setattr(risk_mod, "_fit_block", flaky)
        rows = run_mc(design, THETA0, 0.0, ["zero", "ls"], 40, 41)
        zero_row = next(r for r in rows if r.estimator == "zero")
        ls_row = next(r for r in rows if r.estimator == "ls")
        assert zero_row.failures > 0
        assert ls_row.failures == 0
        report = RiskReport(rows=rows, master_seed=41, replications=40)
        assert report.flagged

    def test_estimator_failing_every_replication(self, monkeypatch):
        design, theta = gaussian_design(), theta_at(4.0)
        names = ["zero", "ls", "hard"]
        clean = run_mc(design, theta, 4.0, names, 40, 43)
        real_fit_block = risk_mod._fit_block

        def broken(name, *args):
            if name == "zero":
                raise np.linalg.LinAlgError("boom")
            return real_fit_block(name, *args)

        monkeypatch.setattr(risk_mod, "_fit_block", broken)
        rows = run_mc(design, theta, 4.0, names, 40, 43)
        zero_row = rows[0]
        assert zero_row.failures == 40
        for stat in ("rel_median_me", "rel_mse", "sparsity_rate", "mc_se", "mc_se_rel_mse",
                     "mean_sq_err", "allzero_rate"):
            assert math.isnan(getattr(zero_row, stat)), stat
        assert rows[1:] == clean[1:]
        assert RiskReport(rows=rows, master_seed=43, replications=40).flagged

    def test_standard_errors_need_two_replications(self):
        # every bootstrap resample of one value is that value, so one
        # replication gives no standard error, not a standard error of 0
        names = ["scad", "ls", "hard", "bic", "zero"]
        for R in (1, 2):
            for row in run_mc(gaussian_design(), theta_at(4.0), 4.0, names, R, 7):
                assert math.isfinite(row.rel_mse) and row.failures == 0
                for se in (row.mc_se, row.mc_se_rel_mse):
                    assert math.isnan(se) if R == 1 else math.isfinite(se), (R, row)

    def test_one_failing_replication_costs_logarithmically_many_fits(self, monkeypatch):
        R = 500
        design = gaussian_design(960)
        G, Xe, ee = (a.copy() for a in risk_mod._draw_grams(design, 5, "one-bad", R))
        # G stays nonsingular, but the subset {3} has G_33 = 0, so only BIC fails
        G[123, 3, :] = G[123, :, 3] = 0.0
        G[123, 2, 3] = G[123, 3, 2] = 1.0
        monkeypatch.setattr(risk_mod, "_shared_draws", lambda *args: (G, Xe, ee))
        real_fit_block = risk_mod._fit_block
        bic_calls = []

        def counting(name, *args):
            if name == "bic":
                bic_calls.append(args[0].shape[0])
            return real_fit_block(name, *args)

        monkeypatch.setattr(risk_mod, "_fit_block", counting)
        rows = {r.estimator: r for r in run_mc(design, THETA0, 0.0, ["ls", "bic"], R, 5)}
        assert rows["ls"].failures == 0
        assert rows["bic"].failures == 1
        assert np.isfinite(rows["bic"].rel_mse)
        assert len(bic_calls) <= 2 * math.ceil(math.log2(R)) + 1
        assert bic_calls[0] == R

    def test_validation(self):
        design = gaussian_design()
        with pytest.raises(ValueError):
            run_mc(design, THETA0, 0.0, ["ls"], 0, 1)
        # theta must be a finite vector of length k
        for bad in (THETA0[:5], THETA0[None], np.r_[THETA0[:7], np.inf], np.full(8, np.nan)):
            with pytest.raises(ValueError):
                run_mc(design, bad, 0.0, ["ls"], 5, 1)


def _median_se_reference(values):
    """The order-statistic rule from a full sort: the 95% interval between
    1-based ranks m/2 -+ 0.98 sqrt(m), clipped to [1, m], over 3.92."""
    m = len(values)
    x = np.sort(values)
    j = max(math.floor(m / 2 - 0.98 * math.sqrt(m)), 1)
    k = min(math.ceil(m / 2 + 0.98 * math.sqrt(m)), m)
    return (x[k - 1] - x[j - 1]) / 3.92


def _ratio_se_reference(num, den):
    """Delta-method SE of mean(num) / mean(den) in covariance form."""
    m = len(num)
    q = num.mean() / den.mean()
    cov = np.cov(num, den, ddof=1)
    var = cov[0, 0] - 2.0 * q * cov[0, 1] + q * q * cov[1, 1]
    return math.sqrt(var / m) / den.mean()


def _recording_summaries(monkeypatch):
    """Record each ``_summarize`` call's arguments."""
    calls = []
    real = risk_mod._summarize

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(risk_mod, "_summarize", recording)
    return calls


def _bootstrap(theta, theta_true, sigma, me_ls, sq_ls, resamples, seed):
    """Bootstrap SEs of the median model-error ratio and of the ratio of
    mean squared errors, from ``resamples`` resamples of the m rows."""
    me, sq = risk_mod._losses(theta, theta_true, sigma)
    ratios = me / me_ls
    idx = np.random.default_rng(seed).integers(0, len(theta), size=(resamples, len(theta)))
    means = sq[idx].mean(axis=1) / sq_ls[idx].mean(axis=1)
    return np.std(np.median(ratios[idx], axis=1), ddof=1), np.std(means, ddof=1)


class TestClosedFormStandardErrors:
    """``mc_se`` is the order-statistic SE of the median model-error ratio and
    ``mc_se_rel_mse`` the delta-method SE of the ratio of mean squared errors."""

    @pytest.mark.parametrize("m, lo, hi", [(2, 1, 2), (3, 1, 3), (100, 40, 60), (500, 228, 272)])
    def test_median_se_rank_rule(self, m, lo, hi):
        # ranks max(floor(m/2 - 0.98 sqrt(m)), 1) and min(ceil(m/2 + 0.98 sqrt(m)), m)
        values = np.random.default_rng(m).permutation(np.arange(m, dtype=float))
        assert risk_mod._bootstrap_se(values) == (hi - lo) / 3.92
        assert risk_mod._bootstrap_se(values) == _median_se_reference(values)
        assert risk_mod._bootstrap_se(np.ones(m)) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 499, 500])
    def test_ratio_se_matches_the_covariance_form(self, m):
        rng = np.random.default_rng(m)
        den = rng.chisquare(8, m)
        num = 0.7 * den + rng.chisquare(3, m)
        assert risk_mod._bootstrap_se_ratio(num, den) == pytest.approx(
            _ratio_se_reference(num, den), rel=1e-12)
        # the residuals of a ratio with itself are exactly zero
        assert risk_mod._bootstrap_se_ratio(den, den) == 0.0

    def test_cell_with_failed_rows(self, monkeypatch):
        calls = _recording_summaries(monkeypatch)
        real_fit_block = risk_mod._fit_block

        def flaky(name, G, b, yty, th_ls, sig, n, k, scale):
            if name == "hard" and (G.shape[0] > 1 or abs(float(yty[0]) * 1e6) % 10 < 4):
                raise np.linalg.LinAlgError("boom")
            return real_fit_block(name, G, b, yty, th_ls, sig, n, k, scale)

        monkeypatch.setattr(risk_mod, "_fit_block", flaky)
        rows = run_mc(gaussian_design(), theta_at(4.0), 4.0, ["ls", "hard"], 60, 19)
        assert rows[0].failures == 0 and 0 < rows[1].failures < 59
        assert rows[0].mc_se == rows[0].mc_se_rel_mse == 0.0
        for row, (theta, theta_true, sigma, me_ls, sq_ls) in zip(rows, calls):
            # the standard errors read the replications that did not fail
            assert len(theta) == 60 - row.failures
            me, sq = risk_mod._losses(theta, theta_true, sigma)
            assert row.mc_se == _median_se_reference(me / me_ls)
            assert row.mc_se_rel_mse == pytest.approx(
                _ratio_se_reference(sq, sq_ls), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n, gamma", [(60, 2.8), (240, 4.0), (960, 4.4)])
    def test_close_to_a_large_bootstrap(self, monkeypatch, n, gamma):
        # Setup I SCAD cells near the worst case, against 2,000 resamples
        calls = _recording_summaries(monkeypatch)
        rows = run_mc(gaussian_design(n), theta_at(gamma, n), gamma, ["scad", "ls"], 500,
                      271828, setup="I")
        boot_median, boot_ratio = _bootstrap(*calls[0], 2000, n)
        assert rows[0].mc_se == pytest.approx(boot_median, rel=0.2)
        assert rows[0].mc_se_rel_mse == pytest.approx(boot_ratio, rel=0.05)

    def test_allocation_ceiling(self, monkeypatch, traced_peak):
        # the summaries of one R = 500 cell trace about 0.17 MB
        summarize = risk_mod._summarize
        calls = _recording_summaries(monkeypatch)
        run_mc(gaussian_design(), theta_at(4.0), 4.0, list(risk_mod.ESTIMATORS), 500, 23)
        assert len(calls) == len(risk_mod.ESTIMATORS)
        assert max(traced_peak(summarize, *args) for args in calls) < 0.3e6


class TestFitRows:
    """A batch that raises is split in halves until the row that fails alone
    is found; every other row keeps the bits of the unsplit batch fit."""

    @pytest.mark.parametrize("bad", [0, 23, 36])
    def test_only_the_failing_row_is_marked(self, bad):
        design = DesignSpec("gaussian_ar", n=60, k=8, rho=0.5)
        G, Xe, _ = risk_mod._draw_grams(design, 3, "fit-rows", 37)
        b = G @ THETA0 + Xe
        rows = np.arange(37)

        def fit(G_part, b_part, rows_part, nothing):
            assert nothing is None
            if bad in rows_part:
                raise np.linalg.LinAlgError("marked row")
            return solve_vec(G_part, b_part)

        out, failed = risk_mod._fit_rows(fit, (G, b, rows, None), 8)
        assert np.flatnonzero(failed).tolist() == [bad]
        assert not out[bad].any()
        others = rows != bad
        assert np.array_equal(out[others], solve_vec(G, b)[others])


class TestCommonRandomNumbers:
    """Every gamma cell of one (setup, n) runs on the same replications."""

    NAMES = ["ls", "hard", "bic"]

    def test_ls_error_is_the_same_at_every_gamma(self):
        # theta_ls - theta(gamma) = G^-1 X'eps, which has no gamma in it
        report = run_setup("I", n_list=(60, 240), replications=20, gamma_points=4,
                           master_seed=17)
        for n in (60, 240):
            errors = [r.mean_sq_err for r in report.rows_for(estimator="ls", n=n)]
            assert len(errors) == 4
            np.testing.assert_allclose(errors, errors[0], rtol=1e-12, atol=0)

    def cell(self, design, gamma=4.0):
        return run_mc(design, theta_at(gamma, design.n), gamma, self.NAMES, 30, 57, setup="I")

    def test_cell_rows_do_not_depend_on_earlier_cells(self):
        gauss = DesignSpec("gaussian_ar", n=60, k=8, rho=0.5)
        fixed_a = DesignSpec("fixed_matrix", n=60, k=8,
                             fixed_matrix=fixed_design_with_gram(60, SIGMA))
        fixed_b = DesignSpec("fixed_matrix", n=60, k=8,
                             fixed_matrix=fixed_design_with_gram(60, np.eye(8)))
        other_rho = DesignSpec("gaussian_ar", n=60, k=8, rho=0.3)
        other_n = DesignSpec("gaussian_ar", n=40, k=8, rho=0.5)
        for design in (gauss, fixed_a):
            risk_mod._DRAWS.clear()
            first = self.cell(design)
            for before in (
                lambda: self.cell(design, gamma=8.0),
                lambda: self.cell(other_n),
                lambda: self.cell(fixed_b),
                lambda: self.cell(other_rho),
            ):
                before()
                assert self.cell(design) == first
        # distinct designs with the same n, seed and setup never share a draw
        ls_errors = {self.cell(d)[0].mean_sq_err for d in (gauss, other_rho, fixed_a, fixed_b)}
        assert len(ls_errors) == 4

    def test_cells_read_the_streams_of_their_setup_and_n(self):
        design = DesignSpec("gaussian_ar", n=50, k=8, rho=0.5)
        run_mc(design, theta_at(2.0, 50), 2.0, self.NAMES, 4, 5, setup="I")
        (shared,) = risk_mod._DRAWS.values()
        drawn = risk_mod._draw_grams(design, 5, "I/n=50", 4)
        for kept, fresh in zip(shared, drawn):
            assert not kept.flags.writeable
            assert np.array_equal(kept, fresh)


def direct_statistics(design, seed, R, theta):
    """G, X'eps, eps'eps, X'y and y'y from R drawn designs and error vectors."""
    G = np.empty((R, design.k, design.k))
    Xe = np.empty((R, design.k))
    ee = np.empty(R)
    b = np.empty((R, design.k))
    yty = np.empty(R)
    for r in range(R):
        X = sample_design(design, RngStream(seed, r, "design"))
        eps = sample_errors(design.n, RngStream(seed, r, "errors"))
        y = X @ theta + eps
        G[r], Xe[r], ee[r] = X.T @ X, X.T @ eps, eps @ eps
        b[r], yty[r] = X.T @ y, y @ y
    return G, Xe, ee, b, yty


def mean_z(sample, target):
    """|mean - target| in standard errors of the mean, elementwise."""
    se = sample.std(axis=0, ddof=1) / np.sqrt(sample.shape[0])
    return np.abs(sample.mean(axis=0) - target) / se


def two_sample_z(a, c):
    """|mean(a) - mean(c)| in standard errors of the difference, elementwise."""
    se = np.sqrt(a.var(axis=0, ddof=1) / a.shape[0] + c.var(axis=0, ddof=1) / c.shape[0])
    return np.abs(a.mean(axis=0) - c.mean(axis=0)) / se


def ks_statistic(a, c):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_c|."""
    a, c = np.sort(a), np.sort(c)
    points = np.concatenate([a, c])
    fa = np.searchsorted(a, points, side="right") / a.size
    fc = np.searchsorted(c, points, side="right") / c.size
    return float(np.abs(fa - fc).max())


class TestSufficientStatisticDraw:
    """The engine draws G, X'eps and eps'eps from their exact law; the direct
    path through ``sample_design`` and ``sample_errors`` is the reference."""

    N = 60
    THETA = THETA0 + 3.0 / np.sqrt(60) * ETA

    @pytest.fixture(scope="class")
    def draws(self):
        design = DesignSpec("gaussian_ar", n=self.N, k=8, rho=0.5)
        G, Xe, ee = risk_mod._draw_grams(design, 61, "I/n=60", 4000)
        direct = direct_statistics(design, 62, 2000, self.THETA)
        return G, Xe, ee, direct

    def test_moments_match_the_direct_path(self, draws):
        G, Xe, ee, (G_d, Xe_d, ee_d, _, _) = draws
        outer = Xe[:, :, None] * Xe[:, None, :]
        outer_d = Xe_d[:, :, None] * Xe_d[:, None, :]
        n_sigma = self.N * SIGMA
        for drawn, direct, target in (
            (G, G_d, n_sigma), (Xe, Xe_d, np.zeros(8)),
            (outer, outer_d, n_sigma), (ee, ee_d, self.N),
        ):
            assert np.max(mean_z(drawn, target)) < 5
            assert np.max(mean_z(direct, target)) < 5
            assert np.max(two_sample_z(drawn, direct)) < 5

    def test_response_statistics_match_the_direct_path(self, draws):
        # critical value 1.95 sqrt((m + n) / mn) is the 0.001 level
        G, Xe, ee, (_, _, _, b_d, yty_d) = draws
        b = G @ self.THETA + Xe
        yty = b @ self.THETA + Xe @ self.THETA + ee
        critical = 1.95 * np.sqrt(1 / b.shape[0] + 1 / b_d.shape[0])
        for j in range(8):
            assert ks_statistic(b[:, j], b_d[:, j]) < critical, j
        assert ks_statistic(yty, yty_d) < critical

    @pytest.mark.parametrize("n", [960, 10**6])
    def test_ls_risk_matches_closed_form_at_any_n(self, n):
        rows = run_mc(gaussian_design(n), THETA0, 0.0, ["ls"], 5000, 67)
        assert rows[0].mean_sq_err == pytest.approx(ls_mse_closed_form(n), rel=0.05)

    def test_fixed_design_gram_is_exact_in_every_replication(self):
        X = fixed_design_with_gram(40, SIGMA) + 0.1
        design = DesignSpec("fixed_matrix", n=40, k=8, fixed_matrix=X)
        G, Xe, ee = risk_mod._draw_grams(design, 71, "sweep/n=40", 30)
        assert G.shape == (30, 8, 8)
        for r in range(30):
            assert np.array_equal(G[r], X.T @ X)
        assert Xe.shape == (30, 8) and np.all(ee > 0)

    def test_gaussian_design_below_k_rejected(self):
        design = DesignSpec("gaussian_ar", n=7, k=8, rho=0.5)
        with pytest.raises(ValueError, match="n >= k"):
            risk_mod._draw_grams(design, 1, "sweep/n=7", 3)


class TestMapCells:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_cell_order_with_kwargs(self, workers):
        cells = [("17",), ("10",), ("7",)]
        assert map_cells(int, cells, workers, base=8) == [15, 8, 7]

    def test_pool_never_outnumbers_cells(self):
        # a lambda cannot be sent to a worker process, so these run in-process
        assert map_cells(lambda v: v + 1, [(1,)], 2) == [2]
        assert map_cells(lambda v: v + 1, [], 2) == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            map_cells(int, [("1",)], workers)


def test_serial_setup_run_skips_masked_arrays_and_the_pool(tmp_path):
    # np.median's NaN check imports numpy.ma and a process pool needs
    # concurrent.futures; a serial run should pay for neither. SciPy is not a
    # declared dependency, so no estimator may load it where it is installed.
    script = (
        "import sys\n"
        "from sparse_risk import cli\n"
        "status = cli.main(['setup', 'I', '--reps', '20', '--n-list', '60',\n"
        "                   '--gamma-points', '2', '--threads', '1',\n"
        "                   '--estimators', 'scad,ls,hard,bic', '--out', sys.argv[1]])\n"
        "print(status, sorted({'numpy.ma', 'concurrent.futures', 'scipy'} & set(sys.modules)))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPARSE_RISK_")}
    env["PYTHONPATH"] = str(Path(sparse_risk.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (10,), (3, 1), (5, 2), (200, 7), (200, 8)])
def test_median_matches_numpy_bytes(shape):
    rng = np.random.default_rng(sum(shape))
    for x in (
        rng.standard_normal(shape),
        rng.choice([-0.0, 0.0, 1.0, -1.0], shape),  # signed zeros and ties
        np.where(rng.random(shape) < 0.1, np.nan, rng.standard_normal(shape)),
        np.where(rng.random(shape) < 0.1, np.inf, rng.standard_normal(shape)),
    ):
        got = np.asarray(risk_mod._median(x))
        want = np.asarray(np.median(x, axis=-1))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def engine_block(designs, responses):
    """Gram statistics and the engine's least-squares fit and error scale."""
    n, k = designs[0].shape
    stats = [gram_bundle(X, y) for X, y in zip(designs, responses)]
    G, b, yty = (np.array(col) for col in zip(*stats))
    th_ls = solve_vec(G, b)
    return G, b, yty, th_ls, _gram_sigma(yty, b, th_ls, n), n, k


class TestEngineMatchesSingleFits:
    """Each engine kind equals its single-problem function row by row, noiseless
    rows (y = X theta) included."""

    @pytest.fixture(scope="class")
    def block(self):
        rng = np.random.default_rng(29)
        chol = np.linalg.cholesky(SIGMA)
        n = 40
        designs, responses = [], []
        for r in range(40):
            X = rng.standard_normal((n, 8)) @ chol.T
            if r % 2:
                gamma = rng.uniform(0.0, 8.0)
                y = X @ (THETA0 + gamma / np.sqrt(n) * ETA) + rng.standard_normal(n)
            else:
                y = X @ THETA0
            designs.append(X)
            responses.append(y)
        return designs, responses, engine_block(designs, responses)

    @pytest.mark.parametrize("name, fit", [
        ("ls", fit_least_squares),
        ("hard", fit_hard_threshold),
        ("bic", fit_bic_select),
    ])
    def test_unpenalized_kinds(self, block, name, fit):
        designs, responses, args = block
        theta = risk_mod._fit_block(name, *args, "log_ratio")[0]
        for r, (X, y) in enumerate(zip(designs, responses)):
            assert np.array_equal(theta[r], fit(X, y)), (name, r)

    def test_scad_matches_gcv_select_on_engine_grid(self, block):
        designs, responses, args = block
        theta, lam, sweeps, conv = risk_mod._fit_block("scad", *args, "pow4")
        n, sig = args[5], args[4]
        for r, (X, y) in enumerate(zip(designs, responses)):
            lam_r, theta_r, sweeps_r, conv_r = gcv_select(X, y, lambda_grid("pow4", n, sig[r]))
            assert lam_r == lam[r], r
            assert np.array_equal(theta[r], theta_r), r
            assert sweeps_r == sweeps[r] and conv_r == conv[r], r


class TestRiskReport:
    def make_report(self, tmp_path):
        design = gaussian_design()
        report = RiskReport(master_seed=5, replications=20)
        for gamma in (0.0, 4.0):
            report.extend(run_mc(design, theta_at(gamma), gamma, ["scad", "ls"], 20, 5,
                                 setup="I"))
        return report

    def test_csv_roundtrip_format(self, tmp_path):
        report = self.make_report(tmp_path)
        out = tmp_path / "report.csv"
        report.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# master_seed=5 replications=20 version=")
        assert lines[1] == "setup,n,gamma,estimator,rel_median_me,rel_mse,sparsity_rate,mc_se,R,seed"
        assert len(lines) == 2 + 4  # two cells x two estimators
        first = lines[2].split(",")
        assert first[0] == "I" and first[1] == "60"

    def test_csv_bytes_reproducible(self, tmp_path):
        a = self.make_report(tmp_path)
        b = self.make_report(tmp_path)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_header_version_is_the_declared_version(self):
        text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
        assert sparse_risk.__version__ == declared
        assert risk_mod.csv_header(1, 2).endswith(f"version={declared}")

    def test_filters(self, tmp_path):
        report = self.make_report(tmp_path)
        assert {r.estimator for r in report.rows_for(estimator="ls")} == {"ls"}
        assert {r.gamma for r in report.rows_for(gamma=0.0)} == {0.0}
        assert report.estimator_labels == ["scad", "ls"]
