import re
from pathlib import Path

import numpy as np
import pytest

import sparse_risk
import sparse_risk.risk as risk_mod
from sparse_risk.datagen import (
    DesignSpec,
    ParameterPath,
    RngStream,
    ar1_covariance,
    fixed_design_with_gram,
    sample_design,
    sample_errors,
)
from sparse_risk.estimators import (
    EstimatorConfig,
    _gram_sigma,
    fit_bic_select,
    fit_hard_threshold,
    fit_least_squares,
    gram_bundle,
    hodges_scalar,
    solve_vec,
)
from sparse_risk.experiments import run_setup
from sparse_risk.risk import (
    RiskReport,
    ls_mse_closed_form,
    map_cells,
    model_error,
    run_mc,
)
from sparse_risk.tuning import LambdaRule, gcv_select, lambda_grid

THETA0 = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
ETA = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
SIGMA = ar1_covariance(8, 0.5)


def gaussian_cell(n=60):
    design = DesignSpec("gaussian_ar", n=n, k=8, rho=0.5)
    path = ParameterPath(THETA0, ETA, np.linspace(0, 8, 3), n)
    return design, path


class TestModelError:
    def test_zero_at_truth(self):
        assert model_error(THETA0, THETA0, SIGMA) == 0.0

    def test_unit_basis_vector(self):
        theta = THETA0.copy()
        theta[0] += 1.0
        assert model_error(theta, THETA0, SIGMA) == pytest.approx(1.0)

    def test_two_correlated_coordinates(self):
        theta = THETA0.copy()
        theta[0] += 1.0
        theta[1] += 1.0
        assert model_error(theta, THETA0, SIGMA) == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            model_error(np.ones(3), np.ones(3), SIGMA)


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
        design, path = gaussian_cell()
        rows = run_mc(design, path, 0.0, [EstimatorConfig(kind="ls")], 40, 7)
        row = rows[0]
        assert row.rel_median_me == 1.0
        assert row.rel_mse == 1.0
        assert row.mc_se == 0.0
        # least squares is almost surely dense, so it never finds true zeros
        assert row.sparsity_rate == 0.0

    def test_estimator_coinciding_with_ls_is_exactly_one(self):
        design, path = gaussian_cell()
        rows = run_mc(
            design, path, 4.0,
            [EstimatorConfig(kind="ls"), EstimatorConfig(kind="ls", label="ls_twin")],
            30, 11,
        )
        twin = next(r for r in rows if r.estimator == "ls_twin")
        assert twin.rel_median_me == 1.0
        assert twin.rel_mse == 1.0

    def test_zero_estimator_at_origin_has_zero_relative_error(self):
        design = DesignSpec("gaussian_ar", n=30, k=8, rho=0.5)
        path = ParameterPath(np.zeros(8), ETA, np.array([0.0]), 30)
        rows = run_mc(
            design, path, 0.0,
            [EstimatorConfig(kind="zero"), EstimatorConfig(kind="ls")],
            25, 13,
        )
        zero_row = next(r for r in rows if r.estimator == "zero")
        assert zero_row.rel_median_me == 0.0
        assert zero_row.allzero_rate == 1.0
        assert zero_row.mean_sq_err == 0.0

    def test_deterministic_and_thread_invariant(self):
        design, path = gaussian_cell()
        configs = [
            EstimatorConfig(kind="scad", lambda_rule=LambdaRule()),
            EstimatorConfig(kind="ls"),
            EstimatorConfig(kind="hard_threshold", label="hard"),
            EstimatorConfig(kind="bic"),
        ]
        # worker counts act across cells (map_cells), not inside one cell
        base = run_mc(design, path, 4.0, configs, 50, 99)
        again = run_mc(design, path, 4.0, configs, 50, 99)
        assert base == again

    def test_fixed_design_ls_scaled_risk_matches_gram_trace(self):
        n = 120
        X = fixed_design_with_gram(n, SIGMA)
        design = DesignSpec("fixed_matrix", n=n, k=8, fixed_matrix=X)
        path = ParameterPath(THETA0, ETA, np.array([0.0]), n)
        rows = run_mc(design, path, 0.0, [EstimatorConfig(kind="ls")], 2000, 21)
        scaled = n * rows[0].mean_sq_err
        target = float(np.trace(np.linalg.inv(SIGMA)))
        assert scaled == pytest.approx(target, rel=0.05)

    def test_gaussian_design_ls_matches_closed_form(self):
        design, path = gaussian_cell(60)
        rows = run_mc(design, path, 0.0, [EstimatorConfig(kind="ls")], 5000, 23)
        assert rows[0].mean_sq_err == pytest.approx(ls_mse_closed_form(60), rel=0.05)

    def test_scad_sparsity_indicator_semantics(self):
        design, path = gaussian_cell(60)
        cfg = EstimatorConfig(kind="scad", lambda_rule=LambdaRule())
        rows = run_mc(design, path, 0.0, [cfg, EstimatorConfig(kind="ls")], 60, 31)
        scad_row = next(r for r in rows if r.estimator == "scad")
        assert 0.0 <= scad_row.sparsity_rate <= 1.0
        # at gamma > 0 every path coordinate is nonzero, so any pattern passes
        rows_g = run_mc(design, path, 4.0, [cfg], 25, 31)
        assert rows_g[0].sparsity_rate == 1.0

    def test_failure_accounting(self, monkeypatch):
        design, path = gaussian_cell(30)
        real_fit_block = risk_mod._fit_block

        def flaky(config, G, b, yty, th_ls, sig, n, k):
            if config.kind == "zero":
                if G.shape[0] > 1:
                    raise np.linalg.LinAlgError("batch boom")
                if abs(float(yty[0]) * 1e6) % 10 < 4:  # fail a data-dependent subset
                    raise np.linalg.LinAlgError("rep boom")
            return real_fit_block(config, G, b, yty, th_ls, sig, n, k)

        monkeypatch.setattr(risk_mod, "_fit_block", flaky)
        rows = run_mc(
            design, path, 0.0,
            [EstimatorConfig(kind="zero"), EstimatorConfig(kind="ls")],
            40, 41,
        )
        zero_row = next(r for r in rows if r.estimator == "zero")
        ls_row = next(r for r in rows if r.estimator == "ls")
        assert zero_row.failures > 0
        assert ls_row.failures == 0
        report = RiskReport(rows=rows, master_seed=41, replications=40)
        assert report.flagged

    def test_validation(self):
        design, path = gaussian_cell()
        with pytest.raises(ValueError):
            run_mc(design, path, 0.0, [], 10, 1)
        with pytest.raises(ValueError):
            run_mc(design, path, 0.0, [EstimatorConfig(kind="ls")], 0, 1)
        with pytest.raises(ValueError):
            bad_path = ParameterPath(THETA0, ETA, np.array([0.0]), 61)
            run_mc(design, bad_path, 0.0, [EstimatorConfig(kind="ls")], 5, 1)
        with pytest.raises(ValueError):
            run_mc(
                design, path, 0.0,
                [EstimatorConfig(kind="ls"), EstimatorConfig(kind="ls")],
                5, 1,
            )


class TestCommonRandomNumbers:
    """Every gamma cell of one (setup, n) runs on the same replications."""

    CONFIGS = [
        EstimatorConfig(kind="ls"),
        EstimatorConfig(kind="hard_threshold", label="hard"),
        EstimatorConfig(kind="bic"),
    ]

    def test_ls_error_is_the_same_at_every_gamma(self):
        # theta_ls - theta(gamma) = G^-1 X'eps, which has no gamma in it
        report = run_setup("I", n_list=(60, 240), replications=20, gamma_points=4,
                           master_seed=17)
        for n in (60, 240):
            errors = [r.mean_sq_err for r in report.rows_for(estimator="ls", n=n)]
            assert len(errors) == 4
            np.testing.assert_allclose(errors, errors[0], rtol=1e-12, atol=0)

    def cell(self, design, gamma=4.0):
        path = ParameterPath(THETA0, ETA, np.linspace(0, 8, 3), design.n)
        return run_mc(design, path, gamma, self.CONFIGS, 30, 57, setup="I")

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
        path = ParameterPath(THETA0, ETA, np.array([2.0]), 50)
        run_mc(design, path, 2.0, self.CONFIGS, 4, 5, setup="I")
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
        design, path = gaussian_cell(n)
        rows = run_mc(design, path, 0.0, [EstimatorConfig(kind="ls")], 5000, 67)
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

    @pytest.mark.parametrize("kind, fit", [
        ("ls", fit_least_squares),
        ("hard_threshold", fit_hard_threshold),
        ("bic", fit_bic_select),
    ])
    def test_unpenalized_kinds(self, block, kind, fit):
        designs, responses, args = block
        theta = risk_mod._fit_block(EstimatorConfig(kind=kind), *args)[0]
        for r, (X, y) in enumerate(zip(designs, responses)):
            assert np.array_equal(theta[r], fit(X, y).theta_hat), (kind, r)

    @pytest.mark.parametrize("solver", ["lqa", "cd"])
    def test_scad_matches_gcv_select_on_engine_grid(self, block, solver):
        designs, responses, args = block
        rule = LambdaRule()
        config = EstimatorConfig(kind="scad", solver=solver, lambda_rule=rule)
        theta, lam = risk_mod._fit_block(config, *args)[:2]
        n, sig = args[5], args[4]
        for r, (X, y) in enumerate(zip(designs, responses)):
            lam_r, fit = gcv_select(X, y, lambda_grid(rule, n, sig[r]), solver=solver)
            assert lam_r == lam[r], (solver, r)
            assert np.array_equal(theta[r], fit.theta_hat), (solver, r)

    def test_hodges_matches_scalar_rule(self):
        rng = np.random.default_rng(31)
        n = 40
        X = np.ones((n, 1))
        means = rng.uniform(-1.0, 1.0, size=40)
        responses = [
            mu + (rng.standard_normal(n) if r % 2 else np.zeros(n))
            for r, mu in enumerate(means)
        ]
        args = engine_block([X] * 40, responses)
        theta = risk_mod._fit_block(EstimatorConfig(kind="hodges"), *args)[0]
        th_ls = args[3]
        for r in range(40):
            assert np.array_equal(theta[r], [hodges_scalar(th_ls[r, 0], n)]), r
        assert 0 < np.count_nonzero(theta) < 40


class TestRiskReport:
    def make_report(self, tmp_path):
        design, path = gaussian_cell(60)
        cfg = [EstimatorConfig(kind="scad", lambda_rule=LambdaRule()), EstimatorConfig(kind="ls")]
        report = RiskReport(master_seed=5, replications=20)
        for gamma in (0.0, 4.0):
            report.extend(run_mc(design, path, gamma, cfg, 20, 5, setup="I"))
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
