import numpy as np
import pytest

from sparse_risk.datagen import DesignSpec, ar1_covariance
from sparse_risk.estimators import (
    SOLVER_MAX_ITER, SOLVER_TOL, _cd_batch, _checked_gram, _gram_sigma, solve_vec,
)
from sparse_risk.penalties import scad_derivative
from sparse_risk.risk import run_mc
from sparse_risk.tuning import (
    DELTAS,
    SCALES,
    gcv_select,
    lambda_grid,
)


def ar_design(n, k, rng, rho=0.5):
    chol = np.linalg.cholesky(ar1_covariance(k, rho))
    return rng.standard_normal((n, k)) @ chol.T


def gram_sigma(X, y):
    """The engine's error scale sigma_hat of one problem, from its Gram statistics."""
    G, b, yty = _checked_gram(X, y)
    return float(_gram_sigma(yty, b, solve_vec(G, b), X.shape[0])[0])


class TestLambdaRule:
    def test_default_multipliers(self):
        assert DELTAS == (0.9, 1.1, 1.3, 1.5, 1.7, 1.9, 2.0)
        assert set(SCALES) == {"log_ratio", "pow10", "pow4", "unit"}

    def test_scale_factors(self):
        # sqrt(n) * grid / DELTAS at sigma_hat = 1 is the scale factor
        def factor(scale, n):
            return np.sqrt(n) * lambda_grid(scale, n, 1.0) / np.array(DELTAS)

        np.testing.assert_allclose(factor("log_ratio", 60), 1.0, rtol=1e-12)
        np.testing.assert_allclose(factor("pow4", 960), 2.0, rtol=1e-12)
        np.testing.assert_allclose(factor("pow10", 60), 1.0, rtol=1e-12)
        np.testing.assert_allclose(factor("unit", 100_000), 1.0, rtol=1e-12)

    def test_validation(self):
        for scale in ("cube", "", "LOG_RATIO"):
            with pytest.raises(ValueError, match="scale"):
                lambda_grid(scale, 60, 1.0)
        with pytest.raises(ValueError):
            lambda_grid("log_ratio", 1, 1.0)

    @pytest.mark.parametrize("n", [np.nan, np.inf])
    def test_non_finite_n_rejected(self, n):
        # unchecked, NaN gave a grid of NaNs and inf a RuntimeWarning
        with pytest.raises(ValueError, match="finite"):
            lambda_grid("log_ratio", n, 1.0)
        with pytest.raises(ValueError):
            lambda_grid("log_ratio", 60, -0.5)

    @pytest.mark.parametrize("n", [60.5, 2.5])
    def test_non_integer_n_rejected(self, n):
        # unchecked, n = 60.5 gave a grid
        with pytest.raises(ValueError, match="integer"):
            lambda_grid("log_ratio", n, 1.0)
        assert lambda_grid("log_ratio", np.int64(60), 1.0).shape == (len(DELTAS),)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_inputs_rejected(self, bad):
        # NaN fails both `< 0` and `>= 0`, so a sign check alone lets it through
        with pytest.raises(ValueError):
            scad_derivative(1.0, bad)
        for sig in (bad, [bad], [1.0, bad], [[1.0, 2.0], [bad, 1.0]]):
            with pytest.raises(ValueError, match="sigma_hat"):
                lambda_grid("log_ratio", 60, sig)


class TestSigmaHat:
    def test_noiseless_fit_gives_zero(self):
        # exactly representable: y'y = 12 and b'theta_ls = 6 * 2 leave RSS = 0
        assert gram_sigma(np.ones((3, 1)), 2.0 * np.ones(3)) == 0.0

    def test_formula_at_minimal_dof(self):
        # one residual degree of freedom carrying all of the error
        X = np.array([[1.0], [1.0]])
        y = np.array([0.0, 2.0])  # residuals (-1, 1), rss = 2
        assert gram_sigma(X, y) == pytest.approx(np.sqrt(2.0))

    def test_consistency(self):
        rng = np.random.default_rng(1)
        X = ar_design(10_000, 8, rng)
        y = rng.standard_normal(10_000)
        assert gram_sigma(X, y) == pytest.approx(1.0, abs=0.05)

    def test_needs_residual_dof(self):
        # at n = k there is no residual degree of freedom to scale the grid by
        design = DesignSpec("gaussian_ar", n=8, k=8, rho=0.5)
        with pytest.raises(ValueError, match="n > k"):
            run_mc(design, np.zeros(8), 0.0, ["scad"], 5, 1)


class TestLambdaGrid:
    def test_base_scaling_at_n60(self):
        grid = lambda_grid("log_ratio", 60, 1.3)
        want = np.array(DELTAS) * 1.3 / np.sqrt(60)
        np.testing.assert_allclose(grid, want, rtol=1e-12)

    def test_pow4_doubles_at_960(self):
        grid = lambda_grid("pow4", 960, 1.0)
        base = lambda_grid("unit", 960, 1.0)
        np.testing.assert_allclose(grid, 2.0 * base, rtol=1e-12)

    def test_homogeneous_in_sigma(self):
        np.testing.assert_allclose(
            lambda_grid("log_ratio", 240, 3.0), 3.0 * lambda_grid("log_ratio", 240, 1.0),
            rtol=1e-12,
        )

    def test_log_ratio_keeps_root_n_lambda_logarithmic(self):
        ns = np.array([60, 120, 240, 480, 960])
        root_n_lam = np.array([np.sqrt(n) * lambda_grid("log_ratio", n, 1.0) for n in ns])
        ratios = root_n_lam / np.log(ns)[:, None]
        assert np.all(ratios.max(axis=0) / ratios.min(axis=0) < 1.01)

    def test_unit_scale_keeps_root_n_lambda_constant(self):
        sigma = 1.4
        for n in (60, 240, 960):
            grid = lambda_grid("unit", n, sigma)
            np.testing.assert_allclose(
                np.sqrt(n) * grid, np.array(DELTAS) * sigma, rtol=1e-12
            )

    def test_sorted_output(self):
        for scale in SCALES:
            grids = lambda_grid(scale, 240, np.array([0.5, 1.0, 2.0]))
            assert grids.shape == (3, len(DELTAS))
            assert np.all(np.diff(grids, axis=1) > 0)


class TestGcvSelect:
    def test_singleton_grid(self):
        rng = np.random.default_rng(2)
        X = ar_design(60, 8, rng)
        y = X @ np.array([3, 1.5, 0, 0, 2, 0, 0, 0.0]) + rng.standard_normal(60)
        lam, theta, sweeps, converged = gcv_select(X, y, [0.2])
        assert lam == 0.2
        # the plain coordinate-descent fit at the engine's settings
        G, b, _ = _checked_gram(X, y)
        want, want_sweeps, want_conv = _cd_batch(
            G, b, 60, np.array([0.2]), SOLVER_TOL, SOLVER_MAX_ITER
        )
        np.testing.assert_array_equal(theta, want[0])
        assert sweeps == want_sweeps[0] and converged == want_conv[0]

    def test_needs_more_observations_than_coefficients(self):
        # at n = k the least-squares fit has e = n, so GCV's 1 - e/n is 0;
        # unchecked, this lambda = 0 fit read GCV = -1.5e15 and was returned
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((8, 8)), rng.standard_normal(8)
        grid = [0.0, 0.05, 0.5, 5.0]
        with pytest.raises(ValueError, match="needs n > k"):
            gcv_select(X, y, grid)
        X, y = rng.standard_normal((9, 8)), rng.standard_normal(9)
        lam, theta, _, _ = gcv_select(X, y, grid)
        assert lam in grid and theta.shape == (8,) and np.isfinite(theta).all()

    def test_equal_values_tie_to_smallest(self):
        rng = np.random.default_rng(3)
        X = ar_design(60, 4, rng)
        y = X @ np.array([5.0, 4.0, 6.0, 5.0]) + rng.standard_normal(60)
        # all these lambdas leave the strong fit untouched, so GCV ties
        lam = gcv_select(X, y, [0.03, 0.01, 0.02])[0]
        assert lam == 0.01

    def test_rejects_catastrophic_lambda(self):
        rng = np.random.default_rng(4)
        X = np.sqrt(60) * np.linalg.qr(rng.standard_normal((60, 4)))[0]
        y = X @ np.array([5.0, -4.0, 6.0, 5.0]) + rng.standard_normal(60)
        shat = gram_sigma(X, y)
        lam, theta, _, _ = gcv_select(X, y, [0.01, 100.0 * shat])
        assert lam == 0.01
        assert np.count_nonzero(theta) == 4

    def test_grid_order_invariance(self):
        rng = np.random.default_rng(5)
        X = ar_design(60, 8, rng)
        y = X @ np.array([3, 1.5, 0, 0, 2, 0, 0, 0.0]) + rng.standard_normal(60)
        grid = [0.25, 0.05, 0.15,  0.1]
        lam1, theta1, _, _ = gcv_select(X, y, grid)
        lam2, theta2, _, _ = gcv_select(X, y, sorted(grid))
        lam3, theta3, _, _ = gcv_select(X, y, grid[::-1])
        assert lam1 == lam2 == lam3
        np.testing.assert_array_equal(theta1, theta2)
        np.testing.assert_array_equal(theta1, theta3)

    def test_matches_manual_computation(self):
        rng = np.random.default_rng(6)
        X = ar_design(60, 8, rng)
        y = X @ np.array([3, 1.5, 0, 0, 2, 0, 0, 0.0]) + rng.standard_normal(60)
        grid = np.array([0.05, 0.12, 0.2, 0.3])
        gcvs = []
        for lam in grid:
            theta = gcv_select(X, y, [lam])[1]
            rss = float(np.sum((y - X @ theta) ** 2))
            active = theta != 0
            Xa = X[:, active]
            absth = np.abs(theta[active])
            D = np.diag(
                np.array([scad_derivative(t, lam) for t in absth])
                / absth
            )
            hat = Xa @ np.linalg.solve(Xa.T @ Xa + 60 * D, Xa.T)
            e = float(np.trace(hat))
            gcvs.append((rss / 60) / (1 - e / 60) ** 2)
        lam_star = gcv_select(X, y, grid)[0]
        assert lam_star == grid[int(np.argmin(gcvs))]

    def test_empty_grid_rejected(self):
        X = np.ones((10, 1))
        with pytest.raises(ValueError):
            gcv_select(X, np.ones(10), [])

    @pytest.mark.parametrize("grid", [[-0.1, 0.2], [np.nan, 0.2], [np.inf], [0.2, -np.inf]])
    def test_negative_or_non_finite_grid_rejected(self, grid):
        rng = np.random.default_rng(7)
        X = ar_design(60, 4, rng)
        y = X @ np.array([1.0, 0.0, 2.0, 0.0]) + rng.standard_normal(60)
        with pytest.raises(ValueError):
            gcv_select(X, y, grid)
