import inspect

import numpy as np
import pytest

import sparse_risk
import sparse_risk.estimators as estimators_mod
import sparse_risk.risk as risk_mod
from sparse_risk.cli import parse_config
from sparse_risk.datagen import (
    FIXED_MATRIX,
    GAUSSIAN_AR,
    DesignSpec,
    ar1_covariance,
    fixed_design_with_gram,
    make_theta,
)
from sparse_risk.estimators import (
    SOLVER_MAX_ITER,
    SOLVER_TOL,
    ZERO_TOL,
    SingularDesignError,
    _BIC_MIN_PIVOT,
    _bic_batch,
    _cd_batch,
    _gram_sigma,
    _masked_ridge_matrix,
    _piece_step,
    _scad_piece,
    _subset_rss_screen,
    fit_bic_select,
    fit_hard_threshold,
    fit_least_squares,
    fit_scad_cd,
    gram_bundle,
    hodges_scalar,
    solve_vec,
)
from sparse_risk.experiments import (
    K, RHO, SETUPS, lower_bound_diagnostic, oracle_check, run_setup,
)
from sparse_risk.penalties import (
    SCAD_A,
    ScadParams,
    _scad_min_enumerated,
    scad_derivative,
    scad_penalty,
    scad_univariate_min,
    scad_univariate_min_weighted,
)
from sparse_risk.tuning import (
    _GCV_DF_BLOCK, _gcv_df_batch, _scad_gcv_batch, gcv_select, lambda_grid,
)

THETA0 = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])


def orthonormal_design(n, k, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return np.sqrt(n) * q


def ar_design(n, k, rng, rho=0.5):
    chol = np.linalg.cholesky(ar1_covariance(k, rho))
    return rng.standard_normal((n, k)) @ chol.T


def scad_objective(X, y, theta, p):
    resid = y - X @ theta
    return 0.5 * resid @ resid + X.shape[0] * np.sum(
        scad_penalty(np.abs(theta), p)
    )


class TestLeastSquares:
    def test_interpolates_noiseless(self):
        rng = np.random.default_rng(0)
        X = ar_design(40, 8, rng)
        y = X @ THETA0
        np.testing.assert_allclose(fit_least_squares(X, y), THETA0, atol=1e-9)

    def test_scaled_orthonormal_identity(self):
        rng = np.random.default_rng(1)
        X = orthonormal_design(64, 8, rng)
        y = rng.standard_normal(64)
        np.testing.assert_allclose(fit_least_squares(X, y), X.T @ y / 64, atol=1e-12)

    def test_square_system_zero_residual(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 5))
        y = rng.standard_normal(5)
        np.testing.assert_allclose(X @ fit_least_squares(X, y), y, atol=1e-8)

    def test_singular_design_raises(self):
        X = np.ones((10, 2))
        with pytest.raises(SingularDesignError):
            fit_least_squares(X, np.ones(10))


class TestScadSolvers:
    def test_lambda_zero_returns_least_squares(self):
        rng = np.random.default_rng(3)
        X = ar_design(60, 8, rng)
        y = X @ THETA0 + rng.standard_normal(60)
        theta, sweeps, converged = fit_scad_cd(X, y, ScadParams(0.0, 3.7))
        np.testing.assert_allclose(theta, fit_least_squares(X, y), atol=1e-8)
        assert converged and sweeps == 1

    def test_orthonormal_matches_univariate_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            X = orthonormal_design(64, 8, rng)
            y = X @ rng.uniform(-3, 3, 8) + rng.standard_normal(64)
            lam = float(rng.uniform(0.1, 2.0))
            p = ScadParams(lam, 3.7)
            z = X.T @ y / 64
            want = np.array([scad_univariate_min(zi, p) for zi in z])
            theta, _, converged = fit_scad_cd(X, y, p, tol=1e-12, max_iter=100_000)
            np.testing.assert_allclose(theta, want, atol=1e-6)
            assert converged

    def test_objective_not_above_least_squares(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            X = ar_design(60, 8, rng)
            y = X @ THETA0 + rng.standard_normal(60)
            p = ScadParams(float(rng.uniform(0.05, 0.5)), 3.7)
            ls = fit_least_squares(X, y)
            theta = fit_scad_cd(X, y, p)[0]
            assert scad_objective(X, y, theta, p) <= scad_objective(
                X, y, ls, p
            ) + 1e-9

    def test_produces_exact_zeros(self):
        rng = np.random.default_rng(6)
        X = ar_design(60, 8, rng)
        y = X @ THETA0 + rng.standard_normal(60)
        assert np.any(fit_scad_cd(X, y, ScadParams(0.4, 3.7))[0] == 0.0)

    def test_sweep_cap_is_reported_not_raised(self):
        rng = np.random.default_rng(6)
        X = ar_design(60, 8, rng)
        y = X @ THETA0 + rng.standard_normal(60)
        theta, sweeps, converged = fit_scad_cd(X, y, ScadParams(0.4, 3.7), max_iter=1)
        assert sweeps == 1 and not converged and theta.shape == (8,)

    # A fit's row of the result is written only when it converges or its
    # sweeps run out, so the smallest caps pin both ways of getting there.
    def test_zero_sweeps_return_the_start(self):
        rng = np.random.default_rng(6)
        X = ar_design(60, 8, rng)
        # a coefficient of 1e-10 fits to about 1e-10, below ZERO_TOL
        y = X @ np.array([3.0, 1e-10, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
        ls = fit_least_squares(X, y)
        assert 0.0 < np.abs(ls[1]) < ZERO_TOL
        want = np.where(np.abs(ls) < ZERO_TOL, 0.0, ls)
        theta, sweeps, converged = fit_scad_cd(X, y, ScadParams(0.4, 3.7), max_iter=0)
        assert theta.tobytes() == want.tobytes()
        assert sweeps == 0 and not converged

        G, b, n, lam, a, tol, _ = _gcv_batch_args(5, 0)
        start = rng.standard_normal(b.shape)
        start[::3, 2] = 1e-9
        theta, iters, conv = _cd_batch(G, b, n, lam, a, tol, 0, start)
        want = np.where(np.abs(start) < ZERO_TOL, 0.0, start)
        assert theta.tobytes() == want.tobytes()
        assert not iters.any() and not conv.any()

    def test_one_sweep_matches_the_reference(self):
        # lambda = 0 fits converge on the one sweep and leave the working
        # set; the others stop at the cap
        rng = np.random.default_rng(6)
        X = ar_design(60, 8, rng)
        y = X @ THETA0 + rng.standard_normal(60)
        G, b, _ = gram_bundle(X, y)
        for lam in (0.0, 0.4):
            theta, sweeps, converged = fit_scad_cd(X, y, ScadParams(lam, 3.7), max_iter=1)
            want, iters, conv = _cd_batch_reference(
                G[None], b[None], 60, np.array([lam]), 3.7, SOLVER_TOL, 1
            )
            assert theta.tobytes() == want[0].tobytes()
            assert (sweeps, converged) == (1, lam == 0.0) == (iters[0], conv[0])

    def test_zeroes_most_null_coordinates_at_noise_scale(self):
        # lambda at the noise scale sigma_hat / sqrt(n) kills well over half
        # of the truly-zero coordinates, exactly
        rng = np.random.default_rng(16)
        zero_mask = THETA0 == 0.0
        hits = total = 0
        for _ in range(200):
            X = ar_design(60, 8, rng)
            y = X @ THETA0 + rng.standard_normal(60)
            resid = y - X @ fit_least_squares(X, y)
            lam = float(np.sqrt(resid @ resid / 52) / np.sqrt(60))
            theta = fit_scad_cd(X, y, ScadParams(lam, 3.7))[0]
            hits += int(np.sum(theta[zero_mask] == 0.0))
            total += int(zero_mask.sum())
        assert hits / total > 0.5

    def test_rank_deficient_raises(self):
        X = np.ones((10, 2))
        with pytest.raises(SingularDesignError):
            fit_scad_cd(X, np.ones(10), ScadParams(0.1))


class TestSolverAgreement:
    def test_batch_matches_single_problem_runs(self):
        rng = np.random.default_rng(8)
        G = np.empty((20, 8, 8))
        b = np.empty((20, 8))
        lam = rng.uniform(0.05, 0.6, 20)
        for i in range(20):
            X = ar_design(60, 8, rng)
            y = X @ THETA0 + rng.standard_normal(60)
            G[i], b[i], _ = gram_bundle(X, y)
        whole, iters_w, conv_w = _cd_batch(G, b, 60, lam, 3.7, 1e-8, 100)
        for i in range(20):
            single, iters_s, conv_s = _cd_batch(
                G[i : i + 1], b[i : i + 1], 60, lam[i : i + 1], 3.7, 1e-8, 100
            )
            np.testing.assert_array_equal(whole[i], single[0])
            assert iters_w[i] == iters_s[0]
            assert conv_w[i] == conv_s[0]

    def test_cd_matches_full_width_reference_on_gcv_batch(self):
        # lambda = 0 converges in sweep 1 from the least-squares start, and
        # the sweep cap stops some problems before they converge.
        reps, max_iter = 12, 6
        args = _gcv_batch_args(reps, max_iter)
        theta, iters, conv = _cd_batch(*args)
        theta_ref, iters_ref, conv_ref = _cd_batch_reference(*args)
        assert theta.tobytes() == theta_ref.tobytes()
        np.testing.assert_array_equal(iters, iters_ref)
        np.testing.assert_array_equal(conv, conv_ref)
        assert np.all(conv[iters == 1]) and np.sum(iters == 1) == reps
        assert np.any(conv & (iters > 1))
        assert np.any(~conv & (iters == max_iter))

    def test_cd_matches_full_width_reference_in_one_sweep(self):
        # One sweep: only the lambda = 0 problems converge, and nothing is
        # dropped from the working set before the loop ends.
        reps = 12
        args = _gcv_batch_args(reps, 1)
        theta, iters, conv = _cd_batch(*args)
        theta_ref, iters_ref, conv_ref = _cd_batch_reference(*args)
        assert theta.tobytes() == theta_ref.tobytes()
        np.testing.assert_array_equal(iters, iters_ref)
        np.testing.assert_array_equal(conv, conv_ref)
        assert np.all(iters == 1) and np.sum(conv) == reps

    def test_piece_step_blocks_do_not_change_bits(self, monkeypatch):
        # blocks of 3 split every sweep's piece steps over several calls
        args = _gcv_batch_args(12, 100)
        whole = _cd_batch(*args)
        monkeypatch.setattr(estimators_mod, "_PIECE_BLOCK", 3)
        for x, x_blocked in zip(whole, _cd_batch(*args)):
            assert x.tobytes() == x_blocked.tobytes()

    def test_cd_leaves_inputs_unmodified(self):
        # The engine's layout: one Gram matrix per replication, a (B, L)
        # grid and a start theta, read-only as risk._shared_draws hands G
        # over, so a write into any of them raises. _scad_gcv_batch reuses
        # G and b after the fit for df and RSS.
        G, b, n, lam, a, tol, _ = _gcv_batch_args(6, 100)
        G, b, grids = G[::7].copy(), b[::7].copy(), lam.reshape(6, 7).copy()
        theta = solve_vec(G, b)
        inputs = (G, b, grids, theta)
        before = [x.copy() for x in inputs]
        for x in inputs:
            x.flags.writeable = False
        _, iters, _ = _cd_batch(G, b, n, grids, a, tol, 100, theta)
        assert iters.max() > 2  # some problems took piece steps
        for x, x0 in zip(inputs, before):
            assert x.tobytes() == x0.tobytes()


def _setup_one_cells(n):
    """(G, b, y'y, theta_ls, sigma_hat) of Setup I's gamma = 0, 4, 8 cells at
    seed 271828 with R = 500, as the engine forms them."""
    setup = SETUPS["I"]
    design = DesignSpec(kind=GAUSSIAN_AR, n=n, k=K, rho=RHO)
    G, Xe, ee = risk_mod._draw_grams(design, 271828, f"I/n={n}", 500)
    for gamma in setup.gamma_grid(3):
        theta_true = make_theta(THETA0, setup.eta, n, gamma)
        b = G @ theta_true + Xe
        yty = b @ theta_true + Xe @ theta_true + ee
        theta_ls = solve_vec(G, b)
        yield G, b, yty, theta_ls, _gram_sigma(yty, b, theta_ls, n)


def _assert_coordinatewise_minima(G, b, n, lam, theta, iters, conv):
    """No fit at the sweep cap, one more plain sweep within SOLVER_TOL, and
    every exact zero within the SCAD derivative at 0+. Returns the number of
    exact zeros, so a caller can see that the last check tested some."""
    assert conv.all() and iters.max() < SOLVER_MAX_ITER

    swept = theta.copy()
    gth = np.einsum("pij,pj->pi", G, swept)
    for j in range(K):
        gjj = G[:, j, j]
        u = (b[:, j] - gth[:, j]) / gjj + swept[:, j]
        delta = scad_univariate_min_weighted(u, lam, SCAD_A, n / gjj) - swept[:, j]
        assert np.abs(delta).max() <= SOLVER_TOL
        gth += G[:, :, j] * delta[:, None]
        swept[:, j] += delta

    # the SCAD derivative at 0+ is lambda: zeros need a small partial
    # correlation |b_j - sum_{i != j} G_ji theta_i| <= n lambda
    partial = b - np.einsum("pij,pj->pi", G, theta)
    partial += np.diagonal(G, axis1=1, axis2=2) * theta
    zero = theta == 0.0
    bound = np.broadcast_to((n * lam)[:, None], theta.shape)
    assert np.all(np.abs(partial[zero]) <= bound[zero] * (1 + 1e-9))
    return int(zero.sum())


class TestCoordinatewiseMinimum:
    """Every CD fit on Setup I draws is a coordinate-wise minimum."""

    @pytest.mark.parametrize("n", [60, 960])
    def test_setup_one_fits_are_coordinatewise_minima(self, n):
        for G, b, yty, theta_ls, sig in _setup_one_cells(n):
            grids = lambda_grid(SETUPS["I"].scale, n, sig)
            L = grids.shape[1]
            Gf, bf, lam = np.repeat(G, L, axis=0), np.repeat(b, L, axis=0), grids.ravel()
            theta, iters, conv = _cd_batch(Gf, bf, n, lam, SCAD_A, SOLVER_TOL, SOLVER_MAX_ITER)
            assert _assert_coordinatewise_minima(Gf, bf, n, lam, theta, iters, conv) > 0

    @pytest.mark.parametrize("n", [60, 960])
    def test_engine_fits_are_coordinatewise_minima(self, n):
        # the engine's own path, at each fit's GCV-picked lambda; at n = 960,
        # gamma = 8 no picked fit has a zero, so zeros are counted over cells
        zeros = 0
        for G, b, yty, theta_ls, sig in _setup_one_cells(n):
            theta, lam, iters, conv = risk_mod._fit_block(
                "scad", G, b, yty, theta_ls, sig, n, K, "log_ratio"
            )
            zeros += _assert_coordinatewise_minima(G, b, n, lam, theta, iters, conv)
        assert zeros > 0


class TestLambdaPath:
    """The GCV-tuned lambda path on Setup I draws, one Gram matrix per
    replication, against the same fits on a stack of one Gram matrix per fit."""

    # R = 1, R = 500, and an R that ends inside a df block
    @pytest.mark.parametrize("reps", [1, 2 * _GCV_DF_BLOCK + 5, 500])
    @pytest.mark.parametrize("n", [60, 960])
    def test_matches_stacked_reference_bit_for_bit(self, n, reps):
        for G, b, yty, theta_ls, sig in _setup_one_cells(n):
            grids = lambda_grid(SETUPS["I"].scale, n, sig)
            args = (G[:reps], b[:reps], yty[:reps], n, grids[:reps], theta_ls[:reps])
            got = _scad_gcv_batch(*args)
            want = _scad_gcv_batch_reference(*args)
            for x, x_ref in zip(got, want):
                assert x.shape == x_ref.shape and x.dtype == x_ref.dtype
                assert x.tobytes() == x_ref.tobytes()

    def test_df_matches_fit_by_fit_reference_bit_for_bit(self):
        # B = 45 replications end inside a df block; each replication's first
        # and last CD fits are replaced by an all-zero and an all-active one
        n, B = 960, 45
        G, b, yty, theta_ls, sig = next(_setup_one_cells(n))
        G, theta_ls, grids = G[:B], theta_ls[:B], lambda_grid("log_ratio", n, sig[:B])
        L = grids.shape[1]
        theta = _cd_batch(G, b[:B], n, grids, SCAD_A, SOLVER_TOL, SOLVER_MAX_ITER,
                          theta_ls)[0].reshape(B, L, K)
        theta[:, 0] = 0.0
        theta[:, -1] = theta_ls
        theta = theta.reshape(B * L, K)
        want = np.empty(B * L)
        for f, (th, lam) in enumerate(zip(theta, grids.ravel())):
            # identity rows off the active set A, G_AA + n diag(p'(|theta|) / |theta|) on it
            A = np.ix_(th != 0.0, th != 0.0)
            absth = np.abs(th[th != 0.0])
            M, target = np.eye(K), np.zeros((K, K))
            target[A] = G[f // L][A]
            M[A] = target[A] + n * np.diag(scad_derivative(absth, ScadParams(lam, SCAD_A)) / absth)
            # the trace, summed in coordinate order as the batch's row sums are
            want[f] = np.cumsum(np.diagonal(np.linalg.solve(M, target)))[-1]
        assert ((theta == 0.0).any(axis=1) & (theta != 0.0).any(axis=1)).any()
        assert _gcv_df_batch(G, theta, grids, n).tobytes() == want.tobytes()

    # Traced peaks at R = 500 were 9.4 / 12.5 MB with a (7 R, k, k) stack of
    # the Gram matrices, 6.5 / 7.4 MB with a per-fit copy of them in the CD
    # working set, 4.1 / 5.9 MB with no copy but unblocked piece steps,
    # 3.5 / 3.5 MB with b, diag G and n / diag G carried per fit, and
    # 1.9 / 1.9 MB with only per-fit state.
    @pytest.mark.parametrize("n, ceiling_mb", [(60, 2.2), (960, 2.2)])
    def test_allocation_ceiling(self, traced_peak, n, ceiling_mb):
        peaks = []
        for G, b, yty, theta_ls, sig in _setup_one_cells(n):
            grids = lambda_grid(SETUPS["I"].scale, n, sig)
            peaks.append(traced_peak(_scad_gcv_batch, G, b, yty, n, grids, theta_ls))
        assert max(peaks) < ceiling_mb * 1e6

    def test_cd_working_set_grows_as_problems_times_k(self, traced_peak):
        # k = 20, 500 replications x 7 lambda: the 3,500 problems' working
        # set is about 0.6 MB per (k, P) array. A per-fit copy of the Gram
        # matrices alone is 11.2 MB; the traced peak was 25 MB with one,
        # 8.4 MB with b, diag G and n / diag G carried per fit and 5.7 MB
        # with only per-fit state.
        k, n = 20, 200
        design = DesignSpec(kind=GAUSSIAN_AR, n=n, k=k, rho=0.5)
        G, Xe, ee = risk_mod._draw_grams(design, 271828, "cd-k20", 500)
        theta_true = np.zeros(k)
        theta_true[:4] = [3.0, 1.5, 2.0, 1.0]
        b = G @ theta_true + Xe
        yty = b @ theta_true + Xe @ theta_true + ee
        theta_ls = solve_vec(G, b)
        grids = lambda_grid("log_ratio", n, _gram_sigma(yty, b, theta_ls, n))
        assert grids.shape == (500, 7)
        args = (G, b, n, grids, SCAD_A, SOLVER_TOL, SOLVER_MAX_ITER, theta_ls)
        assert _cd_batch(*args)[2].all()
        assert traced_peak(_cd_batch, *args) < 7e6


def _scad_gcv_batch_reference(G, b, yty, n, grids, th_ls):
    """_scad_gcv_batch on a stack that repeats each Gram matrix once per
    lambda, so every fit is a problem of its own (L = 1)."""
    B, L = grids.shape
    k = b.shape[1]
    Gf = np.repeat(G, L, axis=0)
    bf = np.repeat(b, L, axis=0)
    lamf = grids.reshape(-1)
    start = np.repeat(th_ls, L, axis=0)
    thetaf, itersf, convf = _cd_batch(Gf, bf, n, lamf, SCAD_A, SOLVER_TOL, SOLVER_MAX_ITER, start)

    df = _gcv_df_batch(Gf, thetaf, lamf, n)
    rssf = (
        np.repeat(yty, L)
        - 2.0 * np.einsum("pi,pi->p", thetaf, bf)
        + np.einsum("pi,pij,pj->p", thetaf, Gf, thetaf)
    )
    gcv = (rssf / n) / (1.0 - df / n) ** 2
    gcv = gcv.reshape(B, L)

    pick = np.argmin(gcv, axis=1)
    rows = np.arange(B)
    theta = thetaf.reshape(B, L, k)[rows, pick]
    lam = grids[rows, pick]
    iters = itersf.reshape(B, L)[rows, pick]
    conv = convf.reshape(B, L)[rows, pick]
    return theta, lam, iters, conv, gcv


def _gcv_batch_args(reps, max_iter, n=60):
    """Replications x a 7-point grid with lambda = 0 first, as _scad_gcv_batch lays them out."""
    rng = np.random.default_rng(9)
    grid = np.array([0.0, 0.9, 1.1, 1.3, 1.5, 1.7, 2.0]) / np.sqrt(n)
    G = np.empty((reps, 8, 8))
    b = np.empty((reps, 8))
    for r in range(reps):
        X = ar_design(n, 8, rng)
        y = X @ THETA0 + rng.standard_normal(n)
        G[r], b[r], _ = gram_bundle(X, y)
    return (np.repeat(G, 7, axis=0), np.repeat(b, 7, axis=0), n,
            np.tile(grid, reps), 3.7, 1e-8, max_iter)


def _cd_batch_reference(G, b, n, lam, a, tol, max_iter):
    """Coordinate descent that sweeps every problem until all have converged,
    computing _cd_batch's piece step for every problem and keeping it where
    _cd_batch takes it, with the candidate-enumerating scalar minimizer."""
    P, k = b.shape
    theta = solve_vec(G, b)
    gth = np.einsum("pij,pj->pi", G, theta)
    done = np.zeros(P, dtype=bool)
    held = np.zeros(P, dtype=bool)
    converged = np.zeros(P, dtype=bool)
    iterations = np.zeros(P, dtype=np.int64)
    G_cm = G.transpose(2, 1, 0)
    gjj_cm = np.diagonal(G, axis1=1, axis2=2).T

    for sweep in range(1, max_iter + 1):
        if done.all():
            break
        start = theta.copy()
        sweep_step = np.zeros(P)
        for j in range(k):
            gjj = G[:, j, j]
            u = (b[:, j] - gth[:, j]) / gjj + theta[:, j]
            t = _scad_min_enumerated(u, lam, a, n / gjj)
            delta = np.where(done, 0.0, t - theta[:, j])
            changed = delta != 0.0
            if changed.any():
                gth[changed] += G[changed, :, j] * delta[changed, None]
                theta[:, j] += delta
            sweep_step = np.maximum(sweep_step, np.abs(delta))
        iterations[~done] = sweep
        hit = ~done & (sweep_step < tol)
        kept = np.all(
            _scad_piece(theta, lam[:, None], a) == _scad_piece(start, lam[:, None], a),
            axis=1,
        )
        trial = kept & held & ~done & ~hit
        held = kept
        th_new, gth_new = _piece_step(
            np.arange(P), theta.T, start.T, gth.T, G_cm, np.arange(P), b.T, gjj_cm, lam, a, n
        )
        theta = np.where(trial[:, None], th_new.T, theta)
        gth = np.where(trial[:, None], gth_new.T, gth)
        converged[hit] = True
        done |= hit

    small = np.abs(theta) < ZERO_TOL
    theta[small] = 0.0
    return theta, iterations, converged


class TestHardThreshold:
    def test_huge_coefficients_survive(self):
        rng = np.random.default_rng(9)
        X = ar_design(100, 4, rng)
        y = X @ np.array([20.0, -15.0, 30.0, 12.0]) + rng.standard_normal(100)
        assert np.count_nonzero(fit_hard_threshold(X, y)) == 4

    def test_zero_response_gives_zero_fit(self):
        rng = np.random.default_rng(10)
        X = ar_design(50, 4, rng)
        np.testing.assert_array_equal(fit_hard_threshold(X, np.zeros(50)), np.zeros(4))

    def test_scalar_mean_threshold(self):
        # intercept design, ybar = 0.3, sigma_hat = 1: cutoff 16**-0.25 = 0.5
        n = 16
        X = np.ones((n, 1))
        spread = np.tile([1.0, -1.0], n // 2) * np.sqrt(15 / 16)
        y = 0.3 + spread
        assert np.mean(y) == pytest.approx(0.3)
        assert fit_hard_threshold(X, y, exponent=0.25)[0] == 0.0
        # well above the cutoff the mean is kept
        y2 = 0.9 + spread
        assert fit_hard_threshold(X, y2, exponent=0.25)[0] == pytest.approx(0.9)

    def test_exponent_validation(self):
        X = np.ones((10, 1))
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                fit_hard_threshold(X, np.ones(10), exponent=bad)


class TestHodgesScalar:
    def test_above_threshold(self):
        assert hodges_scalar(2.0, 16) == 2.0

    def test_below_threshold(self):
        assert hodges_scalar(0.3, 16) == 0.0

    def test_boundary_goes_to_zero(self):
        assert hodges_scalar(0.5, 16) == 0.0

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            hodges_scalar(1.0, 0)

    @pytest.mark.parametrize("ybar", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_is_rejected(self, ybar):
        # NaN compares below the cut, so unchecked it would read as a true zero
        with pytest.raises(ValueError, match="finite"):
            hodges_scalar(ybar, 100)


@pytest.mark.parametrize("fit", [
    fit_least_squares, fit_hard_threshold, fit_bic_select,
    lambda X, y: fit_scad_cd(X, y, ScadParams(0.1)),
    lambda X, y: gcv_select(X, y, [0.05, 0.1]),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["X", "y"])
def test_single_fits_reject_non_finite_input(fit, value, where):
    # unchecked, hard thresholding and BIC turn a NaN into an all-zero fit
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 4))
    y = X @ np.array([1.0, 0.0, 2.0, 0.0]) + rng.standard_normal(30)
    (X if where == "X" else y)[3] = value
    with pytest.raises(ValueError, match="finite"):
        fit(X, y)


def _bic_reference(G, b, yty, n):
    """All-subsets BIC with one masked solve per subset, visited in the tie
    order (by size, then lexicographically by bits); the first strict
    minimum wins. Test-only reference for the tree-walk screen and its
    exact refit."""
    P, k = b.shape
    order = sorted(
        (sum(bits), bits)
        for bits in (tuple((m >> i) & 1 for i in range(k)) for m in range(2**k))
    )
    logn = np.log(n)
    best_bic = np.full(P, np.inf)
    best_theta = np.zeros((P, k))
    floor = np.maximum(yty * 1e-12, 1e-300)
    for size, bits in order:
        act = np.broadcast_to(np.array(bits, dtype=bool), (P, k))
        if size == 0:
            theta = np.zeros((P, k))
            rss = yty.copy()
        else:
            M = _masked_ridge_matrix(G, act.copy(), np.zeros((P, k)))
            theta = solve_vec(M, b * act) * act
            rss = yty - np.einsum("pi,pi->p", b, theta)
        rss = np.maximum(rss, floor)
        bic = n * np.log(rss / n) + logn * np.int64(size)
        better = bic < best_bic
        best_bic = np.where(better, bic, best_bic)
        best_theta[better] = theta[better]
    return best_theta


def _assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def _statistics(X, Y):
    """G, b and y'y of one design with each row of ``Y`` as a response."""
    G = np.broadcast_to(X.T @ X, (len(Y), X.shape[1], X.shape[1])).copy()
    return G, Y @ X, np.einsum("pt,pt->p", Y, Y)


def _screen_table(G, b, yty):
    """The screen's (2**k, P) RSS by bitmask, built from what it visits,
    and its smallest pivot ratio; every subset must be visited once."""
    P, k = b.shape
    table = np.full((2**k, P), np.nan)
    seen = np.zeros(2**k, dtype=np.int64)

    def visit(masks, rss):
        table[masks] = rss
        np.add.at(seen, masks, 1)

    worst = _subset_rss_screen(G, b, yty, visit)
    np.testing.assert_array_equal(seen, 1)
    return table, worst


def _masked_rss(G, b, yty, k):
    """(2**k, P) RSS of every subset, by bitmask, from one masked solve each."""
    P = b.shape[0]
    rss = np.empty((2**k, P))
    for mask in range(2**k):
        act = np.broadcast_to((mask >> np.arange(k)) & 1 == 1, (P, k)).copy()
        theta = solve_vec(_masked_ridge_matrix(G, act, np.zeros((P, k))), b * act) * act
        rss[mask] = yty - np.einsum("pi,pi->p", b, theta)
    return rss


class TestBicSweep:
    """The depth-first screen plus exact refit returns, bit for bit, the
    theta of solving every subset separately."""

    @pytest.mark.parametrize("n", [60, 15360])
    def test_screen_reads_every_subset_without_refit(self, n):
        # a screen whose guard always fired would still select right, by
        # refitting all 2**k subsets of every problem; this pins the screen
        eta = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        design = DesignSpec(kind=GAUSSIAN_AR, n=n, k=8, rho=0.5)
        G, Xe, ee = risk_mod._draw_grams(design, 405, "bic-screen", 100)
        for gamma in (0.0, 4.0, 8.0):
            theta = THETA0 + gamma * eta / np.sqrt(n)
            b = G @ theta + Xe
            yty = b @ theta + Xe @ theta + ee
            table, worst = _screen_table(G, b, yty)
            np.testing.assert_allclose(table, _masked_rss(G, b, yty, 8), rtol=1e-9, atol=0)
            assert np.all(worst >= _BIC_MIN_PIVOT)

    # One call at R = 500, gamma = 4: traced 2.42 MB with the (2**k, P)
    # table and every pending child swept, 1.08 MB without the table and
    # with each child swept when the walk pops it.
    @pytest.mark.parametrize("n", [960, 15360])
    def test_allocation_ceiling(self, traced_peak, n):
        G, b, yty, _, _ = list(_setup_one_cells(n))[1]
        assert traced_peak(_bic_batch, G, b, yty, n) < 1.2e6

    def test_screen_of_one_coordinate(self):
        # the root's one child has no children of its own
        G = np.array([[[4.0]], [[2.0]]])
        b = np.array([[2.0], [-1.0]])
        yty = np.array([3.0, 1.0])
        table, worst = _screen_table(G, b, yty)
        np.testing.assert_array_equal(table, [[3.0, 1.0], [2.0, 0.5]])
        np.testing.assert_array_equal(worst, [1.0, 1.0])

    @pytest.mark.parametrize("rho", [0.5, 0.99])
    @pytest.mark.parametrize("n", [9, 60, 960, 15360])
    def test_engine_draws_match_reference(self, n, rho):
        eta = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        design = DesignSpec(kind=GAUSSIAN_AR, n=n, k=8, rho=rho)
        G, Xe, ee = risk_mod._draw_grams(design, 401, "bic-sweep", 200)
        for gamma in (0.0, 4.0, 8.0):
            theta = THETA0 + gamma * eta / np.sqrt(n)
            b = G @ theta + Xe
            yty = b @ theta + Xe @ theta + ee
            _assert_bits_equal(_bic_batch(G, b, yty, n), _bic_reference(G, b, yty, n))

    def test_fixed_design_matches_reference(self):
        X = fixed_design_with_gram(40, ar1_covariance(8, 0.7))
        design = DesignSpec(kind=FIXED_MATRIX, n=40, k=8, fixed_matrix=X)
        G, Xe, ee = risk_mod._draw_grams(design, 402, "bic-fixed", 100)
        b = G @ THETA0 + Xe
        yty = b @ THETA0 + Xe @ THETA0 + ee
        _assert_bits_equal(_bic_batch(G, b, yty, 40), _bic_reference(G, b, yty, 40))

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_noiseless_response_hits_the_floor(self, rho):
        rng = np.random.default_rng(21)
        X = ar_design(50, 8, rng, rho)
        thetas = rng.standard_normal((30, 8)) * (rng.random((30, 8)) < 0.5)
        G, b, yty = _statistics(X, thetas @ X.T)
        theta = _bic_batch(G, b, yty, 50)
        _assert_bits_equal(theta, _bic_reference(G, b, yty, 50))
        np.testing.assert_array_equal(theta != 0, thetas != 0)

    def test_zero_response_picks_empty_model(self):
        X = ar_design(30, 5, np.random.default_rng(22))
        G, b, yty = _statistics(X, np.zeros((4, 30)))
        theta = _bic_batch(G, b, yty, 30)
        _assert_bits_equal(theta, np.zeros((4, 5)))
        _assert_bits_equal(theta, _bic_reference(G, b, yty, 30))

    @pytest.mark.parametrize("k", [1, 2, 8, 10])
    def test_dimensions_match_reference(self, k):
        rng = np.random.default_rng(23 + k)
        X = ar_design(60, k, rng)
        signal = rng.uniform(-0.6, 0.6, (40, k)) * (rng.random((40, k)) < 0.5)
        G, b, yty = _statistics(X, signal @ X.T + rng.standard_normal((40, 60)))
        _assert_bits_equal(_bic_batch(G, b, yty, 60), _bic_reference(G, b, yty, 60))

    @pytest.mark.parametrize("floats", [2**20, 1])
    @pytest.mark.parametrize("lead", [1.0, 1.0 + 1e-13])
    def test_tie_at_the_floor_goes_to_first_pattern(self, monkeypatch, lead, floats):
        # G = n I and b = (lead * c, c) with b_j^2 / n within 3e-13 of y'y:
        # both one-coefficient fits fall below the RSS floor and tie on BIC
        # (exactly when lead = 1), and (0, 1) precedes (1, 0) in the tie
        # order, also when the two are refit in separate chunks of one.
        monkeypatch.setattr(estimators_mod, "_BIC_BLOCK_FLOATS", floats)
        n, c = 4, 2.0
        G = np.array([n * np.eye(2)])
        b = np.array([[lead * c, c]])
        yty = np.array([c * c / n * (1.0 + 3e-13)])
        theta = _bic_batch(G, b, yty, n)
        _assert_bits_equal(theta, np.array([[0.0, c / n]]))
        _assert_bits_equal(theta, _bic_reference(G, b, yty, n))

    def test_batch_rows_equal_single_problem_fits(self, monkeypatch):
        design = DesignSpec(kind=GAUSSIAN_AR, n=60, k=8, rho=0.5)
        G, Xe, ee = risk_mod._draw_grams(design, 403, "bic-batch", 30)
        b = G @ THETA0 + Xe
        yty = b @ THETA0 + Xe @ THETA0 + ee
        whole = _bic_batch(G, b, yty, 60)
        for i in range(30):
            _assert_bits_equal(
                whole[i], _bic_batch(G[i : i + 1], b[i : i + 1], yty[i : i + 1], 60)[0]
            )
        # screening in blocks of 4 problems (a (9, 9) root each) and
        # refitting in chunks of 5 candidates changes nothing
        monkeypatch.setattr(estimators_mod, "_BIC_BLOCK_FLOATS", 4 * 9**2)
        _assert_bits_equal(_bic_batch(G, b, yty, 60), whole)

    # one screen block, or blocks of 50 problems and refit chunks of 64
    @pytest.mark.parametrize("floats", [2**20, 16 * 2**8])
    def test_near_collinear_columns_match_reference(self, monkeypatch, floats):
        # x_3 = x_2 + scale * noise: at scale 1e-7 a sweep pivot has
        # 1 - R^2 near 1e-14, and without a full refit the screen's error
        # changed the selected subset (seeds 69, 94 and 107 of 110)
        monkeypatch.setattr(estimators_mod, "_BIC_BLOCK_FLOATS", floats)
        Gs, bs, ys = [], [], []
        for scale in (1e-2, 1e-4, 1e-7):
            for seed in range(110):
                rng = np.random.default_rng(seed)
                X = rng.standard_normal((60, 8))
                X[:, 3] = X[:, 2] + scale * rng.standard_normal(60)
                y = X @ THETA0 + rng.standard_normal(60)
                Gs.append(X.T @ X)
                bs.append(X.T @ y)
                ys.append(y @ y)
        G, b, yty = np.array(Gs), np.array(bs), np.array(ys)
        _assert_bits_equal(_bic_batch(G, b, yty, 60), _bic_reference(G, b, yty, 60))

    def test_guarded_fixed_design_refits_in_bounded_chunks(self, traced_peak):
        # one fixed design with x_3 = x_2 + 1e-6 * noise guards every
        # replication, so all 2**10 subsets of all 500 are refit: traced
        # 16.0 MB when their (mask, problem) pairs were built up front, 7.9 MB
        # when each refit chunk makes its own (also 7.6 MB at k = 12, R = 200)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((60, 10))
        X[:, 3] = X[:, 2] + 1e-6 * rng.standard_normal(60)
        G, b, yty = _statistics(X, X[:, :3] @ [1.0, 0.0, 2.0] + rng.standard_normal((500, 60)))
        assert np.all(_screen_table(G, b, yty)[1] < _BIC_MIN_PIVOT)
        _bic_batch(G[:1], b[:1], yty[:1], 60)  # the subset order is cached
        assert traced_peak(_bic_batch, G, b, yty, 60) < 1e7
        _assert_bits_equal(_bic_batch(G, b, yty, 60), _bic_reference(G, b, yty, 60))

    def test_non_finite_statistics_match_reference(self):
        X = ar_design(40, 4, np.random.default_rng(26))
        G, b, yty = _statistics(X, X @ np.array([1.0, 0.0, 0.5, 0.0]) + np.ones((3, 40)))
        b[1, 0] = np.nan
        G[2, 0, 1] = G[2, 1, 0] = np.inf
        _assert_bits_equal(_bic_batch(G, b, yty, 40), _bic_reference(G, b, yty, 40))

    def test_non_finite_response_matches_reference(self):
        # the screen's pivots never see b or y'y, so these reach only its table
        X = ar_design(40, 4, np.random.default_rng(27))
        G, b, yty = _statistics(X, X @ np.array([1.0, 0.0, 0.5, 0.0]) + np.ones((4, 40)))
        b[1, 0] = np.inf
        b[2, 3] = -np.inf
        yty[3] = np.inf
        with np.errstate(invalid="ignore"):  # inf * 0 in the reference's solves
            expected = _bic_reference(G, b, yty, 40)
        _assert_bits_equal(_bic_batch(G, b, yty, 40), expected)

    def test_zero_row_and_column_is_a_linalg_error(self):
        X = ar_design(40, 4, np.random.default_rng(24))
        G, b, yty = _statistics(X, np.ones((3, 40)))
        G[1, 2, :] = G[1, :, 2] = 0.0
        b[1, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _bic_batch(G, b, yty, 40)

    def test_engine_fallback_counts_singular_replications(self, monkeypatch):
        design = DesignSpec(kind=GAUSSIAN_AR, n=60, k=8, rho=0.5)
        G, Xe, ee = (a.copy() for a in risk_mod._draw_grams(design, 404, "bic-fail", 20))
        # replication 0: singular G, so least squares fails too; replication
        # 1: G nonsingular, but the subset {3} has G_33 = 0
        G[0, 3, :] = G[0, :, 3] = 0.0
        G[1, 3, :] = G[1, :, 3] = 0.0
        G[1, 2, 3] = G[1, 3, 2] = 1.0
        monkeypatch.setattr(risk_mod, "_shared_draws", lambda *args: (G, Xe, ee))
        rows = {r.estimator: r for r in risk_mod.run_mc(design, THETA0, 0.0, ["ls", "bic"], 20,
                                                        404)}
        assert rows["ls"].failures == 1
        assert rows["bic"].failures == 2
        assert np.isfinite(rows["bic"].rel_mse)


class TestBicSelect:
    def test_recovers_noiseless_pattern(self):
        rng = np.random.default_rng(11)
        X = ar_design(80, 8, rng)
        y = X @ THETA0
        theta = fit_bic_select(X, y)
        np.testing.assert_array_equal(theta != 0.0, THETA0 != 0.0)
        np.testing.assert_allclose(theta, THETA0, atol=1e-8)

    def test_zero_response_picks_empty_model(self):
        rng = np.random.default_rng(12)
        X = ar_design(30, 5, rng)
        assert not fit_bic_select(X, np.zeros(30)).any()

    def test_k1_matches_two_model_comparison(self):
        rng = np.random.default_rng(13)
        for signal in (0.02, 1.5):
            X = rng.standard_normal((40, 1))
            y = signal * X[:, 0] + rng.standard_normal(40)
            theta = fit_bic_select(X, y)
            theta1 = float(X[:, 0] @ y / (X[:, 0] @ X[:, 0]))
            rss1 = float(np.sum((y - X[:, 0] * theta1) ** 2))
            rss0 = float(y @ y)
            bic0 = 40 * np.log(rss0 / 40)
            bic1 = 40 * np.log(rss1 / 40) + np.log(40)
            expect_keep = bic1 < bic0
            assert (np.count_nonzero(theta) == 1) == expect_keep

    def test_dimension_guard(self):
        X = np.ones((30, 21)) + np.random.default_rng(14).standard_normal((30, 21))
        with pytest.raises(ValueError):
            fit_bic_select(X, np.ones(30))


class TestEquivariance:
    def test_column_permutation_permutes_fit(self):
        rng = np.random.default_rng(15)
        perm = rng.permutation(8)
        X = ar_design(60, 8, rng)
        y = X @ THETA0 + rng.standard_normal(60)
        fits = {
            "ls": fit_least_squares,
            "scad_cd": lambda A, v: fit_scad_cd(A, v, ScadParams(0.2), tol=1e-12)[0],
            "hard": fit_hard_threshold,
            "bic": fit_bic_select,
        }
        for name, fitter in fits.items():
            base = fitter(X, y)
            permuted = fitter(X[:, perm], y)
            np.testing.assert_allclose(
                permuted, base[perm], atol=1e-6, err_msg=name
            )


class TestEstimatorConfig:
    """A cell's estimators are names from ``risk.ESTIMATORS``, and its one
    other estimator setting is the name of SCAD's lambda-grid scale; the
    engine and the command line read the same tables."""

    def test_unknown_kind(self):
        design = DesignSpec(kind=GAUSSIAN_AR, n=30, k=8, rho=0.5)
        for name in ("ridge", "hard_threshold", "hodges"):
            with pytest.raises(ValueError):
                risk_mod.run_mc(design, THETA0, 0.0, ["ls", name], 5, 1)

    def test_unknown_scale_rejected_before_any_draw(self, monkeypatch):
        # without scad the grid is never built, so run_mc itself checks the name
        design = DesignSpec(kind=GAUSSIAN_AR, n=30, k=8, rho=0.5)
        calls = []

        def no_draws(*args):
            calls.append(args)
            raise AssertionError("drew replications")

        monkeypatch.setattr(risk_mod, "_DRAWS", {})
        monkeypatch.setattr(risk_mod, "_draw_grams", no_draws)
        with pytest.raises(ValueError, match="scale"):
            risk_mod.run_mc(design, THETA0, 0.0, ["ls"], 5, 1, scale="cube")
        assert calls == []
        with pytest.raises(AssertionError, match="drew"):
            risk_mod.run_mc(design, THETA0, 0.0, ["ls"], 5, 1, scale="unit")
        assert len(calls) == 1

    @pytest.mark.parametrize("names", [["ls", "ls"], ["scad", "hard", "scad"], []])
    def test_repeated_name_or_empty_list(self, names):
        design = DesignSpec(kind=GAUSSIAN_AR, n=30, k=8, rho=0.5)
        with pytest.raises(ValueError):
            risk_mod.run_mc(design, THETA0, 0.0, names, 5, 1)

    def test_every_name_runs(self):
        design = DesignSpec(kind=GAUSSIAN_AR, n=30, k=8, rho=0.5)
        rows = risk_mod.run_mc(design, THETA0, 0.0, list(risk_mod.ESTIMATORS), 8, 2)
        assert [r.estimator for r in rows] == list(risk_mod.ESTIMATORS)
        assert all(r.failures == 0 and np.isfinite(r.rel_mse) for r in rows)
        assert set(risk_mod.NEEDS_SIGMA) <= set(risk_mod.ESTIMATORS)

    def test_cli_accepts_exactly_the_table(self):
        for name in risk_mod.ESTIMATORS:
            assert parse_config(["sweep", "--estimators", name]).estimators == (name,)
        everything = ",".join(risk_mod.ESTIMATORS)
        assert parse_config(["sweep", "--estimators", everything]).estimators == (
            risk_mod.ESTIMATORS
        )
        for name in ("hard_threshold", "hodges", "ridge"):
            with pytest.raises(SystemExit):
                parse_config(["sweep", "--estimators", name])

    def test_engine_knobs_are_not_options(self):
        # the SCAD shape, stopping rule and hard-threshold exponent are
        # module constants the engine reads, not per-estimator settings; a
        # cell takes estimator names and one lambda-grid scale name
        assert list(inspect.signature(risk_mod.run_mc).parameters) == [
            "design", "theta", "gamma", "estimators", "replications", "master_seed",
            "scale", "setup",
        ]
        # the delta multipliers are the module constant tuning.DELTAS, so no
        # delta parameter, whatever its name, sets them
        for fn in (lambda_grid, risk_mod.run_mc, run_setup):
            assert not any(p.startswith("delta") for p in inspect.signature(fn).parameters)
        # nor are the bootstrap size, the zeroing tolerance, the SCAD shape
        # and stopping rule of gcv_select, the lambda path and the oracle
        # suite, and the AR correlation of the diagnostics
        for fn, knob in ((risk_mod.run_mc, "bootstrap_resamples"),
                         (_cd_batch, "zero_tol"),
                         (gcv_select, "a"), (gcv_select, "tol"), (gcv_select, "max_iter"),
                         (_scad_gcv_batch, "a"), (_scad_gcv_batch, "tol"),
                         (_scad_gcv_batch, "max_iter"), (_gcv_df_batch, "a"),
                         (oracle_check, "a"), (lower_bound_diagnostic, "rho")):
            assert knob not in inspect.signature(fn).parameters
        # sigma_hat and the loss exist once, as the engine's _gram_sigma and _losses
        assert not {"sigma_hat", "model_error"} & set(sparse_risk.__all__)
