"""Regularization grids and generalized cross-validation for the SCAD fits.

Grids have the form ``delta * (sigma_hat / sqrt(n)) * scale(n)`` over a fixed
set of multipliers. The scale factor controls how fast sqrt(n) * lambda grows
with n: ``log_ratio`` gives log(n)/log(60) growth, ``pow10`` and ``pow4`` give
polynomial growth, and ``unit`` keeps sqrt(n) * lambda constant, which turns
the zero-finding behavior off asymptotically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import (
    SOLVER_MAX_ITER, SOLVER_TOL, _cd_batch, _checked_gram, _masked_ridge_matrix, solve_vec,
)
from .penalties import SCAD_A, _derivative_raw

DEFAULT_DELTAS = (0.9, 1.1, 1.3, 1.5, 1.7, 1.9, 2.0)

SCALES = {
    "log_ratio": lambda n: np.log(n) / np.log(60.0),
    "pow10": lambda n: (n / 60.0) ** 0.1,
    "pow4": lambda n: (n / 60.0) ** 0.25,
    "unit": lambda n: 1.0,
}


@dataclass(frozen=True)
class LambdaRule:
    """Multiplier set plus sample-size scaling for the lambda grid."""

    delta_set: tuple[float, ...] = DEFAULT_DELTAS
    scale: str = "log_ratio"

    def __post_init__(self) -> None:
        if len(self.delta_set) == 0:
            raise ValueError("delta_set must be nonempty")
        if not all(0 <= d < np.inf for d in self.delta_set):
            raise ValueError("delta multipliers must be finite and nonnegative")
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {tuple(SCALES)}")
        object.__setattr__(self, "delta_set", tuple(sorted(self.delta_set)))

    def scale_factor(self, n: int) -> float:
        return float(SCALES[self.scale](n))


def sigma_hat(X: np.ndarray, y: np.ndarray) -> float:
    """Unbiased residual standard deviation from the full least-squares fit."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if n <= k:
        raise ValueError("sigma_hat needs n > k")
    G, b, _ = _checked_gram(X, y)
    # Residual, not Gram, form: on noiseless data the latter gives 0 or 6e-8 to 1.2e-7.
    rss = float(np.sum((y - X @ solve_vec(G, b)[0]) ** 2))
    return float(np.sqrt(max(rss, 0.0) / (n - k)))


def lambda_grid(rule: LambdaRule, n: int, sigma_hat) -> np.ndarray:
    """Ascending grid {delta * (sigma_hat / sqrt(n)) * scale(n)}; an array of
    ``sigma_hat`` values gives one grid per value, on a trailing axis."""
    if n < 2:
        raise ValueError("n must be at least 2")
    sig = np.asarray(sigma_hat, dtype=float)
    if np.any(sig < 0):
        raise ValueError("sigma_hat must be nonnegative")
    deltas = np.asarray(rule.delta_set, dtype=float)
    return sig[..., None] * (deltas * (rule.scale_factor(n) / np.sqrt(n)))


# Replications per block of the GCV df solves: a block's (L * block, k, k)
# systems, about 0.5 MB at L = 7 and k = 8, stay in a core's L2 cache.
_GCV_DF_BLOCK = 32


def _gcv_df_batch(G, theta, lam, a, n):
    """Effective parameter count trace[X_A (X_A'X_A + n D)^-1 X_A'] per problem.

    ``G`` (B, k, k) holds one Gram matrix per replication and ``lam`` its
    penalty levels, (B,) or (B, L); ``theta`` (B * L, k) holds the fits in
    ``_cd_batch``'s flat, replication-major order, and the counts come back
    in it. The systems are formed and solved in blocks of ``_GCV_DF_BLOCK``
    replications, so only one block's per-fit matrices exist at a time.
    """
    B, k = G.shape[:2]
    lam = lam.reshape(B, -1)
    L = lam.shape[1]
    diag = np.arange(k)
    df = np.empty(B * L)
    for r in range(0, B, _GCV_DF_BLOCK):
        reps = slice(r, r + _GCV_DF_BLOCK)
        rows = slice(r * L, min(r + _GCV_DF_BLOCK, B) * L)
        Gb = np.repeat(G[reps], L, axis=0)
        th = theta[rows]
        act = th != 0.0
        absth = np.abs(th)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(act, _derivative_raw(absth, lam[reps].reshape(-1, 1), a) / absth, 0.0)
        d = np.nan_to_num(d, nan=0.0, posinf=0.0)
        M = _masked_ridge_matrix(Gb, act, n * d)
        outer = act[:, :, None] & act[:, None, :]
        target = np.where(outer, Gb, 0.0)
        Z = np.linalg.solve(M, target)
        df[rows] = Z[:, diag, diag].sum(axis=1)
    return df


# Not called: perfbench/tracer.install wraps this attribute of tuning.
def _lqa_batch(*args, **kwargs):
    raise RuntimeError("the reweighting SCAD solver was removed")


def _scad_gcv_batch(G, b, yty, n, grids, a, tol, max_iter, th_ls):
    """Fit every lambda in each problem's grid and keep the GCV minimizer.

    ``G`` (B, k, k), ``b`` (B, k), ``yty`` (B,) and ``th_ls`` (B, k) are the
    replications' Gram statistics and least-squares fits; ``grids`` is
    (B, L) with rows sorted ascending, and ties go to the smaller lambda.
    Every fit of a replication starts from ``th_ls`` and reads the
    replication's one Gram matrix: ``_cd_batch`` holds them once, with no
    per-fit copy, and ``_gcv_df_batch`` forms its systems a block of
    replications at a time. Returns per-replication (theta, lambda,
    iterations, converged, and the (B, L) gcv curve).
    """
    B, L = grids.shape
    k = b.shape[1]
    thetaf, itersf, convf = _cd_batch(G, b, n, grids, a, tol, max_iter, th_ls)

    df = _gcv_df_batch(G, thetaf, grids, a, n).reshape(B, L)
    theta = thetaf.reshape(B, L, k)
    rss = (
        yty[:, None]
        - 2.0 * np.einsum("bli,bi->bl", theta, b)
        + np.einsum("bli,bij,blj->bl", theta, G, theta)
    )
    gcv = (rss / n) / (1.0 - df / n) ** 2

    pick = np.argmin(gcv, axis=1)
    rows = np.arange(B)
    lam = grids[rows, pick]
    iters = itersf.reshape(B, L)[rows, pick]
    conv = convf.reshape(B, L)[rows, pick]
    return theta[rows, pick], lam, iters, conv, gcv


def gcv_select(
    X: np.ndarray, y: np.ndarray, grid
) -> tuple[np.float64, np.ndarray, np.int64, np.bool_]:
    """Pick lambda from ``grid`` by generalized cross-validation.

    GCV(lambda) = [RSS(lambda)/n] / (1 - e(lambda)/n)**2 with the effective
    parameter count e computed on the active coordinates of the fit. The fits
    use the engine's ``SCAD_A``, ``SOLVER_TOL`` and ``SOLVER_MAX_ITER``.
    Returns ``(lam, theta, sweeps, converged)`` of the minimizing fit, theta
    (k,); a fit that hits the sweep cap is returned with ``converged`` false,
    not raised. Every grid value must be finite and nonnegative.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if not np.all((grid >= 0) & (grid < np.inf)):
        raise ValueError("lambda grid values must be finite and nonnegative")
    G, b, yty = _checked_gram(X, y)
    theta, lam, iters, conv, _ = _scad_gcv_batch(
        G, b, yty, X.shape[0], grid[None], SCAD_A, SOLVER_TOL, SOLVER_MAX_ITER,
        solve_vec(G, b),
    )
    return lam[0], theta[0], iters[0], conv[0]
