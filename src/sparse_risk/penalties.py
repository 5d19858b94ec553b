"""Smoothly clipped absolute deviation penalty and its exact univariate minimizer.

The penalty is linear up to lambda, quadratic on (lambda, a*lambda], and
constant beyond. Its shape a is fixed at ``SCAD_A`` = 3.7, as in Fan and Li
(2001, JASA 96), so lambda is its one parameter. The closed-form minimizer of
the scalar problem ``(z - t)^2 / 2 + penalty(|t|)`` serves as the testing
oracle for the multivariate solver on orthonormalized designs.
"""
from __future__ import annotations

import numpy as np

# The shape parameter a of Fan and Li (2001), the one every estimator uses.
SCAD_A = 3.7


def _check_lam(lam) -> None:
    # NaN fails both comparisons, so it is rejected too
    if not 0 <= lam < np.inf:
        raise ValueError("lambda must be finite and nonnegative")


def _penalty_raw(t: np.ndarray, lam) -> np.ndarray:
    middle = -(t * t - 2.0 * SCAD_A * lam * t + lam * lam) / (2.0 * (SCAD_A - 1.0))
    flat = (SCAD_A + 1.0) * lam * lam / 2.0
    return np.where(t <= lam, lam * t, np.where(t <= SCAD_A * lam, middle, flat))


def _derivative_raw(t: np.ndarray, lam) -> np.ndarray:
    middle = np.maximum(SCAD_A * lam - t, 0.0) / (SCAD_A - 1.0)
    return np.where(t <= lam, lam, middle)


def scad_penalty(theta_abs, lam):
    """Penalty value at |theta|; accepts scalars or arrays of magnitudes."""
    _check_lam(lam)
    t = np.asarray(theta_abs, dtype=float)
    if np.any(t < 0):
        raise ValueError("theta_abs must be nonnegative")
    out = _penalty_raw(t, lam)
    return float(out) if np.isscalar(theta_abs) else out

def scad_derivative(theta_abs, lam):
    """Right derivative of the penalty at |theta|; lambda on [0, lambda], then
    (a*lambda - t)/(a - 1), then 0 past a*lambda."""
    _check_lam(lam)
    t = np.asarray(theta_abs, dtype=float)
    if np.any(t < 0):
        raise ValueError("theta_abs must be nonnegative")
    out = _derivative_raw(t, lam)
    return float(out) if np.isscalar(theta_abs) else out


def scad_univariate_min(z: float, lam: float) -> float:
    """Exact minimizer of ``0.5 * (z - t)**2 + penalty(|t|)``.

    Soft thresholding for |z| <= 2*lambda, the rescaled middle-branch solution
    for 2*lambda < |z| < a*lambda, and the identity from a*lambda on. The
    |z| = 2*lambda boundary belongs to the soft branch; both branches agree
    there for a > 2. Where the middle-branch formula rounds to |z| or past it,
    a few ulps below a*lambda, the next double below |z| is returned instead.
    """
    _check_lam(lam)
    az = abs(z)
    if az <= 2.0 * lam:
        return float(np.sign(z) * max(az - lam, 0.0))
    if az < SCAD_A * lam:
        middle = ((SCAD_A - 1.0) * az - SCAD_A * lam) / (SCAD_A - 2.0)
        return float(np.sign(z) * min(middle, np.nextafter(az, 0.0)))
    return float(z)


def scad_univariate_min_weighted(z, lam, weight):
    """Minimizer of ``0.5 * (z - t)**2 + weight * penalty(|t|)``, vectorized.

    Used by coordinate descent, where the penalty weight w = n / ||x_j||^2 is
    close to one. For w < a - 1 the problem is strictly convex and its
    minimizer is the SCAD thresholding rule (Breheny and Huang 2011, Ann.
    Appl. Stat. 5): 0, then |z| - w*lam, then the middle-branch solution
    ((a-1)|z| - w*a*lam) / (a-1-w), then |z|, as |z| passes w*lam,
    (1+w)*lam and a*lam, times sign(z). Each of those is the expression
    ``_scad_min_enumerated`` computes for the candidate it picks there, so
    the two agree bit for bit. Elements whose pick could turn on rounding go
    to ``_scad_min_enumerated``: |z| within 1e-6 * max(|z|, lam) of an edge,
    a - 1 - w <= 0.5 (a near-concave or concave middle branch),
    |z| < 1e-100 (underflowing objectives), max(|z|, lam) > 1e100
    (overflowing ones) and NaN. ``z``, ``lam`` and ``weight`` broadcast
    against each other.
    """
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    w = np.asarray(weight, dtype=float)
    az = np.abs(z)
    soft = az - w * lam
    past_lin = soft - lam
    past_mid = az - SCAD_A * lam
    denom = SCAD_A - 1.0 - w
    # the divisor is denom wherever the result is used
    interior = ((SCAD_A - 1.0) * az - w * SCAD_A * lam) / np.maximum(denom, 0.5)
    tol = np.maximum(az, lam)
    tol *= 1e-6
    gap = np.minimum(np.minimum(np.abs(soft), np.abs(past_lin)), np.abs(past_mid))
    safe = (gap > tol) & (denom > 0.5) & (az >= 1e-100) & (tol <= 1e94)
    t = np.where(past_mid > 0.0, az, interior)
    t = np.where(past_lin > 0.0, t, soft)
    np.maximum(t, 0.0, out=t)
    # t >= +0.0 and z != 0 here, so this is sign(z) * t bit for bit
    np.copysign(t, z, out=t)
    if not safe.all():
        if t.ndim == 0:
            return _scad_min_enumerated(z, lam, w)
        near = ~safe
        z, lam, w = np.broadcast_arrays(z, lam, w)
        t[near] = _scad_min_enumerated(z[near], lam[near], w[near])
    return t


def _scad_min_enumerated(z, lam, weight):
    """``scad_univariate_min_weighted`` by scoring every branch-wise candidate.

    This stays exact even when ``weight >= a - 1`` makes the middle branch
    concave. For finite z and lam >= 0 a tie goes to the first of 0, soft,
    lam, middle, a*lam, outer. ``z``, ``lam`` and ``weight`` broadcast
    against each other.

    Each candidate's clipping fixes the penalty branch it lies on, so only that
    branch is evaluated, with the operations of ``_penalty_raw`` in the same
    order: every objective that can decide the minimum is bit for bit the one
    ``0.5*(t - |z|)**2 + weight*_penalty_raw(t, lam)`` gives.
    """
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    w = np.asarray(weight, dtype=float)
    az = np.abs(z)
    a_lam = SCAD_A * lam
    two_a_lam = 2.0 * SCAD_A * lam
    lam_sq = lam * lam
    # -x / d == x / -d bit for bit, which saves a negation per call.
    neg_denom = -(2.0 * (SCAD_A - 1.0))

    def middle_penalty(t):  # _penalty_raw's (lam, a*lam] branch
        return (t * t - two_a_lam * t + lam_sq) / neg_denom

    soft = np.clip(az - w * lam, 0.0, lam)
    denom = SCAD_A - 1.0 - w
    regular = np.abs(denom) > 1e-12
    interior = ((SCAD_A - 1.0) * az - w * SCAD_A * lam) / np.where(regular, denom, 1.0)
    middle = np.where(regular, np.clip(interior, lam, a_lam), lam)

    best, best_obj = np.zeros_like(az), 0.5 * az**2  # t = 0, penalty 0
    # a*lam <= lam only at lam = 0, where the linear branch gives 0.0 and the
    # middle one -0.0; both add to the same objective.
    for t, penalty in (
        (soft, lam * soft),
        (lam, lam_sq),
        (middle, np.where(middle <= lam, lam * middle, middle_penalty(middle))),
        (a_lam, middle_penalty(a_lam)),
    ):
        obj = 0.5 * (t - az) ** 2 + w * penalty
        best = np.where(obj < best_obj, t, best)
        best_obj = np.minimum(obj, best_obj)
    # outer = max(|z|, a*lam) is a*lam, with a*lam's objective, unless
    # |z| > a*lam; there it is |z|, with objective 0.0 + weight * flat.
    flat = (SCAD_A + 1.0) * lam * lam / 2.0
    best = np.where((az > a_lam) & (w * flat < best_obj), az, best)
    return np.sign(z) * best
