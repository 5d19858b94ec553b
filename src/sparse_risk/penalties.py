"""Smoothly clipped absolute deviation penalty and its exact univariate minimizer.

The penalty is linear up to lambda, quadratic on (lambda, a*lambda], and
constant beyond; the closed-form minimizer of the scalar problem
``(z - t)^2 / 2 + penalty(|t|)`` serves as the testing oracle for the
multivariate solvers on orthonormalized designs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScadParams:
    """Regularization level and shape parameter; shape must exceed 2."""

    lam: float
    a: float = 3.7

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if not self.a > 2:
            raise ValueError("shape parameter a must exceed 2")


def _penalty_raw(t: np.ndarray, lam, a) -> np.ndarray:
    middle = -(t * t - 2.0 * a * lam * t + lam * lam) / (2.0 * (a - 1.0))
    flat = (a + 1.0) * lam * lam / 2.0
    return np.where(t <= lam, lam * t, np.where(t <= a * lam, middle, flat))


def _derivative_raw(t: np.ndarray, lam, a) -> np.ndarray:
    middle = np.maximum(a * lam - t, 0.0) / (a - 1.0)
    return np.where(t <= lam, lam, middle)


def scad_penalty(theta_abs, p: ScadParams):
    """Penalty value at |theta|; accepts scalars or arrays of magnitudes."""
    t = np.asarray(theta_abs, dtype=float)
    if np.any(t < 0):
        raise ValueError("theta_abs must be nonnegative")
    out = _penalty_raw(t, p.lam, p.a)
    return float(out) if np.isscalar(theta_abs) else out

def scad_derivative(theta_abs, p: ScadParams):
    """Right derivative of the penalty at |theta|; lambda on [0, lambda], then
    (a*lambda - t)/(a - 1), then 0 past a*lambda."""
    t = np.asarray(theta_abs, dtype=float)
    if np.any(t < 0):
        raise ValueError("theta_abs must be nonnegative")
    out = _derivative_raw(t, p.lam, p.a)
    return float(out) if np.isscalar(theta_abs) else out


def scad_univariate_min(z: float, p: ScadParams) -> float:
    """Exact minimizer of ``0.5 * (z - t)**2 + penalty(|t|)``.

    Soft thresholding for |z| <= 2*lambda, the rescaled middle-branch solution
    for 2*lambda < |z| <= a*lambda, and the identity beyond a*lambda. The
    |z| = 2*lambda boundary belongs to the soft branch; both branches agree
    there for a > 2.
    """
    lam, a = p.lam, p.a
    az = abs(z)
    if az <= 2.0 * lam:
        return float(np.sign(z) * max(az - lam, 0.0))
    if az <= a * lam:
        return float(((a - 1.0) * z - np.sign(z) * a * lam) / (a - 2.0))
    return float(z)


def scad_univariate_min_weighted(z, lam, a, weight):
    """Minimizer of ``0.5 * (z - t)**2 + weight * penalty(|t|)``, vectorized.

    Used by coordinate descent, where the effective penalty weight is
    n / ||x_j||^2 and is close to, but not exactly, one. The minimum is found
    by evaluating the objective at every branch-wise candidate, which stays
    exact even when ``weight >= a - 1`` makes the middle branch concave.
    For finite z a tie goes to the first of 0, soft, lam, middle, a*lam, outer.
    """
    z = np.asarray(z, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), z.shape)
    w = np.broadcast_to(np.asarray(weight, dtype=float), z.shape)
    az = np.abs(z)

    soft = np.clip(az - w * lam, 0.0, lam)
    denom = a - 1.0 - w
    safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
    interior = ((a - 1.0) * az - w * a * lam) / safe
    middle = np.where(np.abs(denom) > 1e-12, np.clip(interior, lam, a * lam), lam)
    outer = np.maximum(az, a * lam)

    best, best_obj = np.zeros_like(az), np.full_like(az, np.inf)
    for t in (0.0, soft, lam, middle, a * lam, outer):
        obj = 0.5 * (t - az) ** 2 + w * _penalty_raw(t, lam, a)
        best = np.where(obj < best_obj, t, best)
        best_obj = np.minimum(obj, best_obj)
    return np.sign(z) * best
