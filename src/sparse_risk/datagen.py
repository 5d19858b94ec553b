"""Design matrices, error draws, and the local parameter path for the simulation harness.

All randomness flows through :class:`RngStream`, a counter-based keyed stream:
a ``(master_seed, replication, purpose)`` triple always reproduces the same
draws, independently of execution order or worker count.

``sample_design`` and ``sample_errors`` draw a replication's X and eps
themselves. The replication engine does not call them: it draws the sufficient
statistics X'X, X'eps and eps'eps directly (``risk._draw_grams``), and the
tests use these two functions as the reference for that draw's law.

``make_theta`` evaluates the local path theta0 + (gamma / sqrt(n)) * eta that
the named setups and ``sweep`` walk; the engine itself takes any parameter.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

GAUSSIAN_AR = "gaussian_ar"
FIXED_MATRIX = "fixed_matrix"


@lru_cache(maxsize=1024)
def _purpose_words(purpose: str) -> tuple[int, int]:
    # Stable 64-bit tag (two uint32 words) so distinct purposes map to
    # distinct spawn keys across processes and platforms.
    digest = hashlib.blake2s(purpose.encode("utf8"), digest_size=8).digest()
    return (
        int.from_bytes(digest[:4], "little"),
        int.from_bytes(digest[4:], "little"),
    )


@dataclass(frozen=True)
class RngStream:
    """One independent random stream, keyed by replication index and purpose tag."""

    master_seed: int
    replication: int = 0
    purpose: str = "default"

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.master_seed >= 2**64:
            raise ValueError("master_seed must be a nonnegative 64-bit integer")
        if self.replication < 0:
            raise ValueError("replication index must be nonnegative")

    def generator(self) -> np.random.Generator:
        w0, w1 = _purpose_words(self.purpose)
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.replication, w0, w1)
        )
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class DesignSpec:
    """How to produce the n-by-k regressor matrix.

    ``gaussian_ar`` draws rows i.i.d. from N(0, Sigma) with
    Sigma[i, j] = rho**|i-j|; ``fixed_matrix`` returns a stored matrix.
    """

    kind: str
    n: int
    k: int
    rho: float = 0.0
    fixed_matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN_AR, FIXED_MATRIX):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")
        if self.kind == GAUSSIAN_AR:
            if not abs(self.rho) < 1:
                raise ValueError("rho must lie in (-1, 1)")
        else:
            if self.fixed_matrix is None:
                raise ValueError("fixed_matrix design requires a matrix")
            mat = np.asarray(self.fixed_matrix, dtype=float)
            if mat.shape != (self.n, self.k):
                raise ValueError(
                    f"fixed matrix has shape {mat.shape}, expected {(self.n, self.k)}"
                )
            if self.n < self.k:
                raise ValueError("fixed design requires n >= k")
            if not np.isfinite(mat).all():
                raise ValueError("fixed design must hold finite values")
            if np.linalg.matrix_rank(mat) < self.k:
                raise ValueError("fixed design must have full column rank")
            object.__setattr__(self, "fixed_matrix", mat)

    def covariance(self) -> np.ndarray:
        """Population regressor covariance; X'X/n for a fixed design."""
        if self.kind == GAUSSIAN_AR:
            return ar1_covariance(self.k, self.rho)
        mat = self.fixed_matrix
        return mat.T @ mat / self.n


def ar1_covariance(k: int, rho: float) -> np.ndarray:
    """Toeplitz covariance with entries rho**|i-j| (unit diagonal, SPD for |rho|<1)."""
    if k < 1:
        raise ValueError("k must be positive")
    if not abs(rho) < 1:
        raise ValueError("rho must lie in (-1, 1)")
    idx = np.arange(k)
    return np.asarray(rho, dtype=float) ** np.abs(idx[:, None] - idx[None, :])


def sample_design(spec: DesignSpec, stream: RngStream) -> np.ndarray:
    """Draw the regressor matrix for one replication.

    Gaussian designs use a lower-triangular Cholesky factor of the AR
    covariance, so the draw sequence is fully determined by the stream.
    Fixed designs return a copy of the stored matrix.
    """
    if spec.kind == FIXED_MATRIX:
        return spec.fixed_matrix.copy()
    z = stream.generator().standard_normal((spec.n, spec.k))
    return z @ _ar1_cholesky(spec.k, spec.rho).T


@lru_cache(maxsize=64)
def _ar1_cholesky(k: int, rho: float) -> np.ndarray:
    """Read-only lower Cholesky factor of the AR covariance, made once per (k, rho)."""
    try:
        chol = np.linalg.cholesky(ar1_covariance(k, rho))
    except np.linalg.LinAlgError as exc:  # unreachable for |rho| < 1
        raise np.linalg.LinAlgError(f"covariance factorization failed: {exc}")
    chol.flags.writeable = False
    return chol


def sample_errors(n: int, stream: RngStream) -> np.ndarray:
    """Draw n i.i.d. standard normal errors (error variance is fixed at one)."""
    if n < 1:
        raise ValueError("n must be positive")
    return stream.generator().standard_normal(n)


def make_theta(theta0, eta, n: int, gamma: float) -> np.ndarray:
    """The local path theta0 + (gamma / sqrt(n)) * eta at gamma >= 0."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    eta = np.asarray(eta, dtype=float)
    return np.asarray(theta0, dtype=float) + (gamma / np.sqrt(n)) * eta


def fixed_design_with_gram(n: int, sigma: np.ndarray) -> np.ndarray:
    """Deterministic n-by-k matrix X with X'X/n equal to ``sigma`` exactly.

    Built from a QR-orthonormalized seeded normal matrix, so repeated calls
    with the same (n, sigma) give the same design. Useful as a nonstochastic
    benchmark design whose scaled least-squares risk is trace(sigma^-1).
    """
    sigma = np.asarray(sigma, dtype=float)
    k = sigma.shape[0]
    if sigma.shape != (k, k):
        raise ValueError("sigma must be square")
    if n < k:
        raise ValueError("need n >= k")
    chol = np.linalg.cholesky(sigma)
    gen = RngStream(0x51DE5EED, 0, f"fixed-gram-design/{n}x{k}").generator()
    q, _ = np.linalg.qr(gen.standard_normal((n, k)))
    return np.sqrt(n) * q @ chol.T
