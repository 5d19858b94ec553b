"""Loss measures, the replication engine, and risk-report aggregation.

Every estimator reads only the statistics X'X, X'y and y'y of a replication.
The engine therefore never draws X or eps: it draws the gamma-free X'X, X'eps
and eps'eps of all R replications of one (setup, n) from their exact joint law
(a Bartlett factor of a Wishart matrix for Gaussian designs), from one stream
keyed by (seed, setup, n), so a draw costs the same at every n. A cell is a
design and a true parameter theta; every cell of one (setup, n) sees the same
replications (common random numbers), whatever its theta. The engine forms
X'y and y'y for the cell's theta, fits all requested estimators on the same
data, and records model error, squared error, and exact-zero pattern events.
Aggregates are relative to the full-model least-squares fit, which is always
computed as the baseline: the median of per-replication model-error ratios
and the ratio of mean squared errors. Their Monte Carlo standard errors are
closed forms of the same replications, with no resampling: the
distribution-free order-statistic interval for the median, and the delta
method for the ratio of means.
A batch fit that raises ``LinAlgError`` is split in halves until the
replications that fail on their own are found; those are counted as
failures, never averaged in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .datagen import GAUSSIAN_AR, DesignSpec, RngStream, _ar1_cholesky
# Not called here: perfbench/tracer.install wraps them as attributes of risk.
from .datagen import sample_design, sample_errors  # noqa: F401
from .estimators import (
    HARD_EXPONENT, SOLVER_MAX_ITER, SOLVER_TOL, _bic_batch, _gram_sigma,
    _hard_threshold_batch, solve_vec,
)
from .penalties import SCAD_A
from .tuning import LambdaRule, _scad_gcv_batch, lambda_grid

FAILURE_FLAG_RATE = 0.01

# The estimators the engine fits, by the name that labels their rows; those in
# NEEDS_SIGMA scale with the error estimate, which needs n > k.
ESTIMATORS = ("scad", "ls", "hard", "bic", "zero")
NEEDS_SIGMA = ("scad", "hard")


def model_error(theta_hat, theta_true, sigma) -> float:
    """Covariance-weighted quadratic loss (theta_hat - theta)' Sigma (theta_hat - theta)."""
    delta = np.asarray(theta_hat, dtype=float) - np.asarray(theta_true, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (delta.size, delta.size):
        raise ValueError("covariance dimensions do not match the parameter")
    return float(delta @ sigma @ delta)


def csv_header(seed: int, replications: int) -> str:
    """First line of every output CSV: the run's provenance."""
    return f"# master_seed={seed} replications={replications} version={__version__}"


def write_csv(path, seed: int, replications: int, lines) -> None:
    """Write the provenance header, then each of ``lines`` on its own line."""
    with open(path, "w", encoding="utf8", newline="\n") as fh:
        fh.write(csv_header(seed, replications) + "\n")
        for line in lines:
            fh.write(line + "\n")


def ls_mse_closed_form(n: int) -> float:
    """Exact mean squared error of least squares under the 8-regressor AR(0.5)
    Gaussian design with unit error variance: 38 / (3n - 27), defined for n > 9."""
    if n <= 9:
        raise ValueError("mean squared error is finite only for n > 9")
    return 38.0 / (3.0 * n - 27.0)


@dataclass(frozen=True)
class RiskRow:
    setup: str
    n: int
    gamma: float
    estimator: str
    rel_median_me: float
    rel_mse: float
    sparsity_rate: float
    mc_se: float
    replications: int
    master_seed: int
    mc_se_rel_mse: float = 0.0
    mean_sq_err: float = float("nan")
    mean_model_error: float = float("nan")
    allzero_rate: float = 0.0
    failures: int = 0

    CSV_COLUMNS = (
        "setup", "n", "gamma", "estimator", "rel_median_me", "rel_mse",
        "sparsity_rate", "mc_se", "R", "seed",
    )

    def csv_values(self) -> tuple:
        return (
            self.setup, self.n, repr(self.gamma), self.estimator,
            repr(self.rel_median_me), repr(self.rel_mse),
            repr(self.sparsity_rate), repr(self.mc_se),
            self.replications, self.master_seed,
        )


@dataclass
class RiskReport:
    rows: list[RiskRow] = field(default_factory=list)
    master_seed: int = 0
    replications: int = 0

    def extend(self, rows) -> None:
        self.rows.extend(rows)

    def rows_for(self, estimator=None, n=None, gamma=None) -> list[RiskRow]:
        out = self.rows
        if estimator is not None:
            out = [r for r in out if r.estimator == estimator]
        if n is not None:
            out = [r for r in out if r.n == n]
        if gamma is not None:
            out = [r for r in out if r.gamma == gamma]
        return out

    @property
    def estimator_labels(self) -> list[str]:
        seen = dict.fromkeys(r.estimator for r in self.rows)
        return list(seen)

    @property
    def flagged(self) -> bool:
        return any(
            r.failures > FAILURE_FLAG_RATE * r.replications for r in self.rows
        )

    def sorted_rows(self) -> list[RiskRow]:
        return sorted(self.rows, key=lambda r: (r.n, r.gamma, r.estimator))

    def to_csv(self, path) -> None:
        lines = [",".join(RiskRow.CSV_COLUMNS)]
        lines += (",".join(str(v) for v in row.csv_values()) for row in self.sorted_rows())
        write_csv(path, self.master_seed, self.replications, lines)


# ---------------------------------------------------------------------------
# Replication engine
# ---------------------------------------------------------------------------

def _chi2(gen, df, size=None):
    """Chi-square draws as 2 * Gamma(df / 2), which is exactly 0 at df = 0."""
    return 2.0 * gen.standard_gamma(df / 2.0, size=size)


def _draw_grams(design, master_seed, tag, R):
    """X'X, X'eps and eps'eps of R replications, with no parameter in them.

    The three statistics are drawn from their exact joint law, never through
    X and eps, so a draw costs O(k^2) per replication at any n. With L a
    factor of G = X'X, X'eps = L z and eps'eps = z'z + chi2_{n-k} for
    z ~ N(0, I_k). A Gaussian design takes L = chol(Sigma) A with A the
    Bartlett factor of a standard Wishart_k(n) matrix: sqrt(chi2_{n-i}) on
    the diagonal (i = 0..k-1) and N(0, 1) below it (Anderson, An
    Introduction to Multivariate Statistical Analysis, ch. 7).
    """
    n, k = design.n, design.k
    if design.kind == GAUSSIAN_AR and n < k:
        raise ValueError(f"a Gaussian design needs n >= k = {k}, got n = {n}")
    gen = RngStream(master_seed, 0, f"grams@{tag}").generator()
    z = gen.standard_normal((R, k))
    ee = np.einsum("ri,ri->r", z, z) + _chi2(gen, n - k, size=R)
    if design.kind == GAUSSIAN_AR:
        diag = np.arange(k)
        below = np.tril_indices(k, -1)
        A = np.zeros((R, k, k))
        A[:, diag, diag] = np.sqrt(_chi2(gen, n - diag, size=(R, k)))
        A[:, below[0], below[1]] = gen.standard_normal((R, below[0].size))
        L = _ar1_cholesky(k, design.rho) @ A
        G = L @ L.transpose(0, 2, 1)
    else:
        X = design.fixed_matrix
        gram = X.T @ X
        L = np.linalg.cholesky(gram)
        G = np.broadcast_to(gram, (R, k, k)).copy()
    Xe = (L @ z[:, :, None])[:, :, 0]
    return G, Xe, ee


# One entry, the last draw: the cells of one n run back to back, in one
# process or spread over worker processes, so each process draws once per n.
_DRAWS: dict = {}


def _shared_draws(design, master_seed, tag, R):
    """``_draw_grams``, drawn once and reused while its inputs stay the same."""
    matrix = design.fixed_matrix
    key = (
        design.kind, design.n, design.k, design.rho,
        None if matrix is None else matrix.tobytes(), master_seed, tag, R,
    )
    if key not in _DRAWS:
        _DRAWS.clear()
        draws = _draw_grams(design, master_seed, tag, R)
        for arr in draws:
            arr.flags.writeable = False
        _DRAWS[key] = draws
    return _DRAWS[key]


def _fit_block(name, G, b, yty, th_ls, sig, n, k, rule):
    """Batched fit of one estimator over a block of replications; ``rule``
    sets SCAD's lambda grid."""
    B = b.shape[0]
    lam = np.zeros(B)
    iters = np.zeros(B, dtype=np.int64)
    conv = np.ones(B, dtype=bool)
    if sig is None and name in NEEDS_SIGMA:
        raise ValueError(f"{name} needs n > k for its error scale")
    if name == "ls":
        return th_ls.copy(), lam, iters, conv
    if name == "zero":
        return np.zeros((B, k)), lam, iters, conv
    if name == "scad":
        grids = lambda_grid(rule, n, sig)
        theta, lam, iters, conv, _ = _scad_gcv_batch(
            G, b, yty, n, grids, SCAD_A, SOLVER_TOL, SOLVER_MAX_ITER, th_ls
        )
        return theta, lam, iters, conv
    if name == "hard":
        return _hard_threshold_batch(G, th_ls, sig, n, HARD_EXPONENT), lam, iters, conv
    if name == "bic":
        return _bic_batch(G, b, yty, n), lam, iters, conv
    raise ValueError(f"unknown estimator {name!r}")


def _fit_rows(fit, arrays, k):
    """``fit(*arrays)`` over all rows as one batch if it can, and a failure mask.

    On ``LinAlgError`` the rows are split in halves and each half is fitted
    again, so only a row that fails on its own is marked failed (its theta
    row is zero). Every kernel gives the same bits at any batch size, so the
    split changes no result, and one bad row costs about 2 log2(rows) batched
    fits. ``None`` entries of ``arrays`` stay ``None``.
    """
    try:
        theta = fit(*arrays)
        return theta, np.zeros(len(theta), dtype=bool)
    except np.linalg.LinAlgError:
        rows = len(arrays[0])
        if rows <= 1:
            return np.zeros((rows, k)), np.ones(rows, dtype=bool)
        halves = [
            _fit_rows(fit, [None if a is None else a[part] for a in arrays], k)
            for part in (slice(None, rows // 2), slice(rows // 2, None))
        ]
        return tuple(np.concatenate(pieces) for pieces in zip(*halves))


def _median(x):
    """``np.median(x, axis=-1)`` bit for bit, NaN included, without the
    ``numpy.ma`` import that its NaN check costs a process."""
    m = x.shape[-1]
    h = m // 2
    part = np.partition(x, [h - 1 + m % 2, h, m - 1], axis=-1)
    # np.median is np.mean of the middle one or two, which sums onto +0.0
    if m % 2:
        mid = part[..., h] + 0.0
    else:
        mid = (part[..., h - 1] + part[..., h] + 0.0) / 2.0
    last = part[..., -1]
    return np.where(np.isnan(last), last, mid)


# Named for the benchmark tracer, which wraps both as risk.bootstrap (ROADMAP item 1).
def _bootstrap_se(values):
    """Standard error of the median of m >= 2 ``values``: the distribution-free
    95% interval between the order statistics of 1-based ranks
    max(floor(m/2 - 0.98 sqrt(m)), 1) and min(ceil(m/2 + 0.98 sqrt(m)), m),
    over 3.92 (Maritz and Jarrett, JASA 73, 1978)."""
    m = len(values)
    half = 0.98 * math.sqrt(m)
    ranks = [max(math.floor(m / 2 - half), 1) - 1, min(math.ceil(m / 2 + half), m) - 1]
    lo, hi = np.partition(values, ranks)[ranks]
    return float((hi - lo) / 3.92)


def _bootstrap_se_ratio(num, den):
    """Delta-method standard error of mean(num) / mean(den) over m >= 2 pairs,
    from the residuals num - q den at the ratio q, which are exactly zero when
    ``num`` is ``den``."""
    q = num.mean() / den.mean()
    return float(np.std(num - q * den, ddof=1) / (math.sqrt(len(num)) * den.mean()))


def map_cells(fn, cells, workers: int, **kwargs) -> list:
    """``[fn(*cell, **kwargs) for cell in cells]``, in cell order.

    With ``workers > 1`` up to that many cells run at once in worker
    processes. A cell's data depend only on its keyed streams, never on which
    cells ran before it, so the results do not depend on ``workers``.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    cells = list(cells)
    workers = min(workers, len(cells))
    if workers <= 1:
        return [fn(*cell, **kwargs) for cell in cells]
    import concurrent.futures  # a serial run does without its import cost

    with concurrent.futures.ProcessPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, *cell, **kwargs) for cell in cells]
        return [fut.result() for fut in futures]


_STATS = (
    "rel_median_me", "rel_mse", "sparsity_rate", "mc_se", "mc_se_rel_mse",
    "mean_sq_err", "mean_model_error", "allzero_rate",
)


def _losses(theta, theta_true, sigma):
    """Per-replication model error and squared error."""
    delta = theta - theta_true
    return np.einsum("ri,ij,rj->r", delta, sigma, delta), np.einsum("ri,ri->r", delta, delta)


def _summarize(theta, theta_true, sigma, me_ls, sq_ls) -> dict:
    """The ``_STATS`` of one estimator's fits, least squares on the same rows
    as the baseline. With fewer than two rows the standard errors are NaN."""
    me, sq = _losses(theta, theta_true, sigma)
    nonzero = theta != 0.0
    # identical fits give elementwise ratios of exactly 1.0, so the
    # least-squares row is exactly 1 without a special case
    ratios = me / me_ls
    mc_se = mc_se_rel_mse = float("nan")
    # one value has no spread, so it gives no standard error, not one of 0
    if len(theta) > 1:
        mc_se, mc_se_rel_mse = _bootstrap_se(ratios), _bootstrap_se_ratio(sq, sq_ls)
    return {
        "rel_median_me": float(_median(ratios)),
        "rel_mse": float(sq.mean() / sq_ls.mean()),
        "sparsity_rate": float((~np.any(nonzero & (theta_true == 0.0), axis=1)).mean()),
        "mc_se": mc_se,
        "mc_se_rel_mse": mc_se_rel_mse,
        "mean_sq_err": float(sq.mean()),
        "mean_model_error": float(me.mean()),
        "allzero_rate": float((~nonzero.any(axis=1)).mean()),
    }


def run_mc(
    design: DesignSpec,
    theta,
    gamma: float,
    estimators,
    replications: int,
    master_seed: int,
    *,
    rule: LambdaRule = LambdaRule(),
    setup: str = "",
) -> list[RiskRow]:
    """Monte Carlo risk comparison at one (design, parameter) cell.

    ``theta`` is the true parameter, a finite vector of length ``design.k``;
    ``gamma`` only labels the rows. ``estimators`` lists distinct names from
    ``ESTIMATORS``, and ``rule`` sets SCAD's lambda grid. Draws the cell's
    replications, fits every estimator on all of them as one batch, and
    summarizes each estimator against least squares on the same
    replications. A replication whose fit raises ``LinAlgError`` (least
    squares failing fails it for every estimator) is found by splitting the
    batch, counted in the row's ``failures`` and left out of its aggregates;
    an estimator with no successful replication gets a row of NaN, and one
    with a single successful replication NaN standard errors.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    theta_true = np.asarray(theta, dtype=float)
    if theta_true.shape != (design.k,) or not np.all(np.isfinite(theta_true)):
        raise ValueError(f"theta must be a finite vector of length k = {design.k}")
    names = list(estimators)
    if not names or len(set(names)) != len(names) or not set(names) <= set(ESTIMATORS):
        raise ValueError(f"need distinct estimators from {ESTIMATORS}, got {names}")
    n, k = design.n, design.k
    R = replications
    sigma = design.covariance()
    # common random numbers: every theta of one (setup, n) sees the same data
    tag = f"{setup or 'cell'}/n={n}"

    G, Xe, ee = _shared_draws(design, master_seed, tag, R)
    b = G @ theta_true + Xe
    yty = b @ theta_true + Xe @ theta_true + ee

    th_ls, ls_failed = _fit_rows(solve_vec, (G, b), k)
    sig = _gram_sigma(yty, b, th_ls, n) if n > k else None
    # the estimators see only the replications least squares could fit (as
    # views, not copies, when it fit all of them)
    keep = ~ls_failed if ls_failed.any() else slice(None)
    data = [None if a is None else a[keep] for a in (G, b, yty, th_ls, sig)]
    me_ls, sq_ls = (a[keep] for a in _losses(th_ls, theta_true, sigma))

    rows_out: list[RiskRow] = []
    for name in names:
        theta, failed = _fit_rows(lambda *a: _fit_block(name, *a, n, k, rule)[0], data, k)
        ok = ~failed
        stats = dict.fromkeys(_STATS, float("nan"))
        if ok.any():
            stats = _summarize(theta[ok], theta_true, sigma, me_ls[ok], sq_ls[ok])
        rows_out.append(RiskRow(
            setup=setup, n=n, gamma=float(gamma), estimator=name,
            replications=R, master_seed=master_seed, failures=R - int(ok.sum()), **stats,
        ))
    return rows_out
