"""Loss measures, the replication engine, and risk-report aggregation.

Replication r of a (setup, n) pair draws its design and error vector from
streams keyed by (seed, setup, n, r) and not by gamma, so every gamma cell of
one n sees the same data (common random numbers). The engine keeps the
gamma-free statistics X'X, X'eps and eps'eps of the last draw, forms X'y and
y'y for each cell's parameter, fits all requested estimators on the same
data, and records model error, squared error, and exact-zero pattern events.
Aggregates are relative to the full-model least-squares fit, which is always
computed as the baseline: the median of per-replication model-error ratios
and the ratio of mean squared errors. Bootstrap standard errors resample
replications, with the same resamples for every gamma of one n.
"""
from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .datagen import (
    DesignSpec,
    ParameterPath,
    RngStream,
    make_theta,
    sample_design,
    sample_errors,
)
from .estimators import (
    EstimatorConfig, _bic_batch, _gram_sigma, _hard_threshold_batch, _hodges_batch, solve_vec,
)
from .tuning import _scad_gcv_batch, lambda_grid

BOOTSTRAP_RESAMPLES = 200
FAILURE_FLAG_RATE = 0.01


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
        lines = [
            csv_header(self.master_seed, self.replications),
            ",".join(RiskRow.CSV_COLUMNS),
        ]
        for row in self.sorted_rows():
            lines.append(",".join(str(v) for v in row.csv_values()))
        with open(path, "w", encoding="utf8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Replication engine
# ---------------------------------------------------------------------------

def _normalize_estimators(estimators) -> list[EstimatorConfig]:
    configs = list(estimators)
    if not configs:
        raise ValueError("need at least one estimator")
    labels = [c.label for c in configs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate estimator labels: {labels}")
    return configs


def _draw_grams(design, master_seed, tag, R):
    """X'X, X'eps and eps'eps of R replications, with no parameter in them."""
    n, k = design.n, design.k
    G = np.empty((R, k, k))
    Xe = np.empty((R, k))
    ee = np.empty(R)
    for r in range(R):
        X = sample_design(design, RngStream(master_seed, r, f"design@{tag}"))
        eps = sample_errors(n, RngStream(master_seed, r, f"errors@{tag}"))
        G[r] = X.T @ X
        Xe[r] = X.T @ eps
        ee[r] = eps @ eps
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


def _fit_block(config, G, b, yty, th_ls, sig, n, k):
    """Batched fit of one estimator over a block of replications."""
    B = b.shape[0]
    lam = np.zeros(B)
    iters = np.zeros(B, dtype=np.int64)
    conv = np.ones(B, dtype=bool)
    if config.kind == "ls":
        return th_ls.copy(), lam, iters, conv
    if config.kind == "zero":
        return np.zeros((B, k)), lam, iters, conv
    if config.kind == "scad":
        if sig is None:
            raise ValueError("scad tuning needs n > k")
        grids = lambda_grid(config.lambda_rule, n, sig)
        theta, lam, iters, conv, _ = _scad_gcv_batch(
            G, b, yty, n, grids, config.a, config.solver, config.tol, config.max_iter
        )
        return theta, lam, iters, conv
    if config.kind == "hard_threshold":
        if sig is None:
            raise ValueError("hard thresholding needs n > k")
        theta = _hard_threshold_batch(G, th_ls, sig, n, config.exponent)
        return theta, lam, iters, conv
    if config.kind == "bic":
        return _bic_batch(G, b, yty, n), lam, iters, conv
    if config.kind == "hodges":
        if k != 1:
            raise ValueError("the scalar threshold estimator needs k = 1")
        return _hodges_batch(th_ls, n), lam, iters, conv
    raise ValueError(f"unknown estimator kind {config.kind!r}")


def _bootstrap_se(values, idx) -> float:
    if values.size == 0:
        return float("nan")
    stats = np.median(values[idx], axis=1)
    return float(np.std(stats, ddof=1))


def _bootstrap_se_ratio(num, den, idx) -> float:
    if num.size == 0:
        return float("nan")
    stats = num[idx].mean(axis=1) / den[idx].mean(axis=1)
    return float(np.std(stats, ddof=1))


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
    with concurrent.futures.ProcessPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, *cell, **kwargs) for cell in cells]
        return [fut.result() for fut in futures]


def run_mc(
    design: DesignSpec,
    path: ParameterPath,
    gamma: float,
    estimators,
    replications: int,
    master_seed: int,
    *,
    setup: str = "",
    bootstrap_resamples: int = BOOTSTRAP_RESAMPLES,
) -> list[RiskRow]:
    """Monte Carlo risk comparison at one (design, parameter) cell.

    All estimators see identical data within a replication. Estimator
    exceptions are recorded per replication and excluded from the aggregates;
    the failure count is carried on the report row.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if design.n != path.n or design.k != path.k:
        raise ValueError("design and parameter path disagree on n or k")
    configs = _normalize_estimators(estimators)
    n, k = design.n, design.k
    R = replications
    theta_true = make_theta(path, gamma)
    sigma = design.covariance()
    true_bits = theta_true != 0.0
    # common random numbers: every gamma of one (setup, n) sees the same data
    tag = f"{setup or 'cell'}/n={n}"

    G, Xe, ee = _shared_draws(design, master_seed, tag, R)
    b = G @ theta_true + Xe
    yty = b @ theta_true + Xe @ theta_true + ee

    failed = np.zeros((len(configs), R), dtype=bool)
    theta_all = np.zeros((len(configs), R, k))

    ls_failed = np.zeros(R, dtype=bool)
    th_ls = np.zeros((R, k))
    try:
        th_ls = solve_vec(G, b)
    except np.linalg.LinAlgError:
        for r in range(R):
            try:
                th_ls[r] = np.linalg.solve(G[r], b[r])
            except np.linalg.LinAlgError:
                ls_failed[r] = True
    sig = _gram_sigma(yty, b, th_ls, n) if n > k else None

    ok_rows = np.flatnonzero(~ls_failed)
    for ci, config in enumerate(configs):
        failed[ci, ls_failed] = True
        if not ok_rows.size:
            continue
        try:
            theta, _, _, _ = _fit_block(
                config, G[ok_rows], b[ok_rows], yty[ok_rows], th_ls[ok_rows],
                None if sig is None else sig[ok_rows], n, k,
            )
            theta_all[ci, ok_rows] = theta
        except np.linalg.LinAlgError:
            for r in ok_rows:
                try:
                    theta, _, _, _ = _fit_block(
                        config, G[r : r + 1], b[r : r + 1], yty[r : r + 1],
                        th_ls[r : r + 1],
                        None if sig is None else sig[r : r + 1], n, k,
                    )
                    theta_all[ci, r] = theta[0]
                except np.linalg.LinAlgError:
                    failed[ci, r] = True

    delta_ls = th_ls - theta_true
    me_ls = np.einsum("ri,ij,rj->r", delta_ls, sigma, delta_ls)
    sq_ls = np.einsum("ri,ri->r", delta_ls, delta_ls)

    rows_out: list[RiskRow] = []
    for ci, config in enumerate(configs):
        ok = ~failed[ci] & ~ls_failed
        nfail = int(R - ok.sum())
        theta = theta_all[ci, ok]
        delta = theta - theta_true
        me = np.einsum("ri,ij,rj->r", delta, sigma, delta)
        sq = np.einsum("ri,ri->r", delta, delta)
        nonzero = theta != 0.0
        spars_ok = ~np.any(nonzero & ~true_bits, axis=1)
        allzero = ~nonzero.any(axis=1)

        n_ok = int(ok.sum())
        boot_gen = RngStream(
            master_seed, 0, f"bootstrap@{tag}/{config.label}"
        ).generator()
        idx = boot_gen.integers(0, max(n_ok, 1), size=(bootstrap_resamples, max(n_ok, 1)))
        # identical fits give elementwise ratios of exactly 1.0, so the
        # least-squares row is exactly 1 without a special case
        ratios = me / me_ls[ok]
        rel_med = float(np.median(ratios)) if n_ok else float("nan")
        rel_mse = float(sq.mean() / sq_ls[ok].mean()) if n_ok else float("nan")
        se_med = _bootstrap_se(ratios, idx) if n_ok else float("nan")
        se_mse = _bootstrap_se_ratio(sq, sq_ls[ok], idx) if n_ok else float("nan")

        rows_out.append(
            RiskRow(
                setup=setup,
                n=n,
                gamma=float(gamma),
                estimator=config.label,
                rel_median_me=rel_med,
                rel_mse=rel_mse,
                sparsity_rate=float(spars_ok.mean()) if n_ok else float("nan"),
                mc_se=se_med,
                replications=R,
                master_seed=master_seed,
                mc_se_rel_mse=se_mse,
                mean_sq_err=float(sq.mean()) if n_ok else float("nan"),
                mean_model_error=float(me.mean()) if n_ok else float("nan"),
                allzero_rate=float(allzero.mean()) if n_ok else float("nan"),
                failures=nfail,
            )
        )
    return rows_out
