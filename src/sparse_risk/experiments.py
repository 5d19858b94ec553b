"""Named simulation setups, worst-case sweeps, and risk diagnostics.

The six setups share the 8-regressor AR(0.5) Gaussian design and the base
parameter (3, 1.5, 0, 0, 2, 0, 0, 0)'; they differ in the local direction of
the parameter path, the range of the path parameter gamma, and how the
regularization grid scales with n. Setups IV and V rescale the grid so
sqrt(n) * lambda grows polynomially (sparser fits); Setup VI keeps the
unscaled grid, under which the zero-finding guarantee fails and worst-case
risk stays bounded.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import GAUSSIAN_AR, DesignSpec, RngStream, make_theta
from .estimators import _cd_batch, _hodges_batch
from .penalties import scad_penalty, scad_univariate_min
from .risk import RiskReport, map_cells, run_mc

THETA0 = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
K = THETA0.size
RHO = 0.5
DEFAULT_N_LIST = (60, 120, 240, 480, 960)
DEFAULT_REPLICATIONS = 500
DEFAULT_GAMMA_POINTS = 101
DEFAULT_MASTER_SEED = 20070301


@dataclass(frozen=True)
class SetupDef:
    setup_id: str
    eta: np.ndarray
    gamma_max: float
    scale: str

    def gamma_grid(self, points: int = DEFAULT_GAMMA_POINTS) -> np.ndarray:
        if points < 2:
            raise ValueError("gamma_points must be at least 2")
        return np.linspace(0.0, self.gamma_max, points)


_ETA_FULL = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
_ETA_PAIR = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
_ETA_MIXED = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.1, 0.1, 0.1])

SETUPS: dict[str, SetupDef] = {
    "I": SetupDef("I", _ETA_FULL, 8.0, "log_ratio"),
    "II": SetupDef("II", _ETA_PAIR, 8.0, "log_ratio"),
    "III": SetupDef("III", _ETA_MIXED, 80.0, "log_ratio"),
    "IV": SetupDef("IV", _ETA_FULL, 8.0, "pow10"),
    "V": SetupDef("V", _ETA_FULL, 8.0, "pow4"),
    "VI": SetupDef("VI", _ETA_FULL, 8.0, "unit"),
}


def run_setup(
    setup_id: str,
    *,
    n_list=DEFAULT_N_LIST,
    replications: int = DEFAULT_REPLICATIONS,
    gamma_points: int = DEFAULT_GAMMA_POINTS,
    master_seed: int = DEFAULT_MASTER_SEED,
    extra_estimators=(),
    threads: int = 1,
    progress=None,
) -> RiskReport:
    """Full sweep of one setup: SCAD (tuned by GCV) against least squares.

    ``extra_estimators`` appends further estimator names that run on the same
    replications; SCAD's lambda grid scales with n by the setup's ``scale``.
    ``threads`` is the largest number of (n, gamma) cells run at once, in
    worker processes; the report does not depend on it. ``progress`` may be a
    callable taking a status string.
    """
    setup = SETUPS.get(setup_id)
    if setup is None:
        raise ValueError(f"unknown setup {setup_id!r}; expected one of {sorted(SETUPS)}")
    grid = setup.gamma_grid(gamma_points)
    names = ["scad", "ls", *extra_estimators]

    report = RiskReport(master_seed=master_seed, replications=replications)
    for n in n_list:
        design = DesignSpec(kind=GAUSSIAN_AR, n=n, k=K, rho=RHO)
        cells = [
            (design, make_theta(THETA0, setup.eta, n, g), float(g), names, replications,
             master_seed)
            for g in grid
        ]
        for rows in map_cells(run_mc, cells, threads, scale=setup.scale, setup=setup.setup_id):
            report.extend(rows)
        if progress is not None:
            progress(f"setup {setup.setup_id}: n={n} done ({grid.size} gamma cells)")
    return report


@dataclass(frozen=True)
class WorstCasePoint:
    n: int
    value: float
    gamma: float
    mc_se: float


def worst_case_curve(
    report: RiskReport,
    measure: str = "rel_median_me",
    estimator: str = "scad",
) -> list[WorstCasePoint]:
    """Maximum of a relative measure over the gamma grid, for each sample size.

    Cells whose value is NaN (an estimator that failed every replication) are
    passed over; the value is NaN only when every cell of that n is. Ties
    resolve to the smallest gamma. The attached standard error is the chosen
    cell's Monte Carlo standard error of ``measure``.
    """
    if measure not in ("rel_median_me", "rel_mse"):
        raise ValueError("measure must be 'rel_median_me' or 'rel_mse'")
    rows = report.rows_for(estimator=estimator)
    if not rows:
        raise ValueError(f"report has no rows for estimator {estimator!r}")
    out = []
    for n in sorted({r.n for r in rows}):
        cells = sorted((r for r in rows if r.n == n), key=lambda r: r.gamma)
        values = np.array([getattr(r, measure) for r in cells])
        i = int(np.argmax(np.where(np.isnan(values), -np.inf, values)))
        se = cells[i].mc_se if measure == "rel_median_me" else cells[i].mc_se_rel_mse
        out.append(WorstCasePoint(n, float(values[i]), cells[i].gamma, se))
    return out


@dataclass(frozen=True)
class LowerBoundResult:
    n: int
    p_hat: float
    bound: float
    scaled_risk: float


def lower_bound_diagnostic(
    s: np.ndarray,
    n: int,
    estimator: str,
    replications: int,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> LowerBoundResult:
    """Estimate the all-zero-fit probability at the local point -s/sqrt(n).

    ``bound = ||s||^2 * p_hat`` restricted to the all-zero event never exceeds
    the scaled quadratic risk at the same point (returned for reference).
    """
    s = np.asarray(s, dtype=float)
    design = DesignSpec(kind=GAUSSIAN_AR, n=n, k=s.size, rho=RHO)
    row = run_mc(
        design, -s / np.sqrt(n), 0.0, [estimator], replications, master_seed,
        setup="lower-bound",
    )[0]
    p_hat = row.allzero_rate
    return LowerBoundResult(
        n=n,
        p_hat=p_hat,
        bound=float(s @ s) * p_hat,
        scaled_risk=n * row.mean_sq_err,
    )


@dataclass(frozen=True)
class HodgesRiskCurve:
    n_list: tuple[int, ...]
    mu_grid: np.ndarray
    values: np.ndarray  # shape (len(n_list), len(mu_grid)), scaled MSE

    def max_per_n(self) -> np.ndarray:
        return self.values.max(axis=1)


def hodges_risk_curve(
    n_list,
    mu_grid: np.ndarray,
    replications: int,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> HodgesRiskCurve:
    """Scaled mean squared error n * E(estimate - mu)^2 of the thresholded mean.

    The sample mean of n standard-normal observations around mu is drawn
    directly as mu + Z / sqrt(n); the estimate is the mean kept only when its
    magnitude strictly exceeds n**(-1/4).
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid.ndim != 1 or mu_grid.size == 0 or not np.isfinite(mu_grid).all():
        raise ValueError("mu_grid must be a nonempty vector of finite values")
    sorted_grid = np.sort(mu_grid)
    # absolute, scaled to the grid: a relative tolerance would pass 1 + 1e-6 as 1
    tol = 1e-12 * max(1.0, float(np.max(np.abs(sorted_grid))))
    if not np.allclose(sorted_grid, -sorted_grid[::-1], rtol=0.0, atol=tol):
        raise ValueError("mu_grid must be symmetric about zero")
    if replications < 1:
        raise ValueError("need at least one replication")
    n_list = tuple(n_list)
    # int() would run n = 100.5 as 100 and label it so
    if not all(float(n).is_integer() and n >= 1 for n in n_list):
        raise ValueError("sample sizes must be positive integers")
    n_list = tuple(int(n) for n in n_list)

    values = np.empty((len(n_list), mu_grid.size))
    for i, n in enumerate(n_list):
        gen = RngStream(master_seed, 0, f"hodges@n={n}").generator()
        z = gen.standard_normal((replications, 1))
        ybar = mu_grid[None, :] + z / np.sqrt(n)
        kept = _hodges_batch(ybar, n)
        values[i] = n * np.mean((kept - mu_grid[None, :]) ** 2, axis=0)
    return HodgesRiskCurve(n_list, mu_grid, values)


# ---------------------------------------------------------------------------
# Curve-shape helpers and the closed-form-versus-search oracle suite
# ---------------------------------------------------------------------------

def moving_average_3(values: np.ndarray) -> np.ndarray:
    """Three-point moving average with shrinking windows at the edges."""
    values = np.asarray(values, dtype=float)
    padded = np.concatenate([values[:1], values, values[-1:]])
    window = padded[:-2] + padded[1:-1] + padded[2:]
    out = window / 3.0
    if values.size >= 2:
        out[0] = (values[0] + values[1]) / 2.0
        out[-1] = (values[-2] + values[-1]) / 2.0
    return out


def count_local_maxima(values: np.ndarray) -> int:
    """Strict interior local maxima of a sequence."""
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        return 0
    mid = values[1:-1]
    return int(np.sum((mid > values[:-2]) & (mid > values[2:])))


def brute_force_univariate_min(z: float, lam: float) -> float:
    """Grid search on [-10, 10] in steps of 1e-3 for the scalar penalized
    minimizer, refined in steps of 1e-6 near the best coarse point.
    Independent of the closed-form expression it checks."""

    def objective(t):
        return 0.5 * (z - t) ** 2 + scad_penalty(np.abs(t), lam)

    grid = np.arange(-10.0, 10.0 + 1e-3, 1e-3)
    best = grid[np.argmin(objective(grid))]
    local = np.arange(best - 2e-3, best + 2e-3 + 1e-6, 1e-6)
    return float(local[np.argmin(objective(local))])


@dataclass(frozen=True)
class OracleCheckResult:
    brute_force_max_dev: float
    cd_max_dev: float
    cases_brute: int
    cases_solver: int

    @property
    def passed(self) -> bool:
        return self.brute_force_max_dev < 1e-4 and self.cd_max_dev < 1e-6


def _orthonormal_design(n: int, k: int, gen: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(gen.standard_normal((n, k)))
    return np.sqrt(n) * q


def oracle_check(
    cases_brute: int = 1000,
    cases_solver: int = 500,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> OracleCheckResult:
    """Run the closed-form-minimizer oracle suite.

    Compares the closed-form scalar minimizer against brute-force grid search
    over random (z, lambda) pairs, and coordinate descent against the closed
    form coordinatewise on exactly orthonormalized designs.
    """
    if min(cases_brute, cases_solver) < 1:
        raise ValueError("oracle_check needs at least one case of each kind")
    gen = RngStream(master_seed, 0, "oracle/brute").generator()
    z = gen.uniform(-6.0, 6.0, size=cases_brute)
    lam = gen.uniform(0.1, 2.0, size=cases_brute)
    searched = np.array([brute_force_univariate_min(zi, li) for zi, li in zip(z, lam)])
    closed = np.array([scad_univariate_min(zi, li) for zi, li in zip(z, lam)])
    dev_brute = float(np.max(np.abs(searched - closed)))

    gen = RngStream(master_seed, 0, "oracle/solvers").generator()
    n, k = 64, 8
    G = np.empty((cases_solver, k, k))
    b = np.empty((cases_solver, k))
    lam_s = gen.uniform(0.1, 2.0, size=cases_solver)
    targets = np.empty((cases_solver, k))
    for i in range(cases_solver):
        X = _orthonormal_design(n, k, gen)
        theta = gen.uniform(-3.0, 3.0, size=k)
        y = X @ theta + gen.standard_normal(n)
        G[i], b[i] = X.T @ X, X.T @ y
        targets[i] = [scad_univariate_min(zj, lam_s[i]) for zj in b[i] / n]

    theta_cd, _, _ = _cd_batch(G, b, n, lam_s, tol=1e-12, max_iter=10_000)
    dev_cd = float(np.max(np.abs(theta_cd - targets)))

    return OracleCheckResult(dev_brute, dev_cd, cases_brute, cases_solver)
