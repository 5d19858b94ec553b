"""Command-line entry point for the risk harness.

Commands: ``setup`` runs one of the named setups I..VI; ``sweep`` runs a
custom local-parameter sweep; ``hodges`` maps the scaled risk of the
thresholded scalar mean; ``oracle-check`` verifies the SCAD solver against the
closed-form scalar minimizer; ``lower-bound`` runs the all-zero-probability
diagnostic against the bounded least-squares benchmark.

Each command parses only the flags it reads. The config file is flat
``key = value`` text with ``#`` comments, and each line is the flag
``--key=value`` (``_`` in the key for ``-``) of the command it is given to.
Flag values override config-file entries, which override defaults. Output
CSVs embed the master seed, replication count, and package version in a header
comment and are byte-identical across reruns and worker counts.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import FIXED_MATRIX, GAUSSIAN_AR, DesignSpec, make_theta
from .estimators import BIC_MAX_K
from .experiments import (
    DEFAULT_GAMMA_POINTS,
    DEFAULT_MASTER_SEED,
    DEFAULT_N_LIST,
    DEFAULT_REPLICATIONS,
    RHO,
    SETUPS,
    THETA0,
    hodges_risk_curve,
    lower_bound_diagnostic,
    oracle_check,
    run_setup,
    worst_case_curve,
)
from .risk import ESTIMATORS, NEEDS_SIGMA, RiskReport, map_cells, run_mc, write_csv
from .tuning import LambdaRule, SCALES

FIGURE_FOR_SETUP = {"I": "fig1", "III": "fig2", "IV": "fig3", "V": "fig4", "VI": "fig5"}

# Still accepted, and ignored, because perfbench's setupI-lqa workload passes --solver lqa.
DEPRECATED_SOLVERS = ("lqa", "cd")


@dataclass
class RunConfig:
    command: str
    setup_id: str | None = None
    seed: int = DEFAULT_MASTER_SEED
    replications: int = DEFAULT_REPLICATIONS
    n_list: tuple[int, ...] | None = None
    gamma_points: int | None = None
    threads: int = 1
    output_dir: str | None = None
    estimators: tuple[str, ...] = ("scad", "ls")
    scale: str = "log_ratio"
    eta: tuple[float, ...] | None = None
    theta0: tuple[float, ...] | None = None
    gamma_max: float = 8.0
    rho: float = RHO
    design_csv: str | None = None
    mu_max: float = 1.0
    mu_points: int = 81
    s_scale: float = 5.0
    s_index: int = 3
    cases: int = 1000


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# Every option, declared once; a config-file key is the flag name with "_" for "-".
OPTIONS = {
    "--config": dict(help="flat key = value config file"),
    "--seed": dict(type=int),
    "--solver": dict(help=f"deprecated and ignored; one of {DEPRECATED_SOLVERS}"),
    "--setup": dict(dest="setup_id", help="setup id (I..VI)"),
    "--reps": dict(type=int, dest="replications"),
    "--n-list": dict(type=_parse_int_list),
    "--n": dict(type=_parse_int_list, dest="n_list"),
    "--gamma-points": dict(type=int),
    "--threads": dict(type=int),
    "--out": dict(dest="output_dir"),
    "--estimators": dict(type=_parse_name_list, help=f"comma list from {ESTIMATORS}"),
    "--eta": dict(type=_parse_float_list),
    "--theta0": dict(type=_parse_float_list),
    "--gamma-max": dict(type=float),
    "--scale": dict(help=f"one of {SCALES}"),
    "--rho": dict(type=float),
    "--design-csv": dict(),
    "--mu-max": dict(type=float),
    "--mu-points": dict(type=int),
    "--cases": dict(type=int),
    "--s-scale": dict(type=float),
    "--s-index": dict(type=int),
}

# Each command takes --config, --seed and --solver plus the flags its _execute_* reads.
COMMAND_FLAGS = {
    "setup": ("run a named setup sweep", (
        "--setup", "--reps", "--n-list", "--gamma-points", "--threads", "--out",
        "--estimators")),
    "sweep": ("run a custom local-parameter sweep", (
        "--reps", "--n-list", "--gamma-points", "--threads", "--out", "--estimators",
        "--eta", "--theta0", "--gamma-max", "--scale", "--rho", "--design-csv")),
    "hodges": ("scaled risk curve of the thresholded mean", (
        "--reps", "--n-list", "--n", "--out", "--mu-max", "--mu-points")),
    "oracle-check": ("solver-versus-oracle deviations", ("--cases",)),
    "lower-bound": ("all-zero-probability lower bound", (
        "--reps", "--n-list", "--threads", "--out", "--s-scale", "--s-index")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-risk",
        description="Monte Carlo risk harness for sparse estimators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in COMMAND_FLAGS.items():
        # no abbreviations, so a config key names its flag exactly
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        if command == "setup":
            p.add_argument("setup_pos", nargs="?", metavar="ID", help="setup id (I..VI)")
        # --n and --n-list set one list, so a command takes at most one of
        # them; argparse cannot format the usage of an empty group
        n_flags = p.add_mutually_exclusive_group() if {"--n", "--n-list"} & set(flags) else None
        for flag in ("--config", "--seed", "--solver", *flags):
            owner = n_flags if flag in ("--n", "--n-list") else p
            owner.add_argument(flag, **OPTIONS[flag])
    return parser


def _read_config_file(path: str) -> list[str]:
    """The file's ``key = value`` lines as ``--key=value`` flags, in file order."""
    flags = []
    text = Path(path).read_text(encoding="utf8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config" or not key.isidentifier():
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def parse_config(argv) -> RunConfig:
    """Parse flags plus optional config file into a validated RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        try:
            file_flags = _read_config_file(ns.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        # the file's flags go first, so the command line's own flags win
        at = argv.index(ns.command) + 1
        ns = parser.parse_args([*argv[:at], *file_flags, *argv[at:]])

    names = {f.name for f in fields(RunConfig)}
    config = RunConfig(**{k: v for k, v in vars(ns).items() if k in names and v is not None})
    if getattr(ns, "setup_pos", None) is not None:
        config.setup_id = ns.setup_pos

    # the variable is a fallback: a directory given by flag or file wins
    if config.output_dir is None:
        config.output_dir = os.environ.get("SPARSE_RISK_OUT") or "out"

    if config.command == "setup":
        if config.setup_id is None:
            parser.error("setup command needs a setup id (positional or --setup)")
        if config.setup_id not in SETUPS:
            parser.error(
                f"unknown setup {config.setup_id!r}; expected one of {sorted(SETUPS)}"
            )
    if not 0 <= config.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    if config.replications < 1:
        parser.error("--reps must be positive")
    if config.threads < 1:
        parser.error("--threads must be positive")
    if config.n_list is not None:
        if not config.n_list:
            parser.error("the sample-size list is empty")
        if min(config.n_list) < 1:
            parser.error("sample sizes must be positive")
        if config.command in ("setup", "lower-bound") and min(config.n_list) <= THETA0.size:
            parser.error(f"SCAD needs every sample size above k = {THETA0.size}")
    if config.design_csv is not None:
        # the CSV's rows are the one fixed design, so no n or AR design is drawn
        for flag, value in (("--n-list", ns.n_list), ("--rho", ns.rho)):
            if value is not None:
                parser.error(f"{flag} does not apply with --design-csv, whose rows fix"
                             " the design")
    if config.gamma_points is not None and config.gamma_points < 2:
        parser.error("--gamma-points must be at least 2")
    if not 0 < config.gamma_max < float("inf"):
        parser.error("--gamma-max must be positive and finite")
    if not -1 < config.rho < 1:
        parser.error("--rho must lie in (-1, 1)")
    for name in ("eta", "theta0"):
        values = getattr(config, name)
        if values is not None and not np.all(np.isfinite(values)):
            parser.error(f"--{name} must hold finite numbers")
    k = THETA0.size if config.theta0 is None else len(config.theta0)
    if config.eta is not None and len(config.eta) != k:
        parser.error(f"--eta has {len(config.eta)} entries and --theta0 has {k}")
    if not 0 < config.mu_max < float("inf"):
        parser.error("--mu-max must be positive and finite")
    if not np.isfinite(config.s_scale):
        parser.error("--s-scale must be finite")
    if not 1 <= config.s_index <= THETA0.size:
        parser.error(f"--s-index must lie in [1, {THETA0.size}]")
    if config.mu_points < 2:
        parser.error("--mu-points must be at least 2")
    if config.cases < 1:
        parser.error("--cases must be positive")
    # checked here, not by argparse choices=, to keep the 'unknown ...' wording
    if ns.solver not in (None, *DEPRECATED_SOLVERS):
        parser.error(f"unknown solver {ns.solver!r}; expected one of {DEPRECATED_SOLVERS}")
    if config.scale not in SCALES:
        parser.error(f"unknown scale {config.scale!r}; expected one of {SCALES}")
    if not config.estimators:
        parser.error("the estimator list is empty")
    for i, name in enumerate(config.estimators):
        if name not in ESTIMATORS:
            parser.error(f"unknown estimator {name!r}; expected from {ESTIMATORS}")
        if name in config.estimators[:i]:
            parser.error(f"estimator {name!r} is repeated")
    if ns.solver is not None:
        print("warning: --solver is deprecated and ignored; SCAD is fitted by coordinate"
              " descent", file=sys.stderr)
    return config


def _error(message: str) -> int:
    """Print ``error: <message>`` to stderr; returns the failing exit status."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write_figure_files(
    report: RiskReport, out: Path, stem: str, config: RunConfig
) -> list[Path]:
    paths = []
    for side, measure, se_attr in (
        ("left", "rel_median_me", "mc_se"),
        ("right", "rel_mse", "mc_se_rel_mse"),
    ):
        rows = [r for r in report.sorted_rows() if r.estimator != "ls"]
        lines = ["n,gamma,value,mc_se"]
        for r in rows:
            lines.append(
                f"{r.n},{r.gamma!r},{getattr(r, measure)!r},{getattr(r, se_attr)!r}"
            )
        path = out / f"{stem}_{side}.csv"
        write_csv(path, config.seed, config.replications, lines)
        paths.append(path)
    return paths


def _summary_status(report: RiskReport) -> int:
    """Print the worst-case summary; 1 if too many replications failed."""
    label = next((e for e in report.estimator_labels if e != "ls"), None)
    if label is not None:
        print(f"worst-case summary ({label}, rel_median_me):")
        for point in worst_case_curve(report, "rel_median_me", label):
            print(
                f"  n={point.n:<5d} max={point.value:.4f} at gamma={point.gamma:.3f}"
                f" (se={point.mc_se:.4f})"
            )
    if report.flagged:
        return _error("estimator failure rate above 1% in at least one cell")
    return 0


def _execute_setup(config: RunConfig, out: Path) -> int:
    report = run_setup(
        config.setup_id,
        n_list=config.n_list,
        replications=config.replications,
        gamma_points=config.gamma_points,
        master_seed=config.seed,
        extra_estimators=[e for e in config.estimators if e not in ("scad", "ls")],
        threads=config.threads,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    report_path = out / f"setup_{config.setup_id}_report.csv"
    report.to_csv(report_path)
    written = [report_path]
    stem = FIGURE_FOR_SETUP.get(config.setup_id)
    if stem is not None:
        written.extend(_write_figure_files(report, out, stem, config))
    for path in written:
        print(f"wrote {path}")
    return _summary_status(report)


def _execute_sweep(config: RunConfig, out: Path) -> int:
    theta0 = np.asarray(config.theta0 if config.theta0 is not None else THETA0, dtype=float)
    k = theta0.size
    eta = np.asarray(config.eta if config.eta is not None else np.zeros(k), dtype=float)

    if config.design_csv is not None:
        try:
            matrix = np.loadtxt(config.design_csv, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            return _error(f"cannot read design CSV {config.design_csv}: {exc}")
        if matrix.shape[1] != k:
            return _error("design width does not match theta0")
        try:
            designs = [DesignSpec(kind=FIXED_MATRIX, n=matrix.shape[0], k=k,
                                  fixed_matrix=matrix)]
        except ValueError as exc:
            return _error(str(exc))
    else:
        n_list = config.n_list or DEFAULT_N_LIST
        designs = [DesignSpec(kind=GAUSSIAN_AR, n=n, k=k, rho=config.rho) for n in n_list]
    scaled = [name for name in config.estimators if name in NEEDS_SIGMA]
    if scaled and min(d.n for d in designs) <= k:
        return _error(f"{', '.join(scaled)} need every sample size above k = {k}")
    # a Gaussian draw of X'X is a Wishart matrix, full rank only for n >= k
    if min(d.n for d in designs) < k:
        return _error(f"Gaussian designs need every sample size at least k = {k}")
    if k > BIC_MAX_K and "bic" in config.estimators:
        return _error(f"bic needs at most {BIC_MAX_K} coefficients, got k = {k}")

    points = config.gamma_points or DEFAULT_GAMMA_POINTS
    grid = np.linspace(0.0, config.gamma_max, points)
    rule = LambdaRule(scale=config.scale)
    report = RiskReport(master_seed=config.seed, replications=config.replications)
    for design in designs:
        cells = [(design, make_theta(theta0, eta, design.n, gamma), float(gamma),
                  config.estimators, config.replications, config.seed) for gamma in grid]
        for rows in map_cells(run_mc, cells, config.threads, rule=rule, setup="sweep"):
            report.extend(rows)
        print(f"sweep: n={design.n} done ({grid.size} gamma cells)", file=sys.stderr)
    report_path = out / "sweep_report.csv"
    report.to_csv(report_path)
    print(f"wrote {report_path}")
    return _summary_status(report)


def _execute_hodges(config: RunConfig, out: Path) -> int:
    n_list = config.n_list or (100, 10000)
    mu_grid = np.linspace(-config.mu_max, config.mu_max, config.mu_points)
    curve = hodges_risk_curve(n_list, mu_grid, config.replications, config.seed)
    lines = ["n,mu,value"]
    for i, n in enumerate(curve.n_list):
        for j, mu in enumerate(curve.mu_grid):
            lines.append(f"{n},{float(mu)!r},{float(curve.values[i, j])!r}")
    path = out / "hodges_risk.csv"
    write_csv(path, config.seed, config.replications, lines)
    print(f"wrote {path}")
    print("max scaled risk by sample size:")
    for n, peak in zip(curve.n_list, curve.max_per_n()):
        print(f"  n={n:<7d} max n*MSE={peak:.4f}")
    return 0


def _execute_oracle_check(config: RunConfig) -> int:
    result = oracle_check(
        cases_brute=config.cases,
        cases_solver=max(1, config.cases // 2),
        master_seed=config.seed,
    )
    print(f"closed form vs grid search : max deviation {result.brute_force_max_dev:.3e}")
    print(f"coordinate descent vs oracle: max deviation {result.cd_max_dev:.3e}")
    print("oracle check " + ("passed" if result.passed else "FAILED"))
    return 0 if result.passed else 1


def _execute_lower_bound(config: RunConfig, out: Path) -> int:
    n_list = config.n_list or (60, 240, 960)
    s = np.zeros(THETA0.size)
    s[config.s_index - 1] = config.s_scale
    lines = ["n,p_hat,bound,scaled_risk"]
    print(f"all-zero bound for s = {config.s_scale} * e_{config.s_index} "
          f"(limit {config.s_scale ** 2:.1f}):")
    cells = [(s, n, "scad", config.replications, config.seed) for n in n_list]
    for res in map_cells(lower_bound_diagnostic, cells, config.threads):
        lines.append(f"{res.n},{res.p_hat!r},{res.bound!r},{res.scaled_risk!r}")
        print(f"  n={res.n:<5d} p_hat={res.p_hat:.4f} bound={res.bound:.4f} "
              f"scaled_risk={res.scaled_risk:.4f}")
    path = out / "lower_bound.csv"
    write_csv(path, config.seed, config.replications, lines)
    print(f"wrote {path}")
    return 0


def execute(config: RunConfig) -> int:
    """Run the configured command; returns a process exit status."""
    if config.command == "oracle-check":
        return _execute_oracle_check(config)
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("", encoding="utf8")
        probe.unlink()
    except OSError as exc:
        return _error(f"output directory not writable: {exc}")
    if config.command == "setup":
        return _execute_setup(config, out)
    if config.command == "sweep":
        return _execute_sweep(config, out)
    if config.command == "hodges":
        return _execute_hodges(config, out)
    if config.command == "lower-bound":
        return _execute_lower_bound(config, out)
    raise ValueError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    return execute(config)


if __name__ == "__main__":
    raise SystemExit(main())
