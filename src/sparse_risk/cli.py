"""Command-line entry point for the risk harness.

Commands: ``setup`` runs one of the named setups I..VI; ``sweep`` runs a
custom local-parameter sweep; ``hodges`` maps the scaled risk of the
thresholded scalar mean; ``oracle-check`` verifies the solvers against the
closed-form scalar minimizer; ``lower-bound`` runs the all-zero-probability
diagnostic against the bounded least-squares benchmark.

Flag values override config-file entries, which override defaults. The config
file is flat ``key = value`` text with ``#`` comments. Output CSVs embed the
master seed, replication count, and package version in a header comment and
are byte-identical across reruns and worker counts.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import FIXED_MATRIX, GAUSSIAN_AR, DesignSpec, ParameterPath
from .estimators import EstimatorConfig
from .experiments import (
    DEFAULT_MASTER_SEED,
    SETUPS,
    THETA0,
    hodges_risk_curve,
    lower_bound_diagnostic,
    oracle_check,
    run_setup,
    scad_config,
    worst_case_curve,
)
from .risk import RiskReport, csv_header, map_cells, run_mc
from .tuning import DEFAULT_DELTAS, LambdaRule, SCALES

COMMANDS = ("setup", "sweep", "hodges", "oracle-check", "lower-bound")

FIGURE_FOR_SETUP = {"I": "fig1", "III": "fig2", "IV": "fig3", "V": "fig4", "VI": "fig5"}

ESTIMATOR_NAMES = ("scad", "scad_cd", "ls", "hard", "bic", "zero")


@dataclass
class RunConfig:
    command: str
    setup_id: str | None = None
    seed: int = DEFAULT_MASTER_SEED
    replications: int = 500
    n_list: tuple[int, ...] | None = None
    gamma_points: int | None = None
    threads: int = 1
    output_dir: str = "out"
    estimators: tuple[str, ...] = ("scad", "ls")
    solver: str = "lqa"
    scale: str = "log_ratio"
    eta: tuple[float, ...] | None = None
    theta0: tuple[float, ...] | None = None
    gamma_max: float = 8.0
    rho: float = 0.5
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-risk",
        description="Monte Carlo risk harness for sparse estimators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--setup", dest="setup_id", help="setup id (I..VI)")
        p.add_argument("--seed", type=int)
        p.add_argument("--reps", type=int, dest="replications")
        p.add_argument("--n-list", type=_parse_int_list, dest="n_list")
        p.add_argument("--gamma-points", type=int, dest="gamma_points")
        p.add_argument("--threads", type=int)
        p.add_argument("--out", dest="output_dir")
        p.add_argument(
            "--estimators", type=_parse_name_list,
            help=f"comma list from {ESTIMATOR_NAMES}",
        )
        p.add_argument("--solver", choices=("lqa", "cd"))

    p_setup = sub.add_parser("setup", help="run a named setup sweep")
    p_setup.add_argument("setup_pos", nargs="?", metavar="ID", help="setup id (I..VI)")
    add_common(p_setup)

    p_sweep = sub.add_parser("sweep", help="run a custom local-parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--eta", type=_parse_float_list)
    p_sweep.add_argument("--theta0", type=_parse_float_list)
    p_sweep.add_argument("--gamma-max", type=float, dest="gamma_max")
    p_sweep.add_argument("--scale", choices=SCALES)
    p_sweep.add_argument("--rho", type=float)
    p_sweep.add_argument("--design-csv", dest="design_csv")

    p_hodges = sub.add_parser("hodges", help="scaled risk curve of the thresholded mean")
    add_common(p_hodges)
    p_hodges.add_argument("--n", type=_parse_int_list, dest="n_list")
    p_hodges.add_argument("--mu-max", type=float, dest="mu_max")
    p_hodges.add_argument("--mu-points", type=int, dest="mu_points")

    p_oracle = sub.add_parser("oracle-check", help="solver-versus-oracle deviations")
    add_common(p_oracle)
    p_oracle.add_argument("--cases", type=int)

    p_lb = sub.add_parser("lower-bound", help="all-zero-probability lower bound")
    add_common(p_lb)
    p_lb.add_argument("--s-scale", type=float, dest="s_scale")
    p_lb.add_argument("--s-index", type=int, dest="s_index")

    return parser


def _read_config_file(path: str) -> dict:
    values: dict = {}
    text = Path(path).read_text(encoding="utf8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values

_FILE_PARSERS = {
    "setup": ("setup_id", str),
    "seed": ("seed", int),
    "reps": ("replications", int),
    "n_list": ("n_list", _parse_int_list),
    "gamma_points": ("gamma_points", int),
    "threads": ("threads", int),
    "out": ("output_dir", str),
    "estimators": ("estimators", _parse_name_list),
    "solver": ("solver", str),
    "scale": ("scale", str),
    "eta": ("eta", _parse_float_list),
    "theta0": ("theta0", _parse_float_list),
    "gamma_max": ("gamma_max", float),
    "rho": ("rho", float),
    "design_csv": ("design_csv", str),
    "mu_max": ("mu_max", float),
    "mu_points": ("mu_points", int),
    "s_scale": ("s_scale", float),
    "s_index": ("s_index", int),
    "cases": ("cases", int),
}


def parse_config(argv) -> RunConfig:
    """Parse flags plus optional config file into a validated RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    config = RunConfig(command=ns.command)
    field_names = {f.name for f in fields(RunConfig)}

    if getattr(ns, "config", None):
        try:
            raw = _read_config_file(ns.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        for key, value in raw.items():
            if key not in _FILE_PARSERS:
                parser.error(f"unknown config key {key!r}")
            name, cast = _FILE_PARSERS[key]
            try:
                setattr(config, name, cast(value))
            except ValueError as exc:
                parser.error(f"bad value for {key!r}: {exc}")

    for name in field_names:
        value = getattr(ns, name, None)
        if value is not None and name != "command":
            setattr(config, name, value)
    if getattr(ns, "setup_pos", None) is not None:
        config.setup_id = ns.setup_pos

    if config.output_dir == "out" and os.environ.get("SPARSE_RISK_OUT"):
        config.output_dir = os.environ["SPARSE_RISK_OUT"]

    if config.command == "setup":
        if config.setup_id is None:
            parser.error("setup command needs a setup id (positional or --setup)")
        if config.setup_id not in SETUPS:
            parser.error(
                f"unknown setup {config.setup_id!r}; expected one of {sorted(SETUPS)}"
            )
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
    if config.gamma_points is not None and config.gamma_points < 2:
        parser.error("--gamma-points must be at least 2")
    if config.solver not in ("lqa", "cd"):
        parser.error(f"unknown solver {config.solver!r}; expected 'lqa' or 'cd'")
    if config.scale not in SCALES:
        parser.error(f"unknown scale {config.scale!r}; expected one of {SCALES}")
    for name in config.estimators:
        if name not in ESTIMATOR_NAMES:
            parser.error(f"unknown estimator {name!r}; expected from {ESTIMATOR_NAMES}")
    return config


def _estimator_configs(config: RunConfig, rule: LambdaRule) -> list[EstimatorConfig]:
    out = []
    for name in config.estimators:
        if name == "scad":
            out.append(scad_config(rule, solver=config.solver))
        elif name == "scad_cd":
            out.append(
                EstimatorConfig(kind="scad", label="scad_cd", solver="cd", lambda_rule=rule)
            )
        elif name == "ls":
            out.append(EstimatorConfig(kind="ls"))
        elif name == "hard":
            out.append(EstimatorConfig(kind="hard_threshold", label="hard"))
        elif name == "bic":
            out.append(EstimatorConfig(kind="bic"))
        elif name == "zero":
            out.append(EstimatorConfig(kind="zero"))
    return out


def _write_lines(path: Path, header: str, lines) -> None:
    with open(path, "w", encoding="utf8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


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
        _write_lines(path, csv_header(config.seed, config.replications), lines)
        paths.append(path)
    return paths


def _print_summary(report: RiskReport) -> None:
    label = next((e for e in report.estimator_labels if e != "ls"), None)
    if label is None:
        return
    print(f"worst-case summary ({label}, rel_median_me):")
    for point in worst_case_curve(report, "rel_median_me", label):
        print(
            f"  n={point.n:<5d} max={point.value:.4f} at gamma={point.gamma:.3f}"
            f" (se={point.mc_se:.4f})"
        )


def _execute_setup(config: RunConfig, out: Path) -> int:
    report = run_setup(
        config.setup_id,
        n_list=config.n_list,
        replications=config.replications,
        gamma_points=config.gamma_points,
        master_seed=config.seed,
        solver=config.solver,
        extra_estimators=[
            c for c in _estimator_configs(config, SETUPS[config.setup_id].lambda_rule())
            if c.label not in ("scad", "ls")
        ],
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
    _print_summary(report)
    if report.flagged:
        print("error: estimator failure rate above 1% in at least one cell", file=sys.stderr)
        return 1
    return 0


def _execute_sweep(config: RunConfig, out: Path) -> int:
    theta0 = np.asarray(config.theta0 if config.theta0 is not None else THETA0, dtype=float)
    k = theta0.size
    eta = np.asarray(config.eta if config.eta is not None else np.zeros(k), dtype=float)
    if eta.size != k:
        print("error: eta and theta0 lengths differ", file=sys.stderr)
        return 1
    rule = LambdaRule(DEFAULT_DELTAS, config.scale)
    configs = _estimator_configs(config, rule)

    if config.design_csv is not None:
        matrix = np.loadtxt(config.design_csv, delimiter=",", ndmin=2)
        if matrix.shape[1] != k:
            print("error: design width does not match theta0", file=sys.stderr)
            return 1
        try:
            designs = [DesignSpec(kind=FIXED_MATRIX, n=matrix.shape[0], k=k,
                                  fixed_matrix=matrix)]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        n_list = config.n_list or (60, 120, 240, 480, 960)
        designs = [DesignSpec(kind=GAUSSIAN_AR, n=n, k=k, rho=config.rho) for n in n_list]
    # SCAD's grid and the hard threshold scale with the error estimate, which
    # needs n > k
    scaled = [c.label for c in configs if c.kind in ("scad", "hard_threshold")]
    if scaled and min(d.n for d in designs) <= k:
        print(f"error: {', '.join(scaled)} need every sample size above k = {k}",
              file=sys.stderr)
        return 1
    # a Gaussian draw of X'X is a Wishart matrix, full rank only for n >= k
    if min(d.n for d in designs) < k:
        print(f"error: Gaussian designs need every sample size at least k = {k}",
              file=sys.stderr)
        return 1

    points = config.gamma_points or 101
    grid = np.linspace(0.0, config.gamma_max, points)
    report = RiskReport(master_seed=config.seed, replications=config.replications)
    for design in designs:
        path = ParameterPath(theta0=theta0, eta=eta, gamma_grid=grid, n=design.n)
        cells = [(design, path, float(gamma), configs, config.replications, config.seed)
                 for gamma in grid]
        for rows in map_cells(run_mc, cells, config.threads, setup="sweep"):
            report.extend(rows)
        print(f"sweep: n={design.n} done ({grid.size} gamma cells)", file=sys.stderr)
    report_path = out / "sweep_report.csv"
    report.to_csv(report_path)
    print(f"wrote {report_path}")
    _print_summary(report)
    if report.flagged:
        print("error: estimator failure rate above 1% in at least one cell", file=sys.stderr)
        return 1
    return 0


def _execute_hodges(config: RunConfig, out: Path) -> int:
    n_list = config.n_list or (100, 10000)
    mu_grid = np.linspace(-config.mu_max, config.mu_max, config.mu_points)
    curve = hodges_risk_curve(n_list, mu_grid, config.replications, config.seed)
    lines = ["n,mu,value"]
    for i, n in enumerate(curve.n_list):
        for j, mu in enumerate(curve.mu_grid):
            lines.append(f"{n},{mu!r},{curve.values[i, j]!r}")
    path = out / "hodges_risk.csv"
    _write_lines(path, csv_header(config.seed, config.replications), lines)
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
    print(f"reweighting solver vs oracle: max deviation {result.lqa_max_dev:.3e}")
    print(f"coordinate descent vs oracle: max deviation {result.cd_max_dev:.3e}")
    print("oracle check " + ("passed" if result.passed else "FAILED"))
    return 0 if result.passed else 1


def _execute_lower_bound(config: RunConfig, out: Path) -> int:
    n_list = config.n_list or (60, 240, 960)
    s = np.zeros(THETA0.size)
    if not 1 <= config.s_index <= s.size:
        print("error: --s-index out of range", file=sys.stderr)
        return 1
    s[config.s_index - 1] = config.s_scale
    rule = LambdaRule(DEFAULT_DELTAS, "log_ratio")
    estimator = scad_config(rule, solver=config.solver)
    lines = ["n,p_hat,bound,scaled_risk"]
    print(f"all-zero bound for s = {config.s_scale} * e_{config.s_index} "
          f"(limit {config.s_scale ** 2:.1f}):")
    cells = [(s, n, estimator, config.replications, config.seed) for n in n_list]
    for res in map_cells(lower_bound_diagnostic, cells, config.threads):
        lines.append(f"{res.n},{res.p_hat!r},{res.bound!r},{res.scaled_risk!r}")
        print(f"  n={res.n:<5d} p_hat={res.p_hat:.4f} bound={res.bound:.4f} "
              f"scaled_risk={res.scaled_risk:.4f}")
    path = out / "lower_bound.csv"
    _write_lines(path, csv_header(config.seed, config.replications), lines)
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
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 1
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
