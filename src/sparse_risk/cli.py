"""Command-line entry point for the risk harness.

Commands: ``setup`` runs one of the named setups I..VI; ``sweep`` runs a
custom local-parameter sweep; ``hodges`` maps the scaled risk of the
thresholded scalar mean; ``oracle-check`` verifies the SCAD solver against the
closed-form scalar minimizer; ``lower-bound`` runs the all-zero-probability
diagnostic against the bounded least-squares benchmark.

An option is declared once, by its ``OPTIONS`` entry, whose ``type`` parses
and checks the value and whose ``default`` fills it in. ``COMMAND_FLAGS``
names the flags each command reads and its default sample sizes;
``parse_config`` checks only what involves more than one option. The config
file is flat ``key = value`` text with ``#`` comments, and each line is the
flag ``--key=value`` (``_`` in the key for ``-``) of the command it is given
to. Flag values override config-file entries, which override defaults. Output
CSVs embed the master seed, replication count, and package version in a header
comment and are byte-identical across reruns and worker counts.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
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
from .tuning import SCALES

FIGURE_FOR_SETUP = {"I": "fig1", "III": "fig2", "IV": "fig3", "V": "fig4", "VI": "fig5"}

# Still accepted, and ignored, because perfbench's setupI-lqa workload passes --solver lqa.
DEPRECATED_SOLVERS = ("lqa", "cd")


def _checked(convert, ok, message):
    """An argparse type: ``convert`` the text and reject a value ``ok`` refuses."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message.format(text))
        return value
    parse.__name__ = convert.__name__  # argparse names it when the text does not convert
    return parse


def _comma_list(convert):
    """Reads ``a,b,...`` as a tuple of ``convert``ed parts; blank parts are skipped."""
    def parse(text):
        return tuple(convert(part) for part in text.split(",") if part.strip())
    parse.__name__ = f"{convert.__name__} list"
    return parse


def _estimator_names(text):
    names = _comma_list(str.strip)(text)
    if not names:
        raise argparse.ArgumentTypeError("the estimator list is empty")
    for i, name in enumerate(names):
        if name not in ESTIMATORS:
            raise argparse.ArgumentTypeError(
                f"unknown estimator {name!r}; expected from {ESTIMATORS}")
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"estimator {name!r} is repeated")
    return names


_COUNT = _checked(int, lambda v: v >= 1, "must be positive")
_AT_LEAST_2 = _checked(int, lambda v: v >= 2, "must be at least 2")
_POSITIVE_FINITE = _checked(float, lambda v: 0 < v < math.inf, "must be positive and finite")
_FINITE_LIST = _checked(_comma_list(float), lambda v: v and all(map(math.isfinite, v)),
                        "must be a nonempty list of finite numbers")
_SAMPLE_SIZES = _checked(_comma_list(int), lambda v: v and min(v) >= 1,
                         "must be a nonempty list of positive sample sizes")

# Every option, declared once; a config-file key is the flag name with "_" for "-".
OPTIONS = {
    "--config": dict(help="flat key = value config file"),
    "--seed": dict(type=_checked(int, lambda v: 0 <= v < 2**64, "must lie in [0, 2**64)"),
                   default=DEFAULT_MASTER_SEED),
    "--solver": dict(
        type=_checked(str, DEPRECATED_SOLVERS.__contains__,
                      f"unknown solver {{!r}}; expected one of {DEPRECATED_SOLVERS}"),
        help=f"deprecated and ignored; one of {DEPRECATED_SOLVERS}"),
    "--setup": dict(dest="setup_id", help="setup id (I..VI)"),
    "--reps": dict(type=_COUNT, dest="replications", default=DEFAULT_REPLICATIONS),
    "--n-list": dict(type=_SAMPLE_SIZES),
    "--n": dict(type=_SAMPLE_SIZES, dest="n_list"),
    "--gamma-points": dict(type=_AT_LEAST_2, default=DEFAULT_GAMMA_POINTS),
    "--threads": dict(type=_COUNT, default=1),
    "--out": dict(dest="output_dir"),
    "--estimators": dict(type=_estimator_names, default=("scad", "ls"),
                         help=f"comma list from {ESTIMATORS}"),
    "--eta": dict(type=_FINITE_LIST),
    "--theta0": dict(type=_FINITE_LIST, default=tuple(THETA0.tolist())),
    "--gamma-max": dict(type=_POSITIVE_FINITE, default=8.0),
    "--scale": dict(
        type=_checked(str, SCALES.__contains__,
                      f"unknown scale {{!r}}; expected one of {tuple(SCALES)}"),
        default="log_ratio", help=f"one of {tuple(SCALES)}"),
    "--rho": dict(type=_checked(float, lambda v: -1 < v < 1, "must lie in (-1, 1)"),
                  default=RHO),
    "--design-csv": dict(),
    "--mu-max": dict(type=_POSITIVE_FINITE, default=1.0),
    "--mu-points": dict(type=_AT_LEAST_2, default=81),
    "--cases": dict(type=_COUNT, default=1000),
    "--s-scale": dict(type=_checked(float, math.isfinite, "must be finite"), default=5.0),
    "--s-index": dict(type=_checked(int, lambda v: 1 <= v <= THETA0.size,
                                    f"must lie in [1, {THETA0.size}]"), default=3),
}

# Each command's help, the flags its _execute_* reads and its default sample sizes.
COMMAND_FLAGS = {
    "setup": ("run a named setup sweep", (
        "--setup", "--reps", "--n-list", "--gamma-points", "--threads", "--out",
        "--estimators"), DEFAULT_N_LIST),
    "sweep": ("run a custom local-parameter sweep", (
        "--reps", "--n-list", "--gamma-points", "--threads", "--out", "--estimators",
        "--eta", "--theta0", "--gamma-max", "--scale", "--rho", "--design-csv"),
        DEFAULT_N_LIST),
    "hodges": ("scaled risk curve of the thresholded mean", (
        "--reps", "--n-list", "--n", "--out", "--mu-max", "--mu-points"), (100, 10000)),
    "oracle-check": ("solver-versus-oracle deviations", ("--cases",), None),
    "lower-bound": ("all-zero-probability lower bound", (
        "--reps", "--n-list", "--threads", "--out", "--s-scale", "--s-index"),
        (60, 240, 960)),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by command name."""
    parser = argparse.ArgumentParser(
        prog="sparse-risk",
        description="Monte Carlo risk harness for sparse estimators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (help_text, flags, n_list) in COMMAND_FLAGS.items():
        # no abbreviations, so a config key names its flag exactly
        p = commands[command] = sub.add_parser(command, help=help_text, allow_abbrev=False)
        if command == "setup":
            p.add_argument("setup_pos", nargs="?", metavar="ID", help="setup id (I..VI)")
        # --n and --n-list set one list, so a command takes at most one of
        # them; argparse cannot format the usage of an empty group
        n_flags = p.add_mutually_exclusive_group() if {"--n", "--n-list"} & set(flags) else None
        for flag in ("--config", "--seed", "--solver", *flags):
            owner = n_flags if flag in ("--n", "--n-list") else p
            # the help names a value after its flag, not after its dest
            owner.add_argument(flag, metavar=flag[2:].replace("-", "_").upper(),
                               **OPTIONS[flag])
        p.set_defaults(n_list=n_list)
    return parser, commands


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


def parse_config(argv) -> argparse.Namespace:
    """Parse flags plus optional config file into the command's checked options:
    ``command``, ``n_list`` and each option it reads, named by its dest. A
    check across options fails as a flag's own check does: the command's
    usage and ``sparse-risk <command>: error:`` on stderr, exit status 2."""
    parser, commands = _build_parser()
    ns = parser.parse_args(argv)
    error = commands[ns.command].error
    if ns.config:
        try:
            file_flags = _read_config_file(ns.config)
        except (OSError, ValueError) as exc:
            error(str(exc))
        # the file's flags go first, so the command line's own flags win
        at = argv.index(ns.command) + 1
        ns = parser.parse_args([*argv[:at], *file_flags, *argv[at:]])
    del ns.config

    if ns.command == "setup":
        setup_pos = vars(ns).pop("setup_pos")
        ns.setup_id = ns.setup_id if setup_pos is None else setup_pos
        if ns.setup_id is None:
            error("setup command needs a setup id (positional or --setup)")
        if ns.setup_id not in SETUPS:
            error(f"unknown setup {ns.setup_id!r}; expected one of {sorted(SETUPS)}")
    if ns.command in ("setup", "lower-bound") and min(ns.n_list) <= THETA0.size:
        error(f"SCAD needs every sample size above k = {THETA0.size}")
    if ns.command == "sweep":
        # the CSV fixes the design; an option no flag set still holds its default object
        for flag, value, default in (("--n-list", ns.n_list, DEFAULT_N_LIST),
                                     ("--rho", ns.rho, RHO)):
            if ns.design_csv is not None and value is not default:
                error(f"{flag} does not apply with --design-csv, whose rows fix the design")
        if ns.eta is not None and len(ns.eta) != len(ns.theta0):
            error(f"--eta has {len(ns.eta)} entries and --theta0 has {len(ns.theta0)}")
    # the variable is a fallback: a directory given by flag or file wins
    if "output_dir" in ns and ns.output_dir is None:
        ns.output_dir = os.environ.get("SPARSE_RISK_OUT") or "out"
    if ns.solver is not None:
        print("warning: --solver is deprecated and ignored; SCAD is fitted by coordinate"
              " descent", file=sys.stderr)
    return ns


def _error(message: str) -> int:
    """Print ``error: <message>`` to stderr; returns the failing exit status."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write_figure_files(
    report: RiskReport, out: Path, stem: str, config: argparse.Namespace
) -> list[Path]:
    # the figures plot SCAD against least squares; they have no estimator column
    rows = [r for r in report.sorted_rows() if r.estimator == "scad"]
    paths = []
    for side, measure, se_attr in (
        ("left", "rel_median_me", "mc_se"),
        ("right", "rel_mse", "mc_se_rel_mse"),
    ):
        lines = ["n,gamma,value,mc_se"]
        for r in rows:
            lines.append(f"{r.n},{r.gamma!r},{getattr(r, measure)!r},{getattr(r, se_attr)!r}")
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


def _execute_setup(config: argparse.Namespace, out: Path) -> int:
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


def _execute_sweep(config: argparse.Namespace, out: Path) -> int:
    theta0 = np.asarray(config.theta0, dtype=float)
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
        designs = [DesignSpec(kind=GAUSSIAN_AR, n=n, k=k, rho=config.rho)
                   for n in config.n_list]
    scaled = [name for name in config.estimators if name in NEEDS_SIGMA]
    if scaled and min(d.n for d in designs) <= k:
        return _error(f"{', '.join(scaled)} need every sample size above k = {k}")
    # a Gaussian draw of X'X is a Wishart matrix, full rank only for n >= k
    if min(d.n for d in designs) < k:
        return _error(f"Gaussian designs need every sample size at least k = {k}")
    if k > BIC_MAX_K and "bic" in config.estimators:
        return _error(f"bic needs at most {BIC_MAX_K} coefficients, got k = {k}")

    grid = np.linspace(0.0, config.gamma_max, config.gamma_points)
    report = RiskReport(master_seed=config.seed, replications=config.replications)
    for design in designs:
        cells = [(design, make_theta(theta0, eta, design.n, gamma), float(gamma),
                  config.estimators, config.replications, config.seed) for gamma in grid]
        for rows in map_cells(run_mc, cells, config.threads, scale=config.scale,
                              setup="sweep"):
            report.extend(rows)
        print(f"sweep: n={design.n} done ({grid.size} gamma cells)", file=sys.stderr)
    report_path = out / "sweep_report.csv"
    report.to_csv(report_path)
    print(f"wrote {report_path}")
    return _summary_status(report)


def _execute_hodges(config: argparse.Namespace, out: Path) -> int:
    mu_grid = np.linspace(-config.mu_max, config.mu_max, config.mu_points)
    curve = hodges_risk_curve(config.n_list, mu_grid, config.replications, config.seed)
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


def _execute_oracle_check(config: argparse.Namespace) -> int:
    result = oracle_check(cases_brute=config.cases, cases_solver=max(1, config.cases // 2),
                          master_seed=config.seed)
    print(f"closed form vs grid search : max deviation {result.brute_force_max_dev:.3e}")
    print(f"coordinate descent vs oracle: max deviation {result.cd_max_dev:.3e}")
    print("oracle check " + ("passed" if result.passed else "FAILED"))
    return 0 if result.passed else 1


def _execute_lower_bound(config: argparse.Namespace, out: Path) -> int:
    s = np.zeros(THETA0.size)
    s[config.s_index - 1] = config.s_scale
    lines = ["n,p_hat,bound,scaled_risk"]
    print(f"all-zero bound for s = {config.s_scale} * e_{config.s_index} "
          f"(limit {config.s_scale ** 2:.1f}):")
    cells = [(s, n, "scad", config.replications, config.seed) for n in config.n_list]
    for res in map_cells(lower_bound_diagnostic, cells, config.threads):
        lines.append(f"{res.n},{res.p_hat!r},{res.bound!r},{res.scaled_risk!r}")
        print(f"  n={res.n:<5d} p_hat={res.p_hat:.4f} bound={res.bound:.4f} "
              f"scaled_risk={res.scaled_risk:.4f}")
    path = out / "lower_bound.csv"
    write_csv(path, config.seed, config.replications, lines)
    print(f"wrote {path}")
    return 0


# oracle-check writes no file, so it is run before the output directory is probed
_EXECUTORS = {"setup": _execute_setup, "sweep": _execute_sweep, "hodges": _execute_hodges,
              "lower-bound": _execute_lower_bound}


def execute(config: argparse.Namespace) -> int:
    """Run the parsed command; returns a process exit status."""
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
    return _EXECUTORS[config.command](config, out)


def main(argv=None) -> int:
    return execute(parse_config(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    raise SystemExit(main())
