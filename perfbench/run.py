"""Benchmark of the sparse-risk Monte Carlo harness: seconds per cell.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record-reference

Run from the root of a checkout. A workload is two CLI invocations, one at a
small and one at a large sample size, each in a fresh interpreter with one
BLAS thread (README.md in this directory says why each workload exists).
With ``--trace 0`` the two alternate, untraced, for about S seconds and the
end-to-end metrics are medians over the invocations. With ``--trace 1``
pairs of an untraced and a traced pass of the same seed run for about S
seconds, then one untraced pass at the reference seed; the per-layer metrics
are medians over the pairs. Every invocation's output is checked. The last
line of standard output is one JSON object with the result; a record of the
run, with the machine, every sample and the iteration histograms, is written
under ``perfbench/out``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE_FILE = BENCH / "reference_digests.json"

REPS = 500
REFERENCE_SEED = 20070301
# A run must end within 180 s, so no invocation may outlast this.
RUN_LIMIT_S = 170.0
STARTED = time.perf_counter()
REPORT_COLUMNS = (
    "setup,n,gamma,estimator,rel_median_me,rel_mse,sparsity_rate,mc_se,R,seed"
)


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]
    small_n: int
    large_n: int
    gamma_max: float
    gamma_points: int
    estimators: tuple[str, ...]
    report: str

    def cli_args(self, n: int, seed: int, out_dir: Path) -> list[str]:
        return [
            *self.command, "--seed", str(seed), "--reps", str(REPS),
            "--threads", "1", "--n-list", str(n), "--out", str(out_dir),
        ]

    def expected_rows(self, n: int) -> set:
        grid = np.linspace(0.0, self.gamma_max, self.gamma_points)
        return {(n, float(g), e) for g in grid for e in self.estimators}


# README.md in this directory says why each workload exists.
WORKLOADS = {
    "setupI-lqa": Workload(
        ("setup", "I", "--solver", "lqa", "--gamma-points", "5"),
        60, 960, 8.0, 5, ("scad", "ls"), "setup_I_report.csv",
    ),
    "setupI-cd": Workload(
        ("setup", "I", "--solver", "cd", "--gamma-points", "5"),
        60, 960, 8.0, 5, ("scad", "ls"), "setup_I_report.csv",
    ),
    "select-largen": Workload(
        (
            "sweep", "--estimators", "ls,hard,bic", "--eta", "0,0,1,1,0,1,1,1",
            "--gamma-max", "8", "--gamma-points", "3",
        ),
        960, 15360, 8.0, 3, ("ls", "hard", "bic"), "sweep_report.csv",
    ),
}

# Fixed for the program so that results do not depend on the caller's shell.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "OPENBLAS_", "OMP_", "MKL_", "SPARSE_RISK_"))
    }
    env.update(FIXED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ---------------------------------------------------------------------------
# One invocation and its output checks
# ---------------------------------------------------------------------------

def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_report(workload: Workload, n: int, seed: int, path: Path) -> list[str]:
    """Header, one row per (n, gamma, estimator), finite values, ls rows at 1."""
    if not path.exists():
        return [f"missing {path.name}"]
    lines = path.read_text(encoding="utf8").splitlines()
    problems = []
    if not lines[0].startswith(f"# master_seed={seed} replications={REPS} "):
        problems.append(f"bad header {lines[0]!r}")
    if lines[1:2] != [REPORT_COLUMNS]:
        problems.append("bad column line")
    keys: Counter = Counter()
    for line in lines[2:]:
        fields = line.split(",")
        if len(fields) != 10:
            problems.append(f"bad row {line!r}")
            continue
        keys[(int(fields[1]), float(fields[2]), fields[3])] += 1
        values = fields[4:8]
        if not all(_finite(v) for v in values):
            problems.append(f"non-finite value in {line!r}")
        if fields[3] == "ls" and not (float(values[0]) == float(values[1]) == 1.0):
            problems.append(f"ls row not exactly 1: {line!r}")
        if fields[8:] != [str(REPS), str(seed)]:
            problems.append(f"bad R or seed in {line!r}")
    if set(keys) != workload.expected_rows(n) or any(c != 1 for c in keys.values()):
        problems.append("rows are not exactly one per (n, gamma, estimator)")
    return problems


def check_figure(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf8").splitlines()
    bad = [ln for ln in lines[2:] if not all(_finite(v) for v in ln.split(","))]
    return [f"non-finite value in {path.name}: {ln!r}" for ln in bad[:3]]


def invoke(workload: Workload, size: str, seed: int, tag: str, traced: bool) -> dict:
    """Run one CLI invocation in a fresh interpreter; time, check and digest it."""
    n = workload.small_n if size == "small" else workload.large_n
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    cli_dir = run_dir / "cli"
    cli_dir.mkdir(parents=True)
    result_path = run_dir / "child.json"
    spans_path = run_dir / "spans.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path)]
    if traced:
        cmd += ["--trace", str(spans_path)]
    cmd += ["--", *workload.cli_args(n, seed, cli_dir)]

    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - STARTED)),
        )
        status, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        status, stderr = None, "timed out"
    wall = time.perf_counter() - start

    child = json.loads(result_path.read_text()) if result_path.exists() else None
    problems = []
    if status != 0 or child is None:
        problems.append(f"exit status {status}: {stderr.strip()[-400:]}")
    elif Path(child["package"]).parent != ROOT / "src":
        problems.append(f"imported the package from {child['package']}")
    else:
        problems += check_report(workload, n, seed, cli_dir / workload.report)
        for path in sorted(cli_dir.glob("*.csv")):
            if path.name != workload.report:
                problems += check_figure(path)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(cli_dir.glob("*.csv"))
    }
    cells = workload.gamma_points
    fits = cells * len(workload.estimators) * REPS
    return {
        "size": size,
        "n": n,
        "seed": seed,
        "traced": traced,
        "wall_s": wall,
        "sec_per_cell": wall / cells,
        "setup_s": child["setup_s"] if child else None,
        "peak_rss_mb": child["peak_rss_mb"] if child else None,
        "blas_threads": child["blas_threads"] if child else None,
        "fits": fits,
        "failed_fits": fits if problems else child["failures"],
        "problems": problems,
        "digests": digests,
        "spans": str(spans_path) if traced and spans_path.exists() else None,
    }


def run_pass(workload: Workload, name: str, seed: int, label: str, traced: bool) -> list[dict]:
    return [
        invoke(workload, size, seed, f"{name}-seed{seed}-{label}-{size}", traced)
        for size in ("small", "large")
    ]


def measure(workload: Workload, name: str, seed: int, deadline: float) -> list[dict]:
    """Untraced invocations, alternating sizes, until the next would overrun.

    At least one of each size runs; the last duration of a size predicts the
    next one.
    """
    samples: list[dict] = []
    last = {}
    while True:
        count = Counter(s["size"] for s in samples)
        size = "small" if count["small"] <= count["large"] else "large"
        if size in last and time.perf_counter() + last[size] > deadline:
            return samples
        sample = invoke(workload, size, seed, f"{name}-seed{seed}-{len(samples)}-{size}", False)
        samples.append(sample)
        last[size] = sample["wall_s"]


def measure_traced(workload: Workload, name: str, seed: int, deadline: float) -> list:
    """Pairs of an untraced and a traced pass of one seed, until the next would overrun."""
    pairs: list = []
    while True:
        started = time.perf_counter()
        untraced = run_pass(workload, name, seed, f"pair{len(pairs)}-untraced", False)
        traced = run_pass(workload, name, seed, f"pair{len(pairs)}-traced", True)
        for t, u in zip(traced, untraced):
            if t["digests"] != u["digests"]:
                t["problems"].append("tracing changed the output bytes")
                t["failed_fits"] = t["fits"]
        pairs.append((untraced, traced))
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            return pairs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(samples: list[dict]) -> dict:
    fits = sum(s["fits"] for s in samples)
    failed = sum(s["failed_fits"] for s in samples)

    def per_cell(size):
        return statistics.median(s["sec_per_cell"] for s in samples if s["size"] == size)

    return {
        "setup_s": metric(statistics.median(s["setup_s"] for s in samples), "s"),
        "sec_per_cell.small_n": metric(per_cell("small"), "s"),
        "sec_per_cell.large_n": metric(per_cell("large"), "s"),
        "peak_rss_mb": metric(max(s["peak_rss_mb"] for s in samples), "MB"),
        "fits_ok_frac": metric(1.0 - failed / fits, "frac"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans and counters of one traced pass."""
    by_name: dict = {}
    by_layer: Counter = Counter()
    counters: Counter = Counter()
    hist = {"lqa": Counter(), "cd": Counter()}
    cells_large: list[float] = []
    span_count = 0
    for sample in traced:
        data = json.loads(Path(sample["spans"]).read_text())
        spans = data["spans"]
        span_count += len(spans)
        summary = summarize(spans)
        by_layer.update(summary["by_layer"])
        for name, entry in summary["by_name"].items():
            agg = by_name.setdefault(name, Counter())
            agg.update(entry)
        counters.update(data["counters"])
        for kind, h in data["iter_hist"].items():
            hist[kind].update({int(i): c for i, c in h.items()})
        if sample["size"] == "large":
            cells_large += [end - start for name, start, end, _ in spans if name == "risk.run_mc"]

    def total(*names):
        return sum(by_name.get(n, {}).get("total_s", 0.0) for n in names)

    def own(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    fits = {kind: sum(h.values()) for kind, h in hist.items()}
    iters_mean = {kind: _ratio(sum(i * c for i, c in h.items()), fits[kind]) for kind, h in hist.items()}
    traced_wall = sum(s["wall_s"] for s in traced)
    untraced_wall = sum(s["wall_s"] for s in untraced)
    layers = ("cli", "experiments", "risk", "datagen", "tuning", "estimators", "penalties")
    m = {f"{layer}.self_s": metric(by_layer.get(layer, 0.0), "s") for layer in layers}
    m.update({
        "estimators.lqa_s": metric(total("estimators.lqa"), "s"),
        "estimators.lqa_iters_mean": metric(iters_mean["lqa"], "iters"),
        "estimators.lqa_iters_max": metric(max(hist["lqa"], default=0), "iters"),
        "estimators.lqa_unconverged_frac": metric(
            _ratio(counters["lqa_unconverged"], fits["lqa"]), "frac"),
        "estimators.cd_s": metric(total("estimators.cd"), "s"),
        "estimators.cd_iters_mean": metric(iters_mean["cd"], "iters"),
        "estimators.cd_iters_max": metric(max(hist["cd"], default=0), "iters"),
        "estimators.cd_unconverged_frac": metric(
            _ratio(counters["cd_unconverged"], fits["cd"]), "frac"),
        "penalties.univariate_min_s": metric(total("penalties.univariate_min"), "s"),
        "penalties.univariate_min_calls": metric(
            by_name.get("penalties.univariate_min", {}).get("calls", 0), "count"),
        "datagen.draw_s": metric(total("datagen.sample_design", "datagen.sample_errors"), "s"),
        "risk.draw_grams_self_s": metric(own("risk.draw_grams"), "s"),
        "datagen.bytes_drawn": metric(counters["bytes_drawn"], "bytes_computed"),
        "estimators.bic_s": metric(total("estimators.bic"), "s"),
        "tuning.gcv_self_s": metric(own("tuning.scad_gcv"), "s"),
        "tuning.gcv_df_s": metric(total("tuning.gcv_df"), "s"),
        "tuning.fits": metric(fits["lqa"] + fits["cd"], "count"),
        "tuning.smallest_lambda_share": metric(
            _ratio(counters["gcv_smallest_picks"], counters["gcv_picks"]), "frac"),
        "estimators.ls_solve_s": metric(total("estimators.ls_solve"), "s"),
        "risk.bootstrap_s": metric(total("risk.bootstrap"), "s"),
        "risk.run_mc_self_s": metric(own("risk.run_mc"), "s"),
        "risk.to_csv_s": metric(total("risk.to_csv"), "s"),
        "risk.cell_s_p50": metric(statistics.median(cells_large), "s"),
        "risk.cell_s_max": metric(max(cells_large), "s"),
        "trace.overhead_frac": metric(traced_wall / untraced_wall, "ratio"),
        "trace.accounted_frac": metric(sum(by_layer.values()) / traced_wall, "frac"),
        "trace.spans": metric(span_count, "count"),
    })
    detail = {
        "by_name": {k: dict(v) for k, v in sorted(by_name.items())},
        "iter_hist": {k: dict(sorted(h.items())) for k, h in hist.items()},
        "counters": dict(counters),
    }
    return m, detail


# ---------------------------------------------------------------------------
# Machine record and reference digests
# ---------------------------------------------------------------------------

def machine_record(samples: list[dict]) -> dict:
    config = getattr(np, "__config__", None)
    deps = getattr(config, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": sorted({s["blas_threads"] for s in samples}, key=str),
        "env": FIXED_ENV,
    }


def load_reference(name: str) -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    data = json.loads(REFERENCE_FILE.read_text())
    if data.get("seed") != REFERENCE_SEED:
        return {}
    return data["workloads"].get(name, {})


def digest_changes(reference: dict, samples: list[dict]) -> int:
    changed = 0
    for sample in samples:
        expected = reference.get(sample["size"], {})
        changed += sum(
            1 for file, digest in sample["digests"].items() if expected.get(file) != digest
        )
    return changed


def record_reference(name: str) -> int:
    samples = run_pass(WORKLOADS[name], name, REFERENCE_SEED, "reference", False)
    for s in samples:
        if s["problems"]:
            print(f"error: {s['problems']}", file=sys.stderr)
            return 1
    data = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    data["seed"] = REFERENCE_SEED
    data.setdefault("workloads", {})[name] = {s["size"]: s["digests"] for s in samples}
    data["workloads"] = dict(sorted(data["workloads"].items()))
    REFERENCE_FILE.write_text(json.dumps(data, indent=2) + "\n")
    print(f"recorded {name} at seed {REFERENCE_SEED}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help=f"store the output digests of this workload at seed {REFERENCE_SEED}",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a nonnegative 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "sparse_risk" / "cli.py").is_file():
        print(f"error: no sparse_risk package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference(args.workload)

    workload = WORKLOADS[args.workload]
    name, seed = args.workload, args.seed
    deadline = time.perf_counter() + args.seconds
    record: dict = {"workload": name, "seed": seed, "trace": args.trace}
    if args.trace == 0:
        samples = measure(workload, name, seed, deadline)
    else:
        pairs = measure_traced(workload, name, seed, deadline)
        samples = [s for pair in pairs for p in pair for s in p]
        if seed == REFERENCE_SEED:
            reference_pass = pairs[0][0]
        else:
            reference_pass = run_pass(workload, name, REFERENCE_SEED, "reference", False)
            samples += reference_pass

    problems = [p for s in samples for p in s["problems"]]
    if any(s["setup_s"] is None for s in samples):
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 1

    if args.trace == 0:
        metrics = end_to_end_metrics(samples)
    else:
        per_pair = [per_layer_metrics(u, t) for u, t in pairs]
        metrics = {
            key: metric(statistics.median(m[key]["value"] for m, _ in per_pair), first["unit"])
            for key, first in per_pair[0][0].items()
        }
        metrics["output.digest_changed"] = metric(
            digest_changes(load_reference(name), reference_pass), "count"
        )
        record["trace_detail"] = [detail for _, detail in per_pair]

    record.update(machine=machine_record(samples), samples=samples, metrics=metrics)
    (OUT / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for p in problems:
        print(f"output check failed: {p}", file=sys.stderr)
    print("machine: " + json.dumps(record["machine"]))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(s["fits"] for s in samples),
        "failed": sum(s["failed_fits"] for s in samples),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
