"""The benchmark tracer's hooks stay on the engine's call path.

``perfbench/tracer.py`` times each layer by replacing module attributes of
the package. A refactor that moves a call off such an attribute leaves the
benchmark silently blind to that layer, so a small traced CLI run must
record a span under every name the tracer wraps.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from collections import Counter
sys.path.insert(0, {perfbench!r})
from tracer import Tracer, install
from sparse_risk import cli

tracer = Tracer("hooks")
wrapped = []
wrap = tracer.wrap

def recording_wrap(owner, attr, name, observe=None):
    wrapped.append(name)
    wrap(owner, attr, name, observe)

tracer.wrap = recording_wrap
install(tracer)
status = cli.main({argv!r})
print(json.dumps({{
    "status": status,
    "wrapped": sorted(set(wrapped)),
    "recorded": sorted({{span[0] for span in tracer.spans}}),
    "span_counts": Counter(span[0] for span in tracer.spans),
    "counters": dict(tracer.counters),
}}))
"""


def traced_run(argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPARSE_RISK_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(perfbench=str(ROOT / "perfbench"), argv=argv)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0
    return result


def test_every_wrapped_span_is_recorded(tmp_path):
    result = traced_run([
        "setup", "I", "--seed", "3", "--reps", "6", "--n-list", "40",
        "--gamma-points", "2", "--estimators", "scad,ls,hard,bic",
        "--out", str(tmp_path),
    ])
    assert len(result["wrapped"]) >= 18
    missing = set(result["wrapped"]) - set(result["recorded"])
    # the engine draws X'X, X'eps and eps'eps directly, never X and eps, and
    # fits SCAD by coordinate descent only, so the two data samplers and the
    # removed reweighting solver's stub are the only wrapped names it never calls
    assert missing == {
        "datagen.sample_design", "datagen.sample_errors", "estimators.lqa",
    }, sorted(missing)
    assert result["counters"]["gcv_picks"] > 0
    # setup's cells go through experiments.run_mc: one span per (n, gamma)
    assert result["span_counts"]["risk.run_mc"] == 2
    # both gamma cells of the one n share a single draw
    assert result["span_counts"]["risk.draw_grams"] == 1


def test_sweep_cells_pass_the_cli_hook(tmp_path):
    # the name set cannot tell cli.run_mc from experiments.run_mc (both record
    # risk.run_mc), so count the spans of a command that only the first serves
    result = traced_run([
        "sweep", "--seed", "3", "--reps", "6", "--n-list", "40,60",
        "--gamma-points", "2", "--estimators", "ls,hard,bic", "--out", str(tmp_path),
    ])
    assert result["span_counts"]["risk.run_mc"] == 4


def test_sweep_draws_once_per_sample_size(tmp_path):
    # 2 n x 2 gamma cells: the gamma cells of one n reuse that n's draw
    result = traced_run([
        "sweep", "--seed", "4", "--reps", "6", "--n-list", "60,40",
        "--gamma-points", "2", "--estimators", "ls,zero", "--out", str(tmp_path),
    ])
    assert result["span_counts"]["risk.run_mc"] == 4
    assert result["span_counts"]["risk.draw_grams"] == 2
