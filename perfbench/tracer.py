"""In-memory span recorder that wraps the package's module attributes.

The engine calls its layers through module globals (``risk._draw_grams``,
``tuning._lqa_batch``, ...), so replacing those attributes from outside the
package is enough to time each call without editing the package. Each span
is ``(name, start, end, parent)`` with ``parent`` the index of the enclosing
span (-1 for the root); the layer is the part of the name before the first
dot. Counters are taken from the values the wrapped kernels already return.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np


class Tracer:
    """Spans and counters of one CLI invocation, kept in memory until written."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.iter_hist = {"lqa": Counter(), "cd": Counter()}

    def open(self, name: str, start: float) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, start, None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, end: float) -> None:
        self.stack.pop()
        self.spans[idx][2] = end

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a version that records a span per call.

        ``observe(tracer, args, result)`` runs after the span closes, so its
        cost lands in the caller's self time, never in the wrapped layer.
        """
        fn = getattr(owner, attr)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx, clock())
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf8") as fh:
            json.dump(
                {
                    "trace_id": self.trace_id,
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "iter_hist": {
                        k: {str(i): c for i, c in sorted(h.items())}
                        for k, h in self.iter_hist.items()
                    },
                },
                fh,
            )


def _observe_solver(kind: str):
    def observe(tracer: Tracer, args, result) -> None:
        _, iterations, converged = result
        tracer.iter_hist[kind].update(iterations.tolist())
        tracer.counters[f"{kind}_unconverged"] += int((~converged).sum())

    return observe


def _observe_gcv(tracer: Tracer, args, result) -> None:
    grids = args[4]
    lam = result[1]
    tracer.counters["gcv_picks"] += int(lam.size)
    tracer.counters["gcv_smallest_picks"] += int((lam == grids[:, 0]).sum())


def _observe_draw(tracer: Tracer, args, result) -> None:
    tracer.counters["bytes_drawn"] += int(result.nbytes)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the engine looks up by module attribute.

    Span names are ``<layer>.<call>`` where the layer is the module whose
    code runs inside the span, not the module that looks it up.
    """
    from sparse_risk import cli, estimators, experiments, risk, tuning

    tracer.wrap(cli, "run_setup", "experiments.run_setup")
    tracer.wrap(cli, "worst_case_curve", "experiments.worst_case_curve")
    tracer.wrap(cli, "run_mc", "risk.run_mc")
    tracer.wrap(experiments, "run_mc", "risk.run_mc")
    tracer.wrap(risk, "_draw_grams", "risk.draw_grams")
    tracer.wrap(risk, "sample_design", "datagen.sample_design", _observe_draw)
    tracer.wrap(risk, "sample_errors", "datagen.sample_errors", _observe_draw)
    tracer.wrap(risk, "solve_vec", "estimators.ls_solve")
    tracer.wrap(risk, "_fit_block", "risk.fit_block")
    tracer.wrap(risk, "_bootstrap_se", "risk.bootstrap")
    tracer.wrap(risk, "_bootstrap_se_ratio", "risk.bootstrap")
    tracer.wrap(risk.RiskReport, "to_csv", "risk.to_csv")
    tracer.wrap(risk, "_scad_gcv_batch", "tuning.scad_gcv", _observe_gcv)
    tracer.wrap(risk, "_bic_batch", "estimators.bic")
    tracer.wrap(tuning, "_lqa_batch", "estimators.lqa", _observe_solver("lqa"))
    tracer.wrap(tuning, "_cd_batch", "estimators.cd", _observe_solver("cd"))
    tracer.wrap(tuning, "_gcv_df_batch", "tuning.gcv_df")
    tracer.wrap(tuning, "_masked_ridge_matrix", "estimators.masked_ridge_matrix")
    tracer.wrap(tuning, "_derivative_raw", "penalties.derivative")
    tracer.wrap(estimators, "_derivative_raw", "penalties.derivative")
    tracer.wrap(estimators, "scad_univariate_min_weighted", "penalties.univariate_min")


# ---------------------------------------------------------------------------
# Analysis of written span files
# ---------------------------------------------------------------------------

def self_times(spans) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.array([end - start for _, start, end, _ in spans])
    own = dur.copy()
    parents = np.array([p for *_, p in spans])
    has_parent = parents >= 0
    np.subtract.at(own, parents[has_parent], dur[has_parent])
    return own


def summarize(spans) -> dict:
    """Total and self seconds per span name and self seconds per layer."""
    own = self_times(spans)
    by_name: dict = {}
    by_layer: Counter = Counter()
    for (name, start, end, _), self_s in zip(spans, own):
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += float(self_s)
        by_layer[name.split(".", 1)[0]] += float(self_s)
    return {"by_name": by_name, "by_layer": dict(by_layer)}
