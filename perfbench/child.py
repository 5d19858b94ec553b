"""Run one sparse-risk CLI invocation and write its own measurements as JSON.

    python3 child.py RESULT_JSON [--trace SPANS_JSON] -- <sparse-risk arguments>

The package is imported from ``PYTHONPATH``, which the benchmark points at the
checkout's ``src``. ``setup_s`` covers the package import and argument
parsing. With ``--trace`` the layer
boundaries are wrapped and the spans are written to SPANS_JSON at exit.
"""
from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time

_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    result_path, rest = argv[0], argv[1:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: child.py RESULT_JSON [--trace SPANS_JSON] -- ARGS...")
    cli_args = rest[1:]

    t0 = time.perf_counter()
    from sparse_risk import cli, risk

    config = cli.parse_config(cli_args)
    t1 = time.perf_counter()

    # Failure counts live on RiskRow objects and never reach the CSV, so the
    # report is read once as it is written.
    failures = []
    write_csv = risk.RiskReport.to_csv

    def to_csv(report, path):
        failures.extend(r.failures for r in report.rows)
        return write_csv(report, path)

    risk.RiskReport.to_csv = to_csv

    tracer = None
    if spans_path is not None:
        from tracer import Tracer, install

        tracer = Tracer(trace_id=os.path.basename(spans_path))
        root = tracer.open("cli.main", t0)
        install(tracer)
    status = cli.execute(config)
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.close(root, t2)
        tracer.write(spans_path)

    result = {
        "status": status,
        "setup_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": sum(failures),
        "blas_threads": blas_threads(),
        "package": os.path.dirname(cli.__file__),
    }
    with open(result_path, "w", encoding="utf8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
