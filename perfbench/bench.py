"""One benchmark run: set up, time whole rounds, check the outputs, report.

Set-up runs at least ``SETUPS`` times and until ``SETUP_SECONDS`` have
passed, and ``setup_s`` is the median.  Rounds repeat until ``seconds`` have
passed and at least ``min_rounds`` have run; when there are three or more,
the first is a warm-up and is left out of the median.  With ``trace`` every
set-up and every round run under the span tracer, and the result carries
per-layer metrics instead of end-to-end ones.

Nothing here calls the garbage collector: hesslens frees its autodiff
graphs only when Python's cyclic collector runs, and the rounds pay for
that as any caller of the package does.
"""

import contextlib
import ctypes
import os
import platform
import resource
import statistics
import time

import numpy as np

from hesslens.errors import HessLensError

from . import metric_units
from . import spans as tracemod
from .workloads import SIZES, WORKLOADS

SETUPS = 3
SETUP_SECONDS = 1.0  # cheap set-ups repeat more, for a steadier median
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")



def _openblas():
    """(thread count, runtime config) of the OpenBLAS this process loaded, if any."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.split()[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_threads(), get_config().decode()
    return None, None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, runtime = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": runtime,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _after_warmup(values):
    return values[1:] if len(values) >= 3 else values


def run_workload(name, seed, seconds, trace, workdir, size="full"):
    """Run one workload; returns the full result record (see module doc)."""
    wl = WORKLOADS[name](seed, SIZES[size][name], workdir)
    setup_tracer = tracemod.Tracer()
    setup_times = []
    with tracemod.tracing(setup_tracer) if trace else contextlib.nullcontext():
        while len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS:
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

    round_tracer = tracemod.Tracer()
    times, attempted, failed, errors = [], 0, 0, []
    start = time.perf_counter()
    with tracemod.tracing(round_tracer) if trace else contextlib.nullcontext():
        while len(times) < wl.min_rounds or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            try:
                bad = wl.round()
            except HessLensError as exc:
                bad = wl.ops_per_round
                errors.append(f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t0)
            attempted += wl.ops_per_round
            failed += bad
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = errors + wl.check()
    timed = _after_warmup(times)
    round_s = _median(timed)

    detail = {k: {"value": _median(_after_warmup(v)), "unit": "ms", "n": len(_after_warmup(v))}
              for k, v in wl.detail.items()}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "environment": environment(),
        "correct": not failures, "failures": failures,
        "attempted": attempted, "failed": failed,
        "setup_times": setup_times, "round_times": times, "detail": detail,
    }
    if trace:
        layers = tracemod.layer_metrics(setup_tracer, len(setup_times), round_tracer,
                                        len(times), round_s)
        units = metric_units("per_layer")
        result["metrics"] = {k: {"value": layers[k], "unit": unit} for k, unit in units.items()}
        result["spans"] = {"setup": tracemod.span_table(setup_tracer),
                           "rounds": tracemod.span_table(round_tracer)}
    else:
        values = {
            "setup_s": (_median(setup_times), len(setup_times)),
            "round_s": (round_s, len(timed)),
            "peak_rss_mb": (peak_rss_mb, 1),
        }
        result["metrics"] = {k: {"value": values[k][0], "unit": unit, "n": values[k][1]}
                             for k, unit in metric_units("end_to_end").items()}
    return result


def summary_line(result):
    """The one-line JSON object a benchmark run ends its standard output with."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }
