"""Benchmark entry point for hesslens.

    python3 perfbench/run.py --workload train_m1 --seed 1 --seconds 10 --trace 0

runs one workload in this process and ends its standard output with one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
The full record, with sample counts, sub-timings, NumPy/BLAS versions and
the BLAS thread count, goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.

    python3 perfbench/run.py

(``--workload all``) runs every workload twice, untraced then traced, each
in its own process, prints every metric with its unit and the tracing
overhead, and writes ``perfbench/out/result.json``.

Run it from the root of a source checkout; it imports ``hesslens`` from
``src/``.  It exits 0 when every output check passed, 1 when one failed and
2 when the package source is missing.
"""

import os

# BLAS reads these once, when NumPy loads it; the baseline is one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the script's own directory goes: its modules are imported as perfbench.*
if os.path.abspath(sys.path[0]) == os.path.join(ROOT, "perfbench"):
    del sys.path[0]
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workload_names  # noqa: E402

OUT = os.path.join(ROOT, "perfbench", "out")
NAMES = workload_names()
RUN_TIMEOUT = 600


def parse_args(argv):
    p = argparse.ArgumentParser(description="hesslens benchmark")
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def run_one(args):
    from perfbench.bench import run_workload, summary_line

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write_json(os.path.join(OUT, f"{tag}.json"), result)
    for failure in result["failures"]:
        print(f"{args.workload}: CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(summary_line(result)), flush=True)
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload, untraced then traced, one process each."""
    results, ok = {}, True
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{name} trace={trace}: no result (exit {proc.returncode})")
                ok = False
                continue
            ok &= proc.returncode == 0
            with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{trace}.json")) as f:
                results[(name, trace)] = json.load(f)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in NAMES:
        plain, traced = results.get((name, 0)), results.get((name, 1))
        if plain is None or traced is None:
            continue
        e2e = plain["metrics"]
        overhead = traced["metrics"]["trace.round_s"]["value"] / e2e["round_s"]["value"] - 1.0
        print(f"\n== {name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for key, m in list(e2e.items()) + list(plain["detail"].items()):
            print(f"  {key:<28} {m['value']:>14.6g} {m['unit']:<6} (n={m['n']})")
        print(f"  tracing overhead on round_s: {100.0 * overhead:+.1f}%")
        for key, m in traced["metrics"].items():
            if m["value"]:
                print(f"  {key:<28} {m['value']:>14.6g} {m['unit']}")
        report["workloads"][name] = {"untraced": plain, "traced": traced,
                                     "trace_overhead": overhead}
    report["environment"] = next(iter(results.values()))["environment"] if results else None
    write_json(os.path.join(OUT, "result.json"), report)
    print(f"\nresult file: {os.path.relpath(os.path.join(OUT, 'result.json'), ROOT)}")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hesslens", "__init__.py")):
        print("perfbench: src/hesslens not found; run from a hesslens source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
