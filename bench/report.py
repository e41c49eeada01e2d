"""Run every workload, untraced and traced, and print all metrics.

    python3 bench/report.py --seed 1

Run from the root of a checkout.  Prints the machine facts, then for each
workload every end-to-end metric (untraced run) and every per-layer metric
(traced run) by name and unit, the operations attempted and failed, the
mean inclusive time per call of every traced function, and the tracing
overhead: the traced run's median pass time minus the untraced one.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path


def blas_threads() -> str:
    """Thread count of the OpenBLAS numpy ships with, asked from the library."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        # numpy's wheels name it for the 64-bit or the 32-bit integer build
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def span_means(workload: str) -> dict[str, tuple[int, float]]:
    """Calls and mean inclusive seconds per traced name, over the spans the
    last traced run of a workload wrote (warm-up pass excluded)."""
    totals: dict[str, list] = {}
    for path in sorted(Path(".bench_out", workload).glob("pass*.spans.jsonl")):
        if path.name.startswith("pass0."):
            continue
        with open(path) as fh:
            for line in fh:
                _, name, start, end, _, _ = json.loads(line)
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += end - start
    return {name: (calls, total / calls) for name, (calls, total) in totals.items()}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    for key, val in machine_facts().items():
        print(f"{key}: {val}")
    for w in spec["workloads"]:
        name = w["name"]
        plain = run(name, args.seed, seconds, 0)
        traced = run(name, args.seed, seconds, 1)
        print(f"\n== {name}: correct={plain['correct'] and traced['correct']}, "
              f"failed {plain['failed']} of {plain['attempted']} operations (untraced), "
              f"{traced['failed']} of {traced['attempted']} (traced)")
        for metrics in (plain["metrics"], traced["metrics"]):
            for metric, m in metrics.items():
                print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}")
        for span, (calls, mean) in sorted(span_means(name).items()):
            print(f"  span {span:39s} {calls:8d} calls {1e3 * mean:12.3f} ms each, inclusive")
        base = plain["metrics"]["pass_s"]["value"]
        over = traced["metrics"]["trace.pass_s"]["value"] - base
        print(f"  {'tracing overhead':44s} {over:14.6g} s ({100 * over / base:+.1f}% of pass_s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
