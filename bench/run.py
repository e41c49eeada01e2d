"""Benchmark entry point: run one workload for a fixed time and report.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; oplab is imported from its src/.  Each
pass runs in a fresh interpreter (bench/worker.py), one at a time, so no
in-process cache carries over between passes, as for a user of the `oplab`
command.  Passes repeat until --seconds have elapsed (at least
WARMUP_PASSES + MIN_PASSES).  Pass i gets inputs derived from (--seed, i).
The first pass warms the file cache and the machine; its operations and
checks count, its times do not.

The last line of standard output is one JSON object: whether every check
passed, operations attempted and failed, and the median over passes of each
metric BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WARMUP_PASSES = 1
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
OUT_DIR = ".bench_out"
# OpenBLAS's second thread spin-waits between calls, taking a CPU from the
# single-threaded program on a 2-CPU machine; one thread makes the figures
# steadier and costs under 10% on slope, the only workload it speeds up
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def pass_seed(seed: int, index: int) -> int:
    return random.Random(f"{seed}:{index}").getrandbits(31)


def run_pass(root: Path, workload: str, seed: int, index: int, trace: int) -> dict:
    work = root / OUT_DIR / workload
    pass_dir = work / f"pass{index}"
    result = work / f"pass{index}.json"
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(pass_seed(seed, index)),
           "--index", str(index), "--dir", str(pass_dir), "--result", str(result),
           "--trace", str(trace), "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, env=dict(os.environ, **WORKER_ENV),
                          stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} of {workload} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def main(argv: list[str] | None = None) -> int:
    root = Path.cwd()
    if not (root / "src" / "oplab" / "__init__.py").is_file():
        print("run.py: no src/oplab here; run from the root of an oplab checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # subprocess.run kills and reaps the running pass when an exception
    # unwinds through it; SIGTERM becomes one
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    shutil.rmtree(root / OUT_DIR / args.workload, ignore_errors=True)
    passes = []
    start = time.monotonic()
    while (len(passes) < WARMUP_PASSES + MIN_PASSES
           or time.monotonic() - start < args.seconds):
        try:
            res = run_pass(root, args.workload, args.seed, len(passes), args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        passes.append(res)
        print(f"pass {len(passes) - 1}: setup {res['setup_s']:.3f} s, pass {res['pass_s']:.3f} s "
              f"(wall {res['setup_wall_s']:.3f} s, {res['pass_wall_s']:.3f} s; kernel "
              f"{res['kernel_s'][0]:.4f} s, {res['kernel_s'][1]:.4f} s), "
              f"peak rss {res['peak_rss_mb']:.1f} MB, "
              f"{res['failed']}/{res['attempted']} operations failed", flush=True)
        for check in res["checks"]:
            if not check["passed"]:
                print(f"  check failed: {check['name']} ({check['detail']})", file=sys.stderr)

    key = "per_layer" if args.trace else "end_to_end"
    timed = passes[WARMUP_PASSES:]
    source = [p["layers"] for p in timed] if args.trace else timed
    metrics = {m["name"]: {"value": statistics.median(s.get(m["name"], 0.0) for s in source),
                           "unit": m["unit"]}
               for m in spec[key]}
    print(json.dumps({
        "correct": all(c["passed"] for p in passes for c in p["checks"]),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
