"""One pass of one workload, in a fresh interpreter.

Started by run.py with the checkout as working directory.  Imports oplab
from the checkout's src/, optionally installs tracing, builds the pass's
inputs (set-up), runs the timed operations between two runs of the
calibration kernel, records peak memory, checks the outputs, and writes one
JSON result file.  Times are reported at the machine's reference speed
(calibration.py); the wall times they come from are kept beside them.

    python3 bench/worker.py --workload sweep --seed 12345 --index 0 \
        --dir .bench_out/sweep/pass0 --result .bench_out/sweep/pass0.json \
        --spawned "$(python3 -c 'import time; print(time.monotonic())')"

Pass --threads N to hand --threads to the fig2/fig4 commands (a reference
figure; the benchmark itself runs the program's default thread count).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=None)
    args = ap.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import oplab
    import oplab.cli  # noqa: F401  (the command-line layer every workload goes through)

    if not Path(oplab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"worker: imported oplab from {oplab.__file__}, not {src}", file=sys.stderr)
        return 3

    from calibration import REFERENCE_S, Kernel
    from tracing import Tracer
    from workloads import WORKLOADS, Outcome, Pass

    tracer = Tracer()
    if args.trace:
        tracer.install()
    workload = WORKLOADS[args.workload]()
    args.dir.mkdir(parents=True, exist_ok=True)
    p = Pass(seed=args.seed, index=args.index, dir=args.dir, threads=args.threads)
    inputs = workload.prepare(p)
    setup_wall_s = time.monotonic() - args.spawned

    kernel = Kernel()
    kernel_before_s = kernel.seconds()
    out = Outcome()
    start = time.perf_counter()
    workload.run(p, inputs, out)
    pass_wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    kernel_after_s = kernel.seconds()
    # wall seconds -> seconds at the machine's reference speed
    scale = REFERENCE_S / ((kernel_before_s + kernel_after_s) / 2)

    checks = workload.check(p, inputs, out)
    result = {
        "setup_s": setup_wall_s * scale, "pass_s": pass_wall_s * scale,
        "peak_rss_mb": peak_rss_mb,
        "setup_wall_s": setup_wall_s, "pass_wall_s": pass_wall_s,
        "kernel_s": [kernel_before_s, kernel_after_s],
        "attempted": out.attempted, "failed": out.failed,
        "checks": [{"name": c.name, "passed": bool(c.passed), "detail": c.detail}
                   for c in checks],
    }
    if args.trace:
        layers = tracer.layer_metrics()
        result["layers"] = {k: v * scale if k.endswith("_s") else v for k, v in layers.items()}
        result["layers"]["trace.pass_s"] = pass_wall_s * scale
        tracer.dump(args.result.with_suffix(".spans.jsonl"))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
