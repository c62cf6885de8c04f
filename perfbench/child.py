"""One benchmark run in a fresh process.

Imports eigstab from the checkout's ``src/``, sets up one workload, then
runs its items one after another (a closed loop with one client) until
``--seconds`` have passed, and prints the raw result as one JSON line.
With ``--setup-only`` it stops after set-up.  ``run.py`` starts this
process and turns its output into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def timed_loop(workload, seconds: float, trace=None):
    """Run items back to back until ``seconds`` have passed.

    Returns (latencies of the items that passed their check, failure
    reasons, items attempted, elapsed seconds).  An item that raises or
    fails its check is counted, not fatal.
    """
    latencies, failures = [], []
    attempted = 0
    inputs = workload.inputs()
    begin = time.perf_counter()
    deadline = begin + seconds
    while time.perf_counter() < deadline:
        inp = next(inputs)
        if trace is not None:
            trace.item = attempted
        start = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
        else:
            reason = None
        latency = time.perf_counter() - start
        if trace is not None:
            trace.item = -1
        if reason is None:
            reason = workload.check(inp, out)
        if reason is None:
            latencies.append(latency)
        else:
            failures.append(f"item {attempted}: {reason}")
        attempted += 1
    return latencies, failures, attempted, time.perf_counter() - begin


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # The library warns about profile truncation on the fixtures' smallest
    # box; the tests and the CLI silence it too (see README, known limits).
    warnings.simplefilter("ignore")
    import eigstab

    src = (ROOT / "src").resolve()
    if Path(eigstab.__file__).resolve().parent.parent != src:
        print(f"eigstab imported from {eigstab.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if trace is not None:
        trace.start_timed()
    latencies, failures, attempted, elapsed = timed_loop(workload, args.seconds, trace)

    result = {
        "ready": ready,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": workload.quality(),
        "env": environment(),
    }
    if trace is not None:
        result["layers"] = trace.layer_metrics(attempted, len(latencies) / elapsed)
        trace_path = os.path.join(args.workdir, f"trace-{args.workload}.json")
        trace.dump(trace_path)
        result["trace_file"] = trace_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
