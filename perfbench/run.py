"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload line-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each run starts fresh child processes (``child.py``) with BLAS and OpenMP
pinned to one thread.  Set-up is timed from spawn to the first item in
several cold children and reported as their median.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics of BENCHMARK.json untraced
(``--trace 0``) or its per-layer metrics (``--trace 1``).  The exit code
is 1 when any output check failed and 2 when the run could not be made.
``--workload all`` runs every workload untraced and traced and also
prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_out"

#: cold set-ups per untraced run, the timed run's own included
SETUP_RUNS = 5
#: a run must end within this many seconds of starting
RUN_BUDGET_S = 170.0
#: latency percentiles leave at least this many items above them
TAIL_ITEMS = 10

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run child.py to completion; return its spawn time and its JSON."""
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--workdir", str(WORKDIR)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a child")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=child_env(), timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"child exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_ITEMS items
    above it; the maximum when there are too few items."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_ITEMS:
        return ordered[-1], 100.0
    k = n - TAIL_ITEMS - 1
    return ordered[k], 100.0 * (k + 1) / n


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; returns the full record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            spawned, out = spawn(base + ["--setup-only"], deadline)
            setups.append(out["ready"] - spawned)
    spawned, out = spawn(base + ["--trace", str(trace)], deadline)
    setups.append(out["ready"] - spawned)

    latencies_ms = [1000.0 * s for s in out["latencies_s"]]
    completed = len(latencies_ms)
    tail_ms, tail_pct = tail(latencies_ms) if completed else (0.0, 0.0)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": completed / out["elapsed_s"],
        "item_p50_ms": statistics.median(latencies_ms) if completed else 0.0,
        "item_tail_ms": tail_ms,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    metrics.update(out.get("layers", {}))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failures": out["failures"],
        "failed_ratio": out["failed"] / max(out["attempted"], 1),
        "item_tail": {"percentile": tail_pct, "items": completed},
        "item_mean_ms": statistics.fmean(latencies_ms) if completed else 0.0,
        "latencies_ms": latencies_ms,
        "setup_samples_s": setups,
        "metrics": metrics,
        "quality": out["quality"],
        "env": {**out["env"], **source_identity()},
        "trace_file": out.get("trace_file"),
    }


def report(record: dict, specs: list[dict]) -> dict:
    """Print the record for a reader; return the result object that ends the output."""
    wl, t = record["workload"], record["trace"]
    print(f"== {wl} seed {record['seed']} trace {t}: {record['attempted']} items, "
          f"{record['failed']} failed (failed_ratio {record['failed_ratio']:.4g})")
    for reason in record["failures"]:
        print(f"   failure: {reason}")
    metrics = {}
    for spec in specs:
        value = record["metrics"][spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        if t == 0 or value:
            print(f"   {spec['name']} = {value:.6g} {spec['unit']}")
    if t == 0:
        tl = record["item_tail"]
        print(f"   item_tail_ms is p{tl['percentile']:.1f} of {tl['items']} items")
        for name, value in record["quality"].items():
            print(f"   {name} = {value if value is None else format(value, '.6g')} 1")
    print(f"   env {json.dumps(record['env'], sort_keys=True)}")
    return {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def save(record: dict) -> None:
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(WORKDIR / name, "w") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eigstab" / "__init__.py").is_file():
        print(f"no eigstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(name not in names for name in chosen):
        print(f"unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)

    traces = (0, 1) if args.workload == "all" else (args.trace,)
    ok = True
    for workload in chosen:
        records = {}
        for t in traces:
            try:
                record = run_one(workload, args.seed, seconds, t)
            except RunError as exc:
                print(f"{workload}: {exc}", file=sys.stderr)
                return 2
            save(record)
            result = report(record, bench["per_layer" if t else "end_to_end"])
            ok = ok and result["correct"]
            records[t] = record
            print(json.dumps(result))
        if len(records) == 2:
            plain, traced = records[0], records[1]["metrics"]
            overhead = plain["metrics"]["items_per_s"] / traced["trace.items_per_s"] - 1.0
            print(f"   tracing overhead {100 * overhead:+.2f} % items_per_s; top-level "
                  f"spans busy {1000 * traced['trace.root_busy_s']:.6g} ms/item traced "
                  f"against {plain['item_mean_ms']:.6g} ms/item untraced")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
