"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload line-sweep --seeds 10
    python3 perfbench/spread.py --workload all --seeds 10 --out spread.json

For every end-to-end metric this prints the median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound in BENCHMARK.json, and
calls it steady below a third of the bound.  Exits 1 if a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if args.trace else "end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    summary, ok = {}, True
    for workload in chosen:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            runs.append(json.loads(lines[-1]))
            ok = ok and runs[-1]["correct"]
        if len(runs) < 2:
            continue
        table = {}
        print(f"== {workload}: {len(runs)} runs")
        for spec in specs:
            stats = summarize([r["metrics"][spec["name"]]["value"] for r in runs])
            table[spec["name"]] = {**stats, "unit": spec["unit"], "bound": spec.get("bound")}
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:g}, " + (
                    "steady" if stats["spread"] < bound / 3
                    else "within bound" if stats["spread"] <= bound else "OUTSIDE BOUND")
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"   {spec['name']:<14} median {stats['median']:<12.6g} {spec['unit']:<4} "
                  f"spread {spread}  {verdict}")
        record = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{args.trace}.json"
        summary[workload] = {
            "env": json.loads(record.read_text())["env"],
            "runs": len(runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": table,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
