"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --workload grid large verify --seeds 10 \
        [--first-seed 1] [--trace 0] > summary.json

Runs bench/run.py once per workload and seed, one run at a time, with the
run_seconds of BENCHMARK.json. Each run's result goes to stderr; stdout
gets per workload and metric the median of the runs and the distance
between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound. Use it
to check that the benchmark is steady and to record a baseline.
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


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {"runs": len(runs), "correct": all(r["correct"] for r in runs),
           "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {
            "median": median,
            "iqr_share": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}
    summary = {"run_seconds": config["run_seconds"], "trace": args.trace,
               "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
               "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, check=True)
            lines = proc.stdout.splitlines()
            summary.setdefault("machine", json.loads(lines[0])["machine"])
            runs.append(json.loads(lines[-1]))
            print(json.dumps({"workload": workload, "seed": seed, **runs[-1]}),
                  file=sys.stderr, flush=True)
        summary["workloads"][workload] = summarize(runs, bounds)
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
