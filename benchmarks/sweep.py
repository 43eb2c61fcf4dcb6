#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize every metric.

    python3 benchmarks/sweep.py --seeds 1-10 [--workloads a,b] [--trace] [--out FILE]

For each workload it runs benchmarks/run.py once per seed, one run at a
time, and prints each end-to-end metric by name and unit with its median,
quartiles and spread (interquartile range over median) next to the bound
that BENCHMARK.json fixes.  --trace adds one traced run per workload on
the first seed.  --out writes every value, with the machine and Python
version, as a JSON trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def machine() -> dict:
    info = {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip()
                               for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor()
    return info


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    entry = {"machine": machine(), "seconds": args.seconds, "seeds": seeds,
             "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
        row = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "end_to_end": {k: dict(unit=units[k], **summarize([r["metrics"][k]["value"]
                                                               for r in results]))
                           for k in units},
        }
        print(f"\n{workload}: {len(seeds)} runs, {sum(row['attempted'])} ops attempted, "
              f"{sum(row['failed'])} failed, all correct: {row['correct']}")
        print(f"  {'metric':18} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, s in row["end_to_end"].items():
            print(f"  {name:18} {s['unit']:6} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} {bounds.get(name, float('nan')):6.2f}")
        if args.trace:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            row["traced"] = {"seed": seeds[0], "attempted": traced["attempted"],
                             "failed": traced["failed"], "per_layer": traced["metrics"]}
            print(f"  traced run, seed {seeds[0]}: {traced['failed']} failed")
            for name, m in traced["metrics"].items():
                print(f"    {name:48} {m['value']:14.6g} {m['unit']}")
        entry["workloads"][workload] = row
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
