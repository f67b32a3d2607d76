"""Steadiness check: run the benchmark once per seed and report the spread.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--out FILE]

Run from the root of a checkout.  For every workload and end-to-end metric it
prints the median of the runs and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound in BENCHMARK.json, and the share of failed items.
With ``--out`` the raw values go to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict = {}
    for workload in args.workloads.split(","):
        runs = raw[workload] = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, "
              f"failed share {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            print(f"  {name:12s} median {statistics.median(values):12.6g}  "
                  f"spread {spread:6.2%}  bound {bound:.0%}")
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
