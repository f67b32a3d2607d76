"""Benchmark of the qtheta workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one line each

Run from the root of a checkout; qtheta is imported from ``src``.  Workloads:
identity-sweep, wrt-exact, wrt-radial and cli-cold (see perfbench/README.md).

A run first times several cold starts (a fresh interpreter that imports
``qtheta.cli`` with every registry) and reports their median as ``setup_s``.
Then it runs the workload's fixed item list in a fresh worker interpreter,
whole rounds at a time, as long as another round fits in ``--seconds``; the
first round always runs.  Every end-to-end time is reported at reference
machine speed (see ``calib.py``).  ``--trace 1`` adds one traced round and
prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The result and, when
traced, the spans are also written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from calib import Speedometer  # noqa: E402
from worker import child_env  # noqa: E402

WORKLOADS = ("identity-sweep", "wrt-exact", "wrt-radial", "cli-cold")
COLD_STARTS = 11
COLD_START = ("import time; t = time.perf_counter(); import qtheta.cli; "
              "print(time.perf_counter() - t)")


def cold_starts(root: Path) -> tuple[Speedometer, float]:
    """Time the cold starts; return their timings and the median import time
    measured inside them."""
    imports = []
    speed = Speedometer()
    for _ in range(COLD_STARTS):
        speed.mark()
        start = speed.begin()
        proc = subprocess.run([sys.executable, "-c", COLD_START], env=child_env(),
                              cwd=root, capture_output=True, text=True, timeout=120,
                              check=True)
        speed.end(start)
        imports.append(float(proc.stdout))
    speed.mark()
    return speed, statistics.median(imports)


def run_round(workload: str, seed: int, trace: int, workdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--workdir", str(workdir)],
        env=child_env(), cwd=workdir, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: cold starts, whole untraced rounds while another fits in
    ``seconds``, then one traced round if asked.  Returns the result object."""
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    tag = f"{workload}-seed{seed}"
    try:
        started = time.perf_counter()
        setup, import_s = cold_starts(root)
        setup_s = statistics.median(setup.scale())
        rounds = []
        while True:
            round_start = time.perf_counter()
            rounds.append(run_round(workload, seed, 0, workdir))
            last = time.perf_counter() - round_start
            if time.perf_counter() - started + last > seconds:
                break
        traced = run_round(workload, seed, 1, workdir) if trace else None
        if traced:
            shutil.move(str(workdir / "spans.jsonl"), out_dir / f"spans-{tag}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [t for r in rounds for t in r["ref_times"]]
    failed = sum(f for r in rounds for f in r["failed"])
    problems = [p for r in rounds + ([traced] if traced else []) for p in r["problems"]]
    sweep_s = statistics.median(sum(r["ref_times"]) for r in rounds)
    if traced:
        metrics = untouched_cli_layers()
        metrics.update({name: tuple(v) for name, v in traced["layers"].items()})
        metrics["cli.import_s"] = (import_s, "s")
        metrics["trace.overhead_s"] = (sum(traced["ref_times"]) - sweep_s, "s")
        sys.path.insert(0, str(root / "src"))
        metrics.update(tracing.kernels(seed))
    else:
        metrics = {"setup_s": (setup_s, "s"), "sweep_s": (sweep_s, "s"),
                   "item_gmean_s": (math.exp(statistics.fmean(map(math.log, times))), "s"),
                   "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB")}
    result = {"correct": not problems, "attempted": len(times), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in sorted(metrics.items())}}
    for problem in problems:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)
    detail = {"result": result, "rounds": rounds + ([traced] if traced else []),
              "setup": {"times": [m for _, _, m in setup.items],
                        "local_slices": setup.local_slices(), "samples": setup.samples}}
    (out_dir / f"result-{tag}-trace{trace}.json").write_text(json.dumps(detail) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qtheta" / "__init__.py").is_file():
        print("error: run from the root of a qtheta checkout (src/qtheta not found)",
              file=sys.stderr)
        return 2
    # One processor for this process and every process it starts: the speed
    # of each processor changes on its own, and the calibration slices
    # measure the one the work runs on only if the work cannot move.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload != "all":
        print(json.dumps(run_workload(root, args.workload, args.seed, args.seconds,
                                      args.trace)))
        return 0
    results = {}
    for workload in WORKLOADS:
        result = results[workload] = run_workload(root, workload, args.seed,
                                                  args.seconds, args.trace)
        metrics = ", ".join(f"{name} {m['value']:.6g} {m['unit']}"
                            for name, m in result["metrics"].items())
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}; {metrics}")
    print(json.dumps(results))
    return 0


def untouched_cli_layers() -> dict:
    """The cli metrics read 0 on the workloads that start no qtheta process."""
    out = {f"cli.process_s.{sub}": (0.0, "s")
           for sub in ("expand", "wrt", "lvalue", "dsl", "verify")}
    out["cli.cache_miss_s"] = (0.0, "s")
    out["cli.cache_hit_s"] = (0.0, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
