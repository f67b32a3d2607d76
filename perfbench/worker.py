"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR

Runs the workload's fixed item list once, one item at a time, in the order the
seed draws.  Before each item every functools memo in qtheta is emptied and
the garbage collector runs, so no item is answered from an earlier item's
memo.  Checks run after the last item, outside the timed region.  Prints one
JSON object: per-item times and outcomes, peak RSS, the problems the checks
found and, when traced, the per-layer metrics; a traced round also writes
its spans to DIR/spans.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import tracing  # noqa: E402
from calib import Speedometer  # noqa: E402

perf_counter = time.perf_counter

#: radial-only points (the numeric route is the only second check there)
RADIAL_ONLY = ("m_2_2_6", "m_2_2_8", "m_2_3_3")
WRT_EXACT_N = range(2, 25)
WRT_EXACT_METHODS = ("eichler_limit", "terminating_qseries", "surgery_series")
#: one item per radial function, no two items share a radial evaluation
WRT_RADIAL_POINTS = (("m_2_2_8", 2), ("m_2_2_6", 2), ("m_2_3_3", 4))
REFERENCE_T = 100
L_CHAR = "chi60_111"
CHI0_EQUATION = "sum(n=0..inf, q^n * poch(q^n; 1; n)) == chi0_star(q)"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("QTHETA_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

class InProcess:
    """Runs items that call qtheta in this interpreter."""

    def __init__(self, tracer, speed: Speedometer):
        import qtheta.cli  # noqa: F401  loads every module and registry

        self.modules = {name: mod for name, mod in sys.modules.items()
                        if name == "qtheta" or name.startswith("qtheta.")}
        memos = {}
        for mod in self.modules.values():
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    memos[id(obj)] = obj
        self.memos = list(memos.values())
        self.radial_limit = self.modules["qtheta.chars"].false_theta_radial_limit
        self.tracer = tracer
        self.speed = speed
        if tracer:
            tracer.install()

    def _empty_memos(self):
        if self.tracer:
            info = self.radial_limit.cache_info()
            self.tracer.note_memo(info.hits, info.hits + info.misses)
        for memo in self.memos:
            memo.cache_clear()

    def run(self, items):
        """items: (item id, callable) pairs; returns (times, outputs)."""
        times, outputs = [], []
        with self.speed.sampling():
            for item_id, fn in items:
                self._empty_memos()
                gc.collect()
                if self.tracer:
                    self.tracer.begin_item(item_id)
                start = self.speed.begin()
                out = fn()
                times.append(self.speed.end(start))
                if self.tracer:
                    self.tracer.end_item()
                outputs.append(out)
        self._empty_memos()
        return times, outputs


def identity_sweep(rng, ctx):
    identities = ctx.modules["qtheta.identities"]
    catalog = ctx.modules["qtheta.catalog"]
    ids = identities.identity_ids()
    rng.shuffle(ids)
    items = [(rid, lambda rid=rid: identities.verify_identity(rid)) for rid in ids]
    times, reports = ctx.run(items)
    peak = rss_mb(resource.RUSAGE_SELF)

    problems = [f"{r.id}: {r.status} at {r.first_mismatch} ({r.detail})"
                for r in reports if not r.passed]
    control = identities.verify_identity("negative_control")
    if control.passed or control.first_mismatch != 7:
        problems.append(f"negative_control: {control.status} at {control.first_mismatch}")
    for fn_id, reference in refs.SERIES.items():
        got = catalog.expand(fn_id, REFERENCE_T).text()
        if got != refs.series_text(reference(REFERENCE_T)):
            problems.append(f"expand {fn_id} T={REFERENCE_T} differs from the "
                            "plain-integer reference")
    return ids, times, peak, problems


def wrt_exact(rng, ctx):
    wrt = ctx.modules["qtheta.wrt"]
    errors = ctx.modules["qtheta.errors"]
    points = [(m, n) for m in wrt.theorem_ids() for n in WRT_EXACT_N
              if not (m in RADIAL_ONLY and n % 2 == 0)]
    rng.shuffle(points)

    def run_point(manifold, n):
        if wrt.get_theorem(manifold).vanishes(n):
            return wrt.cross_verify(manifold, [n])
        values = {}
        for method in WRT_EXACT_METHODS:
            try:
                values[method] = wrt.wrt_invariant(manifold, n, method).value
            except errors.UnsupportedMethodError:
                pass  # the route does not evaluate at this point
        return values

    items = [(f"{m}[N={n}]", lambda m=m, n=n: run_point(m, n)) for m, n in points]
    times, outputs = ctx.run(items)
    peak = rss_mb(resource.RUSAGE_SELF)

    problems = []
    by_point = dict(zip(points, outputs))
    for (manifold, n), out in by_point.items():
        label = f"{manifold}[N={n}]"
        if isinstance(out, list):
            if not all(r.passed for r in out):
                problems.append(f"{label}: right side does not vanish exactly")
            continue
        values = list(out.values())
        if "eichler_limit" not in out or len(values) < 2:
            problems.append(f"{label}: exact routes {sorted(out)}; need eichler_limit "
                            "and a second route")
        elif any(v != values[0] for v in values[1:]):
            problems.append(f"{label}: exact routes disagree")
    for n in WRT_EXACT_N:
        rho = by_point[("m_2_2_2_rho", n)]["eichler_limit"]
        if rho != by_point[("m_2_2_2_d5", n)]["eichler_limit"]:
            problems.append(f"M(2,2,2) records disagree at N={n}")
    return [item for item, _ in items], times, peak, problems


def wrt_radial(rng, ctx):
    wrt = ctx.modules["qtheta.wrt"]
    points = list(WRT_RADIAL_POINTS)
    rng.shuffle(points)
    items = [(f"{m}[N={n}]", lambda m=m, n=n: wrt.wrt_invariant(m, n, "radial_numeric").value)
             for m, n in points]
    times, outputs = ctx.run(items)
    peak = rss_mb(resource.RUSAGE_SELF)

    problems = []
    for (manifold, n), value in zip(points, outputs):
        exact = wrt.wrt_invariant(manifold, n, "eichler_limit").value.to_complex(128)
        defect = abs(complex(value) - complex(exact))
        if not defect <= 1e-10:
            problems.append(f"{manifold}[N={n}]: radial defect {defect:.2e}")
    return [item for item, _ in items], times, peak, problems


# ---------------------------------------------------------------------------
# cli-cold: every call in a fresh interpreter
# ---------------------------------------------------------------------------

def cli_items(rng) -> list[dict]:
    """Distinct qtheta calls.  The seed draws the order and the variable parts
    whose cost is a few milliseconds against a start-up of about 0.2 s: two
    truncations, two L-value indices and a Gaussian binomial.  ``expect`` is
    the check made on the output of the cache-less call."""
    t_f = rng.randrange(90, 111)
    t_phi = rng.randrange(90, 111)
    ks = rng.sample(range(2, 9), 2)
    items = [
        {"argv": ["expand", "chi0", "--order", str(REFERENCE_T)],
         "expect": ("series", "chi0", REFERENCE_T)},
        {"argv": ["expand", "f", "--order", str(t_f)], "expect": ("series", "f", t_f)},
        {"argv": ["expand", "phi", "--order", str(t_phi)],
         "expect": ("series", "phi", t_phi)},
        {"argv": ["expand", "chi0_star", "--order", "60"]},
        {"argv": ["expand", "F0", "--order", "80"]},
        {"argv": ["expand", "D5", "--order", "40"]},
        {"argv": ["expand", "phi6", "--order", "60"]},
        {"argv": ["expand", "Phi10", "--order", "50"]},
        {"argv": ["wrt", "sigma_2_3_5", "7"]},
        {"argv": ["--json", "wrt", "sigma_2_3_7", "9"]},
        {"argv": ["wrt", "m_2_2_5", "5", "--method", "terminating_qseries"]},
        {"argv": ["wrt", "m_2_3_4", "6", "--method", "surgery_series"]},
        {"argv": ["wrt", "m_2_2_4", "8"]},
        {"argv": ["wrt", "m_2_2_3", "5"]},
        {"argv": ["wrt", "m_2_2_2_d5", "10"]},
        {"argv": ["dsl", CHI0_EQUATION, "--order", "120"]},
        {"argv": ["dsl", f"qbin({rng.randrange(6, 10)}, 3)"]},
        {"argv": ["dsl", "poch(q; 1; 5)"]},
        {"argv": ["verify", "prop_5th_chi0"]},
    ]
    for kk in [0, 1] + ks:
        for method in ("bernoulli", "cos_generating"):
            items.append({"argv": ["lvalue", L_CHAR, str(kk), "--method", method],
                          "expect": ("lvalue", kk)})
    rng.shuffle(items)
    # the stale result-cache case: the cache key leaves out the order that the
    # environment resolves, so the second call replays the T=5 series
    items.append({"argv": ["expand", "chi0"], "env": [{"QTHETA_ORDER": "5"},
                                                      {"QTHETA_ORDER": "12"}],
                  "expect": ("series", "chi0", 12), "stale_case": True})
    return items


def _call(argv, env_extra, cwd, cache_dir=None, tracer_out=None, item_id=""):
    env = child_env()
    env.update(env_extra)
    if tracer_out:
        env["PERFBENCH_ITEM"] = item_id
        cmd = [sys.executable, str(HERE / "cli_child.py"), tracer_out]
    else:
        cmd = [sys.executable, "-m", "qtheta.cli"]
    if cache_dir:
        argv = ["--cache", cache_dir] + argv
    start = perf_counter()
    proc = subprocess.run(cmd + argv, env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return perf_counter() - start, proc


def _without_timing(stdout: str) -> str:
    """JSON reports carry their own elapsed time, and a cache hit replays the
    time of the call that stored it: drop such fields before comparing."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return stdout
    if not isinstance(payload, dict):
        return stdout
    for key in ("elapsed_ms", "cached"):
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


def _check_expect(expect, stdout: str):
    if expect is None:
        return None
    if expect[0] == "series":
        _, fn_id, t = expect
        want = refs.series_text(refs.SERIES[fn_id](t))
        return None if stdout.strip() == want else "series differs from the reference"
    _, k = expect
    want = refs.l_value_chi60_111(k)
    try:
        return None if Fraction(stdout.strip()) == want else f"L-value is not {want}"
    except ValueError:
        return f"L-value output is not a rational: {stdout.strip()[:80]!r}"


def cli_cold(rng, workdir: Path, traced: bool):
    items = cli_items(rng)
    scratch = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
    times, calls, process_s = [], [], {}
    miss_s = hit_s = 0.0
    for i, item in enumerate(items):
        envs = item.get("env", [{}, {}])
        cache = scratch / f"cache{i}"
        cache.mkdir()
        pair = []
        for phase, env_extra in zip(("miss", "hit"), envs):
            out = str(scratch / f"trace{i}{phase}.json") if traced else None
            dt, proc = _call(item["argv"], env_extra, scratch, str(cache), out, f"{i}:{phase}")
            pair.append((dt, proc, out))
        times.append(pair[0][0] + pair[1][0])
        calls.append(pair)
        sub = next(a for a in item["argv"] if not a.startswith("--"))
        process_s[sub] = process_s.get(sub, 0.0) + times[-1]
        miss_s += pair[0][0]
        hit_s += pair[1][0]
    peak = rss_mb(resource.RUSAGE_CHILDREN)

    problems, failed = [], []
    for i, (item, pair) in enumerate(zip(items, calls)):
        label = " ".join(item["argv"])
        trouble = [f"{phase} exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
                   for phase, (_, proc, _) in zip(("miss", "hit"), pair)
                   if proc.returncode != 0]
        hit = pair[1][1]
        env_extra = item.get("env", [{}, {}])[1]
        _, plain = _call(item["argv"], env_extra, scratch)
        if plain.returncode != hit.returncode or \
                _without_timing(plain.stdout) != _without_timing(hit.stdout):
            trouble.append("cache hit differs from the cache-less call")
        if plain.returncode != 0:
            trouble.append(f"cache-less exit {plain.returncode}")
        else:
            wrong = _check_expect(item.get("expect"), plain.stdout)
            if wrong:
                trouble.append(wrong)
        if trouble:
            failed.append(i)
            if not item.get("stale_case"):
                problems.append(f"{label}: {'; '.join(trouble)}")
    ids = [" ".join(item["argv"]) for item in items]
    extra = {"process_s": process_s, "miss_s": miss_s, "hit_s": hit_s,
             "children": [out for pair in calls for _, _, out in pair if out]}
    return ids, times, failed, peak, problems, extra


# ---------------------------------------------------------------------------

def write_spans(path: Path, spans: list[dict]):
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


WORKLOADS = {"identity-sweep": identity_sweep, "wrt-exact": wrt_exact,
             "wrt-radial": wrt_radial}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True,
                        help="directory for temporary files, traces and spans")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    workdir = Path(args.workdir)
    result: dict = {}

    if args.workload == "cli-cold":
        ids, times, failed, peak, problems, extra = cli_cold(rng, workdir, bool(args.trace))
        # reported as measured: the speed of a slice run in this process did
        # not follow that of the children (see calib.py)
        ref_times, calibration = times, {}
        if args.trace:
            parts = []
            for path in extra["children"]:
                with open(path) as fh:
                    parts.append(json.load(fh))
            summary = tracing.merge_summaries(parts)
            layers = tracing.layer_metrics(summary)
            for sub, seconds in extra["process_s"].items():
                layers[f"cli.process_s.{sub}"] = (seconds, "s")
            layers["cli.cache_miss_s"] = (extra["miss_s"], "s")
            layers["cli.cache_hit_s"] = (extra["hit_s"], "s")
            result["layers"] = layers
            # span ids are per process; a span's item names its process
            write_spans(workdir / "spans.jsonl",
                        [span for part in parts for span in part["spans"]])
        failed_flags = [i in failed for i in range(len(ids))]
    else:
        tracer = tracing.Tracer() if args.trace else None
        speed = Speedometer()
        ctx = InProcess(tracer, speed)
        ids, times, peak, problems = WORKLOADS[args.workload](rng, ctx)
        failed_flags = [False] * len(ids)
        ref_times = speed.scale()
        calibration = {"local_slices": speed.local_slices(), "samples": speed.samples}
        if tracer:
            result["layers"] = tracing.layer_metrics(tracer.summary())
            write_spans(workdir / "spans.jsonl", tracer.span_records())

    result.update({"items": ids, "times": times, "ref_times": ref_times, **calibration,
                   "failed": failed_flags, "peak_rss_mb": peak, "problems": problems})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
