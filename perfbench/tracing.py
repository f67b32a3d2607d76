"""In-memory tracing of qtheta from the outside, and the seeded layer kernels.

``Tracer.install`` rebinds public functions and operators of the already
imported qtheta modules to timing wrappers.  A wrapper is placed on every
module-level name that holds the original object, because callers look the
name up where they imported it (``catalog`` binds ``false_theta_radial_limit``
at import, for example).  Nothing under ``src/qtheta`` changes.

Two kinds of wrapper:

* a *span* wrapper records ``(name, start, end, parent, item)`` for every call;
  it sits on the module boundaries (catalog, chars, identities, wrt, lfunc,
  dsl and ``pochhammer_inverse``);
* an *op* wrapper sits on the ``CycloNumber`` and ``QSeries`` operators, which
  run millions of times: it counts every call, but opens a timing frame only
  when the caller is outside its layer, and stores no span.

Each frame adds its duration to its parent frame's child time, so a layer's
self time is the time of its frames minus the part their children cover.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter

#: (module, qualified attribute, layer, counter) for the op wrappers
_OPS = [
    ("qtheta.cyclo", "CycloNumber.__add__", "cyclo", "add"),
    ("qtheta.cyclo", "CycloNumber.__radd__", "cyclo", "add"),
    ("qtheta.cyclo", "CycloNumber.__sub__", "cyclo", "add"),
    ("qtheta.cyclo", "CycloNumber.__rsub__", "cyclo", "add"),
    ("qtheta.cyclo", "CycloNumber.__neg__", "cyclo", None),
    ("qtheta.cyclo", "CycloNumber.__mul__", "cyclo", "mul"),
    ("qtheta.cyclo", "CycloNumber.__rmul__", "cyclo", "mul"),
    ("qtheta.cyclo", "CycloNumber.__truediv__", "cyclo", None),
    ("qtheta.cyclo", "CycloNumber.inv", "cyclo", "inv"),
    ("qtheta.cyclo", "CycloNumber.promote", "cyclo", "promote"),
    ("qtheta.cyclo", "CycloNumber.to_complex", "cyclo", None),
    ("qtheta.cyclo", "root_weighted_sum", "cyclo", None),
    ("qtheta.series", "QSeries.__add__", "series", None),
    ("qtheta.series", "QSeries.__radd__", "series", None),
    ("qtheta.series", "QSeries.__sub__", "series", None),
    ("qtheta.series", "QSeries.__rsub__", "series", None),
    ("qtheta.series", "QSeries.__neg__", "series", None),
    ("qtheta.series", "QSeries.__mul__", "series", "mul"),
    ("qtheta.series", "QSeries.__rmul__", "series", "mul"),
    ("qtheta.series", "QSeries.shift", "series", None),
    ("qtheta.series", "QSeries.truncate", "series", None),
    ("qtheta.series", "QSeries.first_mismatch", "series", None),
    ("qtheta.series", "QSeries.text", "series", None),
    ("qtheta.series", "pochhammer", "series", None),
    ("qtheta.series", "series_inverse", "series", None),
    ("qtheta.series", "q_binomial", "series", None),
    ("qtheta.series", "substitute_power", "series", None),
    ("qtheta.series", "substitute_sign", "series", None),
]

#: (module, qualified attribute, layer, span name or a function of the call
#: arguments that returns it)
_SPANS = [
    ("qtheta.series", "pochhammer_inverse", "series", "series.pochhammer_inverse"),
    ("qtheta.chars", "false_theta_radial_limit", "chars", "chars.radial_limit"),
    ("qtheta.chars", "false_theta_radial_numeric", "chars", "chars.radial_numeric"),
    ("qtheta.catalog", "expand", "catalog", "catalog.expand"),
    ("qtheta.catalog", "value_at_root", "catalog",
     lambda args, kw: "catalog.value_at_root." + kw.get(
         "method", args[3] if len(args) > 3 else "eichler")),
    ("qtheta.identities", "IdentityRecord.run", "identities",
     lambda args, kw: "identities.record." + min(args[0].tags, default="untagged")),
    ("qtheta.wrt", "wrt_invariant", "wrt", "wrt.invariant"),
    ("qtheta.wrt", "cross_verify", "wrt", "wrt.cross_verify"),
    ("qtheta.wrt", "Prefactor.inverse", "wrt", "wrt.prefactor_inverse"),
    ("qtheta.lfunc", "l_value", "lfunc", "lfunc.l_value"),
    ("qtheta.dsl", "eval_dsl", "dsl", "dsl.eval"),
]

RECORD_TAGS = ("proposition", "fine-form", "structural", "terminating", "surgery",
               "classical", "transformation", "tseries")
ROUTE_NAMES = ("eichler", "qseries", "surgery", "radial")


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.enabled = False
        self.item = None
        self.spans: list[tuple] = []      # (name, start, end, parent, item)
        self.stack: list[list] = []       # [layer, name, start, child_s, span id]
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.failures: dict = defaultdict(int)
        self.lru_hits = 0
        self.lru_calls = 0

    # -- wrappers --------------------------------------------------------
    def _op(self, fn, layer: str, counter):
        tracer = self
        count_key = f"{layer}.{counter}_calls" if counter else None
        pairs = layer == "series" and counter == "mul"

        def wrapper(*args, **kw):
            if not tracer.enabled:
                return fn(*args, **kw)
            if count_key:
                tracer.counts[count_key] += 1
                if pairs:
                    other = args[1]
                    tracer.counts["series.mul_term_pairs"] += len(args[0].coeffs) * (
                        len(other.coeffs) if hasattr(other, "coeffs") else 1)
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kw)
            frame = [layer, None, perf_counter(), 0.0, None]
            stack.append(frame)
            try:
                return fn(*args, **kw)
            finally:
                tracer._close(frame)
        return wrapper

    def _span(self, fn, layer: str, name):
        tracer = self

        def wrapper(*args, **kw):
            if not tracer.enabled:
                return fn(*args, **kw)
            span_name = name(args, kw) if callable(name) else name
            frame = [layer, span_name, perf_counter(), 0.0, len(tracer.spans)]
            tracer.spans.append(None)  # reserve the id; filled in on exit
            tracer.stack.append(frame)
            try:
                return fn(*args, **kw)
            except Exception:
                tracer.failures[span_name] += 1
                raise
            finally:
                tracer._close(frame)
        return wrapper

    def _close(self, frame):
        end = perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame[2]
        self.self_s[frame[0]] += duration - frame[3]
        if stack:
            stack[-1][3] += duration
        if frame[4] is not None:
            parent = next((f[4] for f in reversed(stack) if f[4] is not None), None)
            self.spans[frame[4]] = (frame[1], frame[2], end, parent, self.item)

    def install(self):
        """Rebind every module-level and class-level name that holds a traced
        function.  Call after ``import qtheta.cli`` has loaded every module."""
        for mod_name, attr, layer, counter in _OPS:
            self._rebind(mod_name, attr, lambda fn, layer=layer, counter=counter:
                         self._op(fn, layer, counter))
        for mod_name, attr, layer, name in _SPANS:
            self._rebind(mod_name, attr, lambda fn, layer=layer, name=name:
                         self._span(fn, layer, name))

    def _rebind(self, mod_name: str, attr: str, make):
        owner = sys.modules[mod_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            setattr(owner, attr, make(owner.__dict__[attr]))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for module in [m for name, m in sys.modules.items()
                       if name == "qtheta" or name.startswith("qtheta.")]:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)

    # -- per-item bookkeeping -------------------------------------------
    def begin_item(self, item_id: str):
        self.item = item_id
        self.enabled = True

    def end_item(self):
        self.enabled = False
        self.item = None

    def note_memo(self, hits: int, calls: int):
        self.lru_hits += hits
        self.lru_calls += calls

    # -- output ------------------------------------------------------------
    def summary(self) -> dict:
        """Totals that add across processes (the cli-cold children)."""
        totals: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        durations: dict = defaultdict(list)
        for name, start, end, parent, _item in self.spans:
            calls[name] += 1
            durations[name].append(end - start)
        # inclusive time of a name counts only its outermost calls
        for name, start, end, parent, _item in self.spans:
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                totals[name] += end - start
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "span_calls": dict(calls), "span_s": dict(totals),
                "failures": dict(self.failures),
                "radial_numeric_durations": durations.get("chars.radial_numeric", []),
                "lru_hits": self.lru_hits, "lru_calls": self.lru_calls}

    def span_records(self) -> list[dict]:
        return [{"id": i, "name": name, "start": start, "end": end, "parent": parent,
                 "item": item} for i, (name, start, end, parent, item) in enumerate(self.spans)]


def merge_summaries(parts: list[dict]) -> dict:
    out: dict = {"self_s": defaultdict(float), "counts": defaultdict(int),
                 "span_calls": defaultdict(int), "span_s": defaultdict(float),
                 "failures": defaultdict(int), "radial_numeric_durations": [],
                 "lru_hits": 0, "lru_calls": 0}
    for part in parts:
        for key in ("self_s", "counts", "span_calls", "span_s", "failures"):
            for name, value in part[key].items():
                out[key][name] += value
        out["radial_numeric_durations"] += part["radial_numeric_durations"]
        out["lru_hits"] += part["lru_hits"]
        out["lru_calls"] += part["lru_calls"]
    return out


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics that come from spans and counters."""
    self_s, counts = summary["self_s"], summary["counts"]
    calls, span_s = summary["span_calls"], summary["span_s"]
    out = {}
    for layer in ("cyclo", "series", "chars", "catalog", "identities", "wrt"):
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for op in ("mul", "add", "inv", "promote"):
        out[f"cyclo.{op}_calls"] = (counts.get(f"cyclo.{op}_calls", 0), "count")
    out["series.mul_calls"] = (counts.get("series.mul_calls", 0), "count")
    out["series.mul_term_pairs"] = (counts.get("series.mul_term_pairs", 0), "count")
    out["series.pochhammer_inverse_calls"] = (
        calls.get("series.pochhammer_inverse", 0), "count")
    out["series.pochhammer_inverse_s"] = (span_s.get("series.pochhammer_inverse", 0.0), "s")
    numeric = summary["radial_numeric_durations"]
    out["chars.radial_numeric_calls"] = (calls.get("chars.radial_numeric", 0), "count")
    out["chars.radial_numeric_s"] = (span_s.get("chars.radial_numeric", 0.0), "s")
    out["chars.radial_numeric_call_s"] = (
        statistics.median(numeric) if numeric else 0.0, "s")
    out["chars.radial_limit_calls"] = (calls.get("chars.radial_limit", 0), "count")
    out["chars.radial_limit_s"] = (span_s.get("chars.radial_limit", 0.0), "s")
    out["chars.radial_limit_hit_ratio"] = (
        summary["lru_hits"] / summary["lru_calls"] if summary["lru_calls"] else 0.0, "ratio")
    out["catalog.expand_calls"] = (calls.get("catalog.expand", 0), "count")
    out["catalog.expand_s"] = (span_s.get("catalog.expand", 0.0), "s")
    made = returned = 0
    for route in ROUTE_NAMES:
        name = f"catalog.value_at_root.{route}"
        out[f"catalog.value_at_root_calls.{route}"] = (calls.get(name, 0), "count")
        out[f"catalog.value_at_root_s.{route}"] = (span_s.get(name, 0.0), "s")
        made += calls.get(name, 0)
        returned += calls.get(name, 0) - summary["failures"].get(name, 0)
    out["catalog.route_yield"] = (returned / made if made else 0.0, "ratio")
    for tag in RECORD_TAGS:
        out[f"identities.record_s.{tag}"] = (span_s.get(f"identities.record.{tag}", 0.0), "s")
    out["wrt.invariant_s"] = (span_s.get("wrt.invariant", 0.0), "s")
    out["wrt.prefactor_inverse_s"] = (span_s.get("wrt.prefactor_inverse", 0.0), "s")
    out["dsl.eval_s"] = (span_s.get("dsl.eval", 0.0), "s")
    out["lfunc.l_value_s"] = (span_s.get("lfunc.l_value", 0.0), "s")
    return out


# ---------------------------------------------------------------------------
# kernels: single operations on seeded inputs, timed with tracing off
# ---------------------------------------------------------------------------

def _median_per_op(fn, pairs, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = perf_counter()
        for a, b in pairs:
            fn(a, b)
        times.append((perf_counter() - start) / len(pairs))
    return statistics.median(times)


def kernels(seed: int) -> dict:
    from fractions import Fraction

    from qtheta.cyclo import CycloNumber, euler_phi
    from qtheta.series import INFINITY, Monomial, QSeries, pochhammer_inverse

    rng = random.Random(seed)

    def cyclo(m: int) -> CycloNumber:
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(euler_phi(m))]
        return CycloNumber.from_coords(m, coords)

    def sparse(m: int) -> CycloNumber:
        """Three small integer coordinates, like the prefactor factors that
        wrt inverts; a dense random element takes seconds to invert at M=168."""
        coords = [0] * euler_phi(m)
        for i in rng.sample(range(len(coords)), 3):
            coords[i] = rng.choice((-3, -2, -1, 1, 2, 3))
        return CycloNumber.from_coords(m, coords)

    def pairs(m: int, n: int):
        return [(cyclo(m), cyclo(m)) for _ in range(n)]

    out = {}
    for m, n in ((12, 400), (60, 200), (168, 60)):
        out[f"cyclo.mul_M{m}_us"] = (
            1e6 * _median_per_op(lambda a, b: a * b, pairs(m, n), 5), "us")
    out["cyclo.add_M60_us"] = (1e6 * _median_per_op(lambda a, b: a + b, pairs(60, 400), 5), "us")
    for m, n in ((60, 40), (168, 10)):
        out[f"cyclo.inv_M{m}_us"] = (1e6 * _median_per_op(
            lambda a, b: a.inv(), [(sparse(m), None) for _ in range(n)], 3), "us")

    def dense(t: int, k: int) -> QSeries:
        if k == 1:
            coeffs = {n: Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 4)) for n in range(t)}
        else:
            coeffs = {n: cyclo(k) for n in range(t)}
        return QSeries.make(1, t, coeffs, k)

    out["series.mul_T200_K1_ms"] = (
        1e3 * _median_per_op(lambda a, b: a * b, [(dense(200, 1), dense(200, 1))], 5), "ms")
    out["series.mul_T200_K12_ms"] = (
        1e3 * _median_per_op(lambda a, b: a * b, [(dense(200, 12), dense(200, 12))], 3), "ms")
    out["series.pochhammer_inverse_T200_ms"] = (1e3 * _median_per_op(
        lambda a, b: pochhammer_inverse(a, b, INFINITY, 200), [(Monomial.q(1), 1)], 5), "ms")
    return out
