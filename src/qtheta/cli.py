"""Command-line front end.

Subcommands: expand, verify, wrt, lvalue, asym, hatcheck, dsl.  Global flags
--json, --jobs, --cache, --config.  Exit codes: 0 all checks passed, 1 a
verification failed, 2 usage or domain error.

Configuration keys (order, precision_bits, cache_dir, jobs) come from, in
decreasing precedence: command-line flags, QTHETA_* environment variables, a
line-based ``key = value`` config file (--config or QTHETA_CONFIG or
./qtheta.conf), and built-in defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import mpmath

from . import __version__, catalog, dsl, lfunc, wrt
from .cyclo import CycloNumber
from .errors import DomainError, QThetaError
from .report import VerificationReport

_DEFAULTS = {"order": 100, "precision_bits": 128, "cache_dir": "", "jobs": 1}
_ENV_KEYS = {"order": "QTHETA_ORDER", "precision_bits": "QTHETA_PRECISION_BITS",
             "cache_dir": "QTHETA_CACHE_DIR", "jobs": "QTHETA_JOBS"}


def _load_config(path: str | None) -> dict:
    candidates = [path, os.environ.get("QTHETA_CONFIG"), "qtheta.conf"]
    settings = dict(_DEFAULTS)
    for cand in candidates:
        if cand and Path(cand).is_file():
            for line in Path(cand).read_text().splitlines():
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise QThetaError(f"bad config line (need key = value): {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key in settings:
                    settings[key] = value.strip()
            break
    for key, env in _ENV_KEYS.items():
        if env in os.environ:
            settings[key] = os.environ[env]
    for key in ("order", "precision_bits", "jobs"):
        try:
            settings[key] = int(settings[key])
        except ValueError:
            raise DomainError(f"config key {key!r} needs an integer, "
                              f"got {settings[key]!r}") from None
    return settings


_CACHE_FIELDS = {"exit_code", "payload", "lines"}


def _cache_lookup(cache_dir: str, key: dict):
    """(stored entry or None, path); an unreadable or corrupt file is a miss
    and gets overwritten by the next store."""
    if not cache_dir:
        return None, None
    blob = json.dumps(key, sort_keys=True).encode()
    digest = hashlib.sha256(blob).hexdigest()
    path = Path(cache_dir) / f"{digest}.json"
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError):
        return None, path
    if not isinstance(entry, dict) or not _CACHE_FIELDS <= entry.keys():
        return None, path
    return entry, path


def _cache_store(path, payload: dict):
    """Write through a temporary file in the same directory and rename it
    into place, so a reader never sees a half-written entry."""
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload, indent=1, sort_keys=False))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(payload: dict, as_json: bool, lines: list[str]):
    if as_json:
        print(json.dumps(payload, indent=1))
    else:
        for line in lines:
            print(line)


def _elapsed_ms(start: float) -> float:
    return round((time.perf_counter() - start) * 1000, 3)


def _payload(command: str, status: str, results, start: float) -> dict:
    """The JSON envelope of a computed answer; ``cached`` is false here and
    set to true, with the hit's own ``elapsed_ms``, when a cache hit replays
    it."""
    return {
        "schema": 1,
        "tool": "qtheta",
        "version": __version__,
        "command": command,
        "status": status,
        "cached": False,
        "elapsed_ms": _elapsed_ms(start),
        "results": results,
    }


def _report_lines(reports: list[VerificationReport]) -> list[str]:
    return [str(r) for r in reports]


# -- subcommand implementations --------------------------------------------------

def _cmd_expand(args, cfg) -> tuple[int, dict, list[str]]:
    order = cfg["order"] if args.order is None else args.order
    series = catalog.expand(args.id, order, args.variant)
    text = series.text()
    result = {"id": args.id, "variant": args.variant or "defining",
              "order": order, "series": text}
    return 0, result, [text]


def _cmd_verify(args, cfg) -> tuple[int, dict, list[str]]:
    tags = set(args.tags.split(",")) if args.tags else None
    if args.all:
        reports = catalog.verify_all(args.order, tags=tags, jobs=args.jobs or cfg["jobs"])
    else:
        if not args.id:
            raise QThetaError("give an identity id or --all")
        reports = [catalog.verify_identity(args.id, args.order)]
    status = "pass" if all(r.passed for r in reports) else "fail"
    code = 0 if status == "pass" else 1
    return code, {"status": status, "reports": [r.to_json() for r in reports]}, \
        _report_lines(reports)


def _format_value(value, precision_bits: int) -> dict:
    if isinstance(value, CycloNumber):
        return {"cyclotomic": value.text(),
                "complex": mpmath.nstr(value.to_complex(precision_bits), 17)}
    return {"complex": mpmath.nstr(mpmath.mpc(value), 17)}


def _cmd_wrt(args, cfg) -> tuple[int, dict, list[str]]:
    if args.cross:
        reports = wrt.cross_verify(args.manifold, [args.n], always_numeric=True)
        status = "pass" if all(r.passed for r in reports) else "fail"
        return (0 if status == "pass" else 1,
                {"manifold": args.manifold, "N": args.n, "status": status,
                 "reports": [r.to_json() for r in reports]},
                _report_lines(reports))
    result = wrt.wrt_invariant(args.manifold, args.n, args.method)
    value = _format_value(result.value, cfg["precision_bits"])
    lines = [f"tau_{args.n}({args.manifold}) via {result.method}:"]
    if "cyclotomic" in value:
        lines.append(f"  exact:   {value['cyclotomic']}")
    lines.append(f"  complex: {value['complex']}")
    return 0, {"manifold": args.manifold, "N": args.n, "method": result.method,
               "value": value}, lines


def _cmd_lvalue(args, cfg) -> tuple[int, dict, list[str]]:
    value = lfunc.l_value(args.char, args.k, args.method)
    text = str(value)
    return 0, {"char": args.char, "k": args.k, "method": args.method,
               "value": text}, [text]


def _cmd_asym(args, cfg) -> tuple[int, dict, list[str]]:
    rep = lfunc.asymptotic_check_basis(args.p, args.a, args.n, args.k)
    ok = rep.remainder <= 2 * rep.next_term or rep.remainder < 1e-25
    lines = [f"P={args.p} a={args.a} N={args.n} K={args.k}:",
             f"  remainder after K terms: {rep.remainder:.6e}",
             f"  next term magnitude:     {rep.next_term:.6e}",
             f"  ratio:                   {rep.ratio:.4f}"]
    return (0 if ok else 1,
            {"P": args.p, "a": args.a, "N": args.n, "K": args.k,
             "remainder": rep.remainder, "next_term": rep.next_term,
             "ratio": rep.ratio, "status": "pass" if ok else "fail"}, lines)


def _cmd_hatcheck(args, cfg) -> tuple[int, dict, list[str]]:
    z = complex(args.re, args.im)
    rep = lfunc.verify_nearly_modular_hat(args.p, args.a, z, args.tol)
    return (0 if rep.passed else 1,
            {"P": args.p, "a": args.a, "z": [args.re, args.im],
             "report": rep.to_json()}, [str(rep)])


def _cmd_dsl(args, cfg) -> tuple[int, dict, list[str]]:
    order = cfg["order"] if args.order is None else args.order
    outcome = dsl.eval_dsl(args.expression, order)
    if isinstance(outcome, VerificationReport):
        return (0 if outcome.passed else 1,
                {"expression": args.expression, "order": order,
                 "report": outcome.to_json()}, [str(outcome)])
    text = outcome.text()
    return 0, {"expression": args.expression, "order": order, "series": text}, [text]


# -- argument parsing -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand's unset flags from clobbering values parsed
    # before the subcommand name
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit one JSON object")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker processes for verify --all")
    common.add_argument("--cache", metavar="DIR", default=argparse.SUPPRESS,
                        help="content-addressed result cache directory")
    common.add_argument("--config", metavar="FILE", default=argparse.SUPPRESS,
                        help="config file (key = value lines)")
    parser = argparse.ArgumentParser(
        prog="qtheta", parents=[common],
        description="Exact q-series workbench: identity verification and "
                    "quantum invariants of small Seifert manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("expand", help="series of a catalogued function")
    p.add_argument("id", help="function id, e.g. chi0_star (see docs for the list)")
    p.add_argument("--order", type=int, default=None,
                   help="truncation in the natural fractional variable")
    p.add_argument("--variant", default=None,
                   help="variant name (defining, false_theta, ...)")
    p.set_defaults(fn=_cmd_expand)

    p = add_parser("verify", help="run identity records")
    p.add_argument("id", nargs="?", help="identity id")
    p.add_argument("--all", action="store_true", help="run the whole registry")
    p.add_argument("--order", type=int, default=None, help="truncation override")
    p.add_argument("--tags", default=None, help="comma-separated tag filter")
    p.set_defaults(fn=_cmd_verify)

    p = add_parser("wrt", help="quantum invariant of a Seifert manifold")
    p.add_argument("manifold", help="manifold id, e.g. sigma_2_3_5, m_2_2_6, s3")
    p.add_argument("n", type=int, help="root order N >= 2")
    p.add_argument("--method", default="eichler_limit",
                   choices=list(wrt.METHODS), help="computation route")
    p.add_argument("--cross", action="store_true",
                   help="cross-verify every available route at this N")
    p.set_defaults(fn=_cmd_wrt)

    p = add_parser("lvalue", help="L(-2k, chi) as an exact rational")
    p.add_argument("char", help="character id, e.g. chi60_111")
    p.add_argument("k", type=int)
    p.add_argument("--method", default="bernoulli",
                   choices=["bernoulli", "cos_generating"])
    p.set_defaults(fn=_cmd_lvalue)

    p = add_parser("asym", help="asymptotic expansion check at 1/N")
    p.add_argument("p", type=int)
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(fn=_cmd_asym)

    p = add_parser("hatcheck", help="lower-half-plane transformation check")
    p.add_argument("p", type=int)
    p.add_argument("a", type=int)
    p.add_argument("re", type=float)
    p.add_argument("im", type=float)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_hatcheck)

    p = add_parser("dsl", help="evaluate or verify a DSL expression")
    p.add_argument("expression")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(fn=_cmd_dsl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    for name, default in (("json", False), ("jobs", None), ("cache", None),
                          ("config", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        cfg = _load_config(args.config)
        cache_dir = args.cache if args.cache is not None else cfg["cache_dir"]
        cache_key = {
            "version": __version__,
            "command": args.command,
            "args": {k: v for k, v in sorted(vars(args).items())
                     if k not in ("fn", "json", "cache", "config", "jobs")},
            "config": {k: cfg[k] for k in ("order", "precision_bits")},
        }
        start = time.perf_counter()
        cached, cache_path = _cache_lookup(cache_dir, cache_key)
        if cached is not None:
            payload = dict(cached["payload"], cached=True,
                           elapsed_ms=_elapsed_ms(start))
            _emit(payload, args.json, cached["lines"])
            return cached["exit_code"]
        code, results, lines = args.fn(args, cfg)
        payload = _payload(args.command, "pass" if code == 0 else "fail",
                           results, start)
        _cache_store(cache_path, {"exit_code": code, "payload": payload,
                                  "lines": lines})
        _emit(payload, args.json, lines)
        return code
    except QThetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
