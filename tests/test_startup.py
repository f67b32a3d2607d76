"""Start-up contract: ``import qtheta.cli`` loads every qtheta module and
registry but not mpmath, which loads on the first numeric use, and neither
``dataclasses`` nor ``inspect``.  Each check runs in a fresh interpreter, so
no earlier test has loaded them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ["catalog", "chars", "cli", "cyclo", "dsl", "errors", "identities",
           "lfunc", "report", "series", "wrt"]

#: runs qtheta.cli.main on argv and prints one JSON line: the exit code,
#: whether mpmath has loaded, which of dataclasses and inspect have loaded,
#: and the qtheta modules loaded
PROBE = """
import contextlib, io, json, sys
import qtheta.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = qtheta.cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "mpmath": "mpmath.ctx_mp" in sys.modules,
                  "stdlib": [m for m in ("dataclasses", "inspect") if m in sys.modules],
                  "modules": sorted(m for m in sys.modules if m.startswith("qtheta."))}))
"""


def probe(*argv) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QTHETA_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_every_module_but_not_mpmath():
    state = probe()
    assert state["modules"] == [f"qtheta.{name}" for name in MODULES]
    assert not state["mpmath"]


def test_import_loads_neither_dataclasses_nor_inspect():
    """The records are plain ``__slots__`` classes: building them needs
    neither ``dataclasses`` nor the ``inspect`` module it imports."""
    assert probe()["stdlib"] == []


@pytest.mark.parametrize("argv", [
    ("expand", "chi0", "--order", "10"),
    ("dsl", "qbin(5, 2)"),
    ("lvalue", "chi60_111", "1"),
])
def test_exact_commands_do_not_load_mpmath(argv):
    state = probe(*argv)
    assert state["code"] == 0 and state["stdout"]
    assert not state["mpmath"]


def test_numeric_command_loads_mpmath_and_prints_in_process_value():
    from qtheta import cli, wrt

    state = probe("wrt", "m_2_3_3", "4", "--method", "radial_numeric")
    assert state["code"] == 0 and state["mpmath"]
    value = wrt.wrt_invariant("m_2_3_3", 4, "radial_numeric").value
    want = cli._format_value(value, 128)["complex"]
    assert state["stdout"].splitlines()[-1] == f"  complex: {want}"


#: computes tau_N by the two exact routes that need no numeric step, at every
#: record and N = 2..12, and prints whether mpmath has loaded
EXACT_WRT = """
import json, sys
from qtheta import wrt
from qtheta.errors import DegenerateCaseError, UnsupportedMethodError
count = 0
for manifold in wrt.theorem_ids():
    for method in ("eichler_limit", "surgery_series"):
        for n in range(2, 13):
            try:
                count += bool(wrt.wrt_invariant(manifold, n, method).value.text())
            except (DegenerateCaseError, UnsupportedMethodError):
                pass
print(json.dumps({"count": count, "mpmath": "mpmath.ctx_mp" in sys.modules}))
"""


def test_exact_invariants_do_not_load_mpmath():
    env = {k: v for k, v in os.environ.items() if not k.startswith("QTHETA_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", EXACT_WRT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state["count"] > 100 and not state["mpmath"]
