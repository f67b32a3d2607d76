"""A traced ``qtheta`` call: ``python3 cli_child.py SUMMARY_FILE <qtheta args>``.

Times ``import qtheta.cli``, installs the tracer, runs ``qtheta.cli.main`` on
the arguments and writes the tracer's summary and spans to SUMMARY_FILE.  The
exit code is that of ``main``.  The item id comes from ``PERFBENCH_ITEM``.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import qtheta.cli  # noqa: E402

import_s = time.perf_counter() - start
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
tracer.begin_item(os.environ.get("PERFBENCH_ITEM", ""))
try:
    code = qtheta.cli.main(sys.argv[2:])
finally:
    tracer.end_item()
    summary = tracer.summary()
    summary["import_s"] = import_s
    summary["spans"] = tracer.span_records()
    with open(sys.argv[1], "w") as fh:
        json.dump(summary, fh)
sys.exit(code)
