"""Run one mpnspace command with every public function traced.

Usage: python perfbench/traced_cli.py SPANS_PATH ARG...

Times ``import mpnspace.cli`` and the modules it loads before the
tracer is imported, runs the command as ``mpnspace ARG...`` would, then
writes the spans to SPANS_PATH.json/.bin and exits with the command's
exit code.
"""

import sys
import time

sys.dont_write_bytecode = True
before = len(sys.modules)
t0 = time.perf_counter()
import mpnspace.cli  # noqa: E402

import_s = time.perf_counter() - t0
modules_loaded = len(sys.modules) - before

import tracer  # noqa: E402

spans_path = sys.argv[1]
trace = tracer.Tracer()
trace.install()
code = 0
try:
    mpnspace.cli.main(args=sys.argv[2:], prog_name="mpnspace")
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
finally:
    sys.stdout.flush()
    trace.dump(spans_path, import_s=import_s, modules_loaded=modules_loaded)
sys.exit(code)
