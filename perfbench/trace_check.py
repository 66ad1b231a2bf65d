"""`trikernel check --json FILE` under the tracer, for the traced `check` runs.

Times the import of trikernel.cli, runs the command with every layer wrapped,
and writes the tracer's totals to stderr as one line after the marker
``PERFBENCH-TRACE``.  Exits with the command's exit code.
"""

import time

start = time.perf_counter()
import trikernel.cli  # noqa: E402

import_ms = (time.perf_counter() - start) * 1000.0

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    with tracer.installed():
        code = trikernel.cli.main(["check", "--json", sys.argv[1]])
    totals = tracer.snapshot()
    totals["cli.import_ms"] = import_ms
    sys.stdout.flush()
    print("PERFBENCH-TRACE " + json.dumps(totals), file=sys.stderr)
    sys.exit(code)
