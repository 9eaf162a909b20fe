"""Traced CLI process: ``python3 perfbench/cli_child.py <cli arguments>``.

Behaves like ``python -m volentropy.cli`` and, in addition, writes one line
``PERFBENCH_TRACE {json}`` to stderr with the time the interpreter reached
this file, the import window of ``volentropy.cli``, and the spans of the
traced calls.  Times are time.perf_counter(), which on Linux reads the
system-wide monotonic clock, so the parent can compare them with its own.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

t0 = time.perf_counter()
import volentropy.cli  # noqa: E402

t1 = time.perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = volentropy.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        spans = [[s.name, s.start, s.end, s.parent, s.data] for s in tracer.spans]
        record = {"started": STARTED, "import": [t0, t1], "spans": spans}
        print("PERFBENCH_TRACE " + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
