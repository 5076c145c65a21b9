"""One charbounds CLI request with per-layer timing, for the traced cold-cli run.

usage: python perfbench/cli_child.py TRACE_OUT CLI_ARGS...

Behaves like `python -m charbounds.cli CLI_ARGS...` and also writes the
per-layer figures of this process, as JSON, to TRACE_OUT.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import charbounds.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    status = cli.main(argv)
    main_s = time.perf_counter() - t0
    tracer.uninstall()
    counters = tracer.counters()
    counters["cli.import_s"] = import_s
    counters["cli.main.s"] = main_s
    with open(trace_out, "w") as fh:
        json.dump(counters, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
