"""One ``specdist`` op, run as the console script runs it.

    python3 cli_op.py REPORT.json TRACE ARGS...

Runs ``specdist ARGS...`` and exits with its status.  With TRACE = 1 every
layer is wrapped first (see tracer.py).  REPORT.json receives the peak
resident memory of this process and, when traced, the per-layer calls, self
times and counts.
"""

import json
import sys

from memory import peak_rss_kb


def main() -> int:
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from specdist.cli import main as specdist_main  # the wrapper when traced

    try:
        return specdist_main(argv)
    finally:
        report = {"peak_rss_kb": peak_rss_kb()}
        if tracer is not None:
            report["trace"] = tracer.snapshot()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
