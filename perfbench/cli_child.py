"""Run the trackbounds command line under the span tracer.

    python3 perfbench/cli_child.py DUMP.json -- <trackbounds arguments>

Behaves like `python -m trackbounds <arguments>` (same stdout, stderr and
exit code) and writes the spans and counts it recorded to DUMP.json on
exit, on an uncaught error, and on SIGTERM, so a run killed at its
deadline still reports how far it got; calls still running then end at
the signal.
"""

import json
import os
import signal
import sys

import tracer as tracing


def main() -> int:
    dump_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: cli_child.py DUMP.json -- <trackbounds arguments>")
    import trackbounds.cli

    tracer = tracing.Tracer()
    tracer.install(tracing.BINDINGS + tracing.CLI_BINDINGS)

    def dump():
        data = {"spans": tracer.spans, "counts": tracer.counts.get(0, {}),
                "missing": tracer.missing}
        with open(dump_path, "w", encoding="ascii") as fh:
            json.dump(data, fh)

    def on_term(signum, frame):
        tracer.close_open_spans()
        dump()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    tracer.op = 0
    try:
        return trackbounds.cli.main(sys.argv[3:])
    finally:
        tracer.op = None
        dump()


if __name__ == "__main__":
    sys.exit(main())
