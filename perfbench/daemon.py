"""Launch ``repro serve`` with the traced run's spans installed.

Usage: ``python daemon.py TRACE_OUT serve --index PATH ...`` — installs
the same layer wrappers the in-process workloads use (plus the wire,
admission and load call sites only the daemon reaches), runs
``repro.cli.main`` with the remaining arguments, and after the SIGTERM
drain writes the recorded spans to ``TRACE_OUT`` as JSON.  Timed runs
start the daemon with ``python -m repro serve`` instead, so no wrapper
is ever loaded into them.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    import layers
    from spans import Tracer

    trace_out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    layers.install(tracer, daemon=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_args)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
