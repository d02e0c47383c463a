"""Run one workload in this (fresh) process and write its result as JSON.

Started by ``run.py`` in a clean environment and a temporary working
directory; see :mod:`hermetic`.  With ``--trace`` the layer wrappers of
:mod:`layers` are installed before the workload starts and the result
carries the per-layer metrics, and every span (this process's and the
traced daemon's) is written to ``spans.json`` beside the result; without
it nothing is patched.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import hermetic
import layers
import workloads
from spans import Tracer
from speed import Speedometer

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to measure for; 0 runs one repeat, "
                             "the fixed work of a traced run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    scale = workloads.TINY if args.tiny else workloads.FULL
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    try:
        run = workloads.WORKLOADS[args.workload](
            scale, args.seed, args.seconds, Speedometer(), tracer, Path.cwd())
    finally:
        if tracer is not None:
            tracer.uninstall()
    payload = {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "metrics": run.metrics,
        "detail": run.detail,
        "per_op_s": run.per_op_s,
        "env": hermetic.environment_record(ROOT),
    }
    if tracer is not None:
        spans = tracer.spans + run.spans
        (args.out.parent / "spans.json").write_text(
            json.dumps([span.to_row() for span in spans]))
        payload["per_layer"] = layers.layer_metrics(
            spans, run.setup_windows, run.timed_windows, run.counters)
    args.out.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
