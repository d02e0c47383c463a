"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload miss-mix --seed 1 --seconds 20 --trace 0

The workload runs in a fresh interpreter with a clean environment and a
temporary working directory (:mod:`hermetic`).  ``--trace 0`` reports
the ``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` runs a
fixed amount of work (one repeat; set request counts for serve-hot)
twice, untraced and then traced, and reports the ``per_layer`` metrics,
with ``trace.overhead_frac`` comparing the two; the traced run's spans
are kept in ``.perfbench/trace-<workload>.json``.
The last line of standard output is the JSON result; the lines before it
give the same numbers under the names of the workload's own domain
(``qps``, ``rps``, ``ingest_pts_s``, ``p90_ms``, ``p99_ms``), the
load generator's own load, and the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Working directories and kept traces, under the repository root.
WORKROOT = ".perfbench"
WORKLOADS = ("miss-mix", "serve-hot", "ingest-mix")
#: Wall-clock budget of the workload processes of one run (a traced run
#: starts two), leaving a few seconds of the 180 s a run may take.
RUN_BUDGET_S = 172


class RunFailed(RuntimeError):
    """A workload process crashed, timed out or returned no result."""


def _child(root: Path, args, *, seconds: float, traced: bool,
           deadline: float) -> dict:
    """Run one workload process to completion; return its JSON result.

    It is stopped at *deadline* (``time.monotonic()``).  A traced run's
    spans are kept as ``.perfbench/trace-<workload>.json``.
    """
    from hermetic import clean_env

    workroot = root / WORKROOT
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=workroot))
    try:
        results_dir = workdir / "bench-results"
        results_dir.mkdir()
        out = workdir / "result.json"
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--out", str(out)]
        if traced:
            command.append("--trace")
        if args.tiny:
            command.append("--tiny")
        # A process group of its own, so a timeout can stop the daemon too.
        proc = subprocess.Popen(command, cwd=workdir,
                                env=clean_env(root, results_dir),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(
                timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunFailed(f"{args.workload} timed out") from None
        if proc.returncode != 0 or not out.exists():
            raise RunFailed(f"{args.workload} exited {proc.returncode}:\n"
                            f"{stderr[-4000:]}")
        if traced:
            (workdir / "spans.json").replace(
                workroot / f"trace-{args.workload}.json")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _metrics(declared: list[dict], values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric, in order."""
    missing = [entry["name"] for entry in declared
               if entry["name"] not in values]
    if missing:
        raise RunFailed(f"workload did not report {missing}")
    return {entry["name"]: {"value": values[entry["name"]],
                            "unit": entry["unit"]}
            for entry in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            # Both processes do the same fixed work (--seconds 0), so the
            # per-layer totals do not grow with the speed of the code.
            untraced = _child(root, args, seconds=0, traced=False,
                              deadline=deadline)
            result = _child(root, args, seconds=0, traced=True,
                            deadline=deadline)
            result["per_layer"]["trace.overhead_frac"] = (
                result["per_op_s"] / untraced["per_op_s"] - 1.0)
            attempted = untraced["attempted"] + result["attempted"]
            failed = untraced["failed"] + result["failed"]
            errors = untraced["errors"] + result["errors"]
            metrics = _metrics(spec["per_layer"], result["per_layer"])
        else:
            result = _child(root, args, seconds=args.seconds, traced=False,
                            deadline=deadline)
            attempted, failed = result["attempted"], result["failed"]
            errors = result["errors"]
            metrics = _metrics(spec["end_to_end"], result["metrics"])
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("detail " + json.dumps(result["detail"]))
    for phase, bound in result["detail"].get("client_bound", {}).items():
        if bound:
            print(f"perfbench: WARNING: the load generator set the pace of "
                  f"the {phase}", file=sys.stderr)
    print("env " + json.dumps(result["env"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
