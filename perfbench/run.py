#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with the program's
default telemetry; ``--trace 1`` runs the workload's fixed traced pass
(timing spans around each layer, see ``spans.py``) after an untraced
pass over the same inputs, prints the stage table and reports the
per-layer metrics.  Either way the outputs are checked, and the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each metric with its unit, as declared in
``BENCHMARK.json``).  Spans and the stage table are also written to
``.perfbench/`` in the checkout.

Exits 2 without a result when the checkout holds no program sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

# One compute thread per process, inherited by every child: the load
# stays within a small host's cores, and numpy's thread pool does not
# turn scheduler noise into benchmark noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from common import (WORK_DIR, HostClock, ProgramMissing, emit_result,
                    load_program, median, probe_setup, stage_table)
from layers import stage_rows, zero_metrics

WORKLOADS = {
    "sim-sweep": "sim_sweep",
    "advise-sweep": "advise_sweep",
    "serve-mix": "serve_mix",
    "train-codecs": "train_codecs",
}
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def parse_args(argv=None) -> argparse.Namespace:
    """Command-line interface (``--probe``, ``--corrupt`` and
    ``--tiny`` serve the set-up probe and the self-test)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    """Entry point; returns the exit code."""
    args = parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.probe is not None:
        importlib.import_module(WORKLOADS[args.probe]).prepare(args.seed)
        print("ready", flush=True)
        return 0

    # The program's default telemetry, as the CLI installs it.
    from repro.telemetry import metrics
    metrics.enable()
    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.tiny:
        workload.shrink()
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    trace = bool(args.trace)
    clock = HostClock()
    setup = None
    if not trace and not getattr(workload, "MEASURES_OWN_SETUP", False):
        setup = probe_setup(args.workload, args.seed, clock, samples=5)
    result = workload.run(args.seed, args.seconds, trace, args.corrupt,
                          reference, clock)
    failed_checks, problems = result["check"]()
    clock.burst()
    for problem in problems:
        print(f"  check failed: {problem}")
    bursts = clock.bursts
    print(f"{args.workload} seed {args.seed}: host calibration "
          f"{1 / bursts[0]:.4g} -> {1 / bursts[-1]:.4g} bursts/s, "
          f"median {clock.ops_per_s():.4g} over {len(bursts)}")

    if trace:
        values = result["metrics"]
        wall = result["traced_wall"]
        overhead = wall / result["untraced_wall"]
        rows = stage_rows(result["selfs"], wall)
        values.update({
            "bench.trace_overhead": overhead,
            "bench.unattributed_share": rows[-1][1] / wall,
            "host.calib_ops_per_s": clock.ops_per_s(),
        })
        print(stage_table(rows, wall, overhead))
        _write_trace(args, rows, wall, overhead, result)
        values = {**zero_metrics(), **values}
    else:
        values = dict(result["e2e"])
        values["setup_s"] = median(result.get("setup", setup))
    failed = result.get("failed_ops", 0) + failed_checks
    emit_result(failed_checks == 0, result["attempted"], failed, values,
                trace)
    return 0


def _write_trace(args, rows, wall, overhead, result) -> None:
    """Spans and the stage table of a traced run, as JSON."""
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR,
                        f"trace-{args.workload}-seed{args.seed}.json")
    spans, calls, counters = result["spans"]
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "traced_wall_s": wall, "trace_overhead": overhead,
                   "stages": rows, "calls": calls, "counters": counters,
                   "spans": spans}, fh)
    print(f"  spans and stage table written to {path}")


if __name__ == "__main__":
    raise SystemExit(main())
