#!/usr/bin/env python
"""Validate a ``--trace-run`` Perfetto file and a Prometheus snapshot.

``make trace-smoke`` (and the CI job of the same name) runs a tiny
traced experiment sweep, then points this checker at the two artifacts
it produced:

``--trace PATH``
    A Chrome-trace JSON written by ``repro experiment ... --trace-run``.
    Checked for the envelope shape (``traceEvents`` list), process and
    thread metadata (an ``engine`` process; workers named
    ``worker-<pid>``), well-formed complete (``"X"``) events carrying
    span identity in ``args`` (``trace_id``/``span_id``), a single
    trace id across the file, and span names the instrumented layers
    are known to emit (the experiment/exhibit CLI spans and the
    engine's queue-wait span).

``--prom PATH``
    A text-exposition snapshot written beside the manifest (or by
    ``repro metrics --format prom``).  Validated line by line with
    :func:`repro.telemetry.metrics.validate_prometheus_text`, and
    required to carry the tracing counters
    (``trace_spans_total``/``trace_export_bytes_total``).

``--serial-manifest PATH``
    The manifest of a serial (``--jobs 1``) run of the same exhibits.
    Every exhibit digest in it must equal the one in the pooled run's
    manifest, which the CLI writes beside the ``--prom`` snapshot
    (``manifest.json``): results never depend on execution shape.

Exits non-zero with one problem per line on stderr, so the make target
fails loudly and the CI log says exactly what shape broke.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.telemetry.metrics import validate_prometheus_text  # noqa: E402

#: Span names every traced experiment run must have emitted: the CLI
#: entry span, at least one exhibit span, and the engine's per-job
#: queue-wait span (proof that worker context propagation worked).
REQUIRED_NAME_PREFIXES = ("experiment ", "exhibit ", "queue-wait")

#: Counters the prom snapshot of a traced run must expose.
REQUIRED_COUNTERS = ("trace_spans_total", "trace_export_bytes_total")


def check_trace(path: str) -> List[str]:
    """Structural problems with the Perfetto trace at ``path``."""
    problems: List[str] = []
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable trace JSON: {exc}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return [f"{path}: no traceEvents list"]

    process_names = set()
    complete = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        phase = event.get("ph")
        if phase == "M":
            if event.get("name") == "process_name":
                process_names.add(event.get("args", {}).get("name"))
        elif phase == "X":
            complete.append(event)
            for field in ("name", "pid", "tid", "ts", "dur"):
                if field not in event:
                    problems.append(
                        f"event {i} ({event.get('name')!r}): "
                        f"missing {field!r}")
            args = event.get("args", {})
            for field in ("trace_id", "span_id"):
                if not args.get(field):
                    problems.append(
                        f"event {i} ({event.get('name')!r}): "
                        f"args missing {field!r}")
        else:
            problems.append(f"event {i}: unknown phase {phase!r}")

    if "engine" not in process_names:
        problems.append(f"no 'engine' process metadata "
                        f"(processes: {sorted(map(str, process_names))})")
    if not any(str(n).startswith("worker-") for n in process_names):
        problems.append("no 'worker-<pid>' process metadata — worker "
                        "span propagation produced nothing")
    if not complete:
        problems.append("no complete ('X') span events")

    trace_ids = {e.get("args", {}).get("trace_id") for e in complete}
    trace_ids.discard(None)
    if len(trace_ids) > 1:
        problems.append(f"more than one trace_id in a single run: "
                        f"{sorted(trace_ids)}")

    names = [str(e.get("name", "")) for e in complete]
    for prefix in REQUIRED_NAME_PREFIXES:
        if not any(name.startswith(prefix) for name in names):
            problems.append(f"no span named {prefix!r}*")
    return problems


def check_prom(path: str) -> List[str]:
    """Problems with the Prometheus text snapshot at ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return [f"{path}: unreadable prom snapshot: {exc}"]
    problems = list(validate_prometheus_text(text))
    for counter in REQUIRED_COUNTERS:
        if f"\n{counter}" not in f"\n{text}":
            problems.append(f"missing counter {counter!r}")
    return problems


def check_digests(pooled_path: str, serial_path: str) -> List[str]:
    """Exhibits whose digest differs between two run manifests."""
    digests = []
    for path in (pooled_path, serial_path):
        try:
            with open(path, encoding="utf-8") as handle:
                exhibits = json.load(handle)["results"]["exhibits"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"{path}: unreadable manifest: {exc!r}"]
        digests.append({name: entry.get("digest")
                        for name, entry in exhibits.items()})
    pooled, serial = digests
    if not pooled:
        return [f"{pooled_path}: no exhibits"]
    if pooled.keys() != serial.keys():
        return [f"exhibits differ: pooled {sorted(pooled)} vs serial "
                f"{sorted(serial)}"]
    return [f"exhibit {name}: pooled digest {pooled[name]} != serial "
            f"{serial[name]}" for name in sorted(pooled)
            if pooled[name] != serial[name]]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 when every artifact checks out."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="PATH",
                        help="Perfetto trace JSON from --trace-run")
    parser.add_argument("--prom", metavar="PATH",
                        help="Prometheus text snapshot to validate")
    parser.add_argument("--serial-manifest", metavar="PATH",
                        help="manifest of a serial run of the same "
                             "exhibits; its digests must equal the "
                             "manifest.json beside --prom")
    args = parser.parse_args(argv)
    if not args.trace and not args.prom:
        parser.error("nothing to check: pass --trace and/or --prom")
    if args.serial_manifest and not args.prom:
        parser.error("--serial-manifest needs --prom (the pooled run's "
                     "manifest sits beside its snapshot)")

    problems: List[str] = []
    if args.trace:
        found = check_trace(args.trace)
        problems += [f"trace: {p}" for p in found]
        if not found:
            print(f"trace ok: {args.trace}")
    if args.prom:
        found = check_prom(args.prom)
        problems += [f"prom: {p}" for p in found]
        if not found:
            print(f"prom ok: {args.prom}")
    if args.serial_manifest:
        pooled = os.path.join(os.path.dirname(args.prom) or ".",
                              "manifest.json")
        found = check_digests(pooled, args.serial_manifest)
        problems += [f"digests: {p}" for p in found]
        if not found:
            print(f"digests ok: {pooled} == {args.serial_manifest}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
