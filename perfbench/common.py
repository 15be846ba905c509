"""Shared helpers of the benchmark: paths, statistics, host calibration,
memory readings, set-up probes and the result line.

Everything here is benchmark-side.  The program under test is imported
from the checkout's ``src/`` tree only (see :func:`load_program`), so the
benchmark measures exactly the code it ships with.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Sequence, Tuple

#: Root of the checkout: the directory holding ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space of the benchmark inside the checkout (git-ignored).
WORK_DIR = os.path.join(ROOT, ".perfbench")
#: Where the program's sources live in the checkout.
SRC_DIR = os.path.join(ROOT, "src")


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def load_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/`` tree."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise ProgramMissing(
            f"no program sources under {SRC_DIR}; run from a checkout")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def work_dir(name: str) -> str:
    """A fresh, empty scratch directory under :data:`WORK_DIR`."""
    path = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    remove_tree(path)
    os.makedirs(path)
    return path


def remove_tree(path: str) -> None:
    """Delete ``path`` recursively if it exists (no symlink following)."""
    if not os.path.lexists(path):
        return
    if os.path.isdir(path) and not os.path.islink(path):
        for entry in os.listdir(path):
            remove_tree(os.path.join(path, entry))
        os.rmdir(path)
    else:
        os.unlink(path)


# ----- statistics -----------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    """Median, NaN for an empty sample."""
    values = list(values)
    return statistics.median(values) if values else math.nan


# ----- host and process readings --------------------------------------------

class HostClock:
    """Measures units of work in reference-host seconds.

    Shared cloud hosts drift in speed by a third over tens of seconds
    (frequency changes, busy neighbours), far more than the changes the
    benchmark must resolve.  Around every unit of work the clock runs a
    short, fixed calibration burst that does not touch the program:
    canonical JSON encoding and hashing of a nested document, many small
    numpy operations, and precision casts and products of 256-wide
    matrices, the mix the program itself spends its time on.  A unit's
    wall time is scaled by ``REFERENCE_BURST_S`` over the mean duration
    of the bursts just before and after it, so a slow spell of the host
    lengthens the bursts as much as the unit and cancels out, while a
    change to the program moves the unit alone.

    ``bursts`` keeps every burst duration; :meth:`ops_per_s` reports
    the host's speed over the run as bursts per second.
    """

    #: Duration of one burst on the reference host (a 2-vCPU VM in its
    #: fast state); any fixed value would do, this one keeps reported
    #: figures close to wall-clock figures there.
    REFERENCE_BURST_S = 0.0065

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._doc = {f"layer{i}": {"name": f"conv{i}",
                                   "params": int(rng.integers(1 << 20)),
                                   "flops": float(rng.random()),
                                   "shape": [int(x) for x in
                                             rng.integers(1, 512, 4)]}
                     for i in range(150)}
        self._vectors = [rng.random(64) for _ in range(8)]
        self._square = rng.standard_normal((256, 256))
        self._wide = rng.standard_normal((32, 256))
        self.bursts: List[float] = []
        self._last = self.burst()

    def burst(self) -> float:
        """Run one calibration burst; returns its duration (s)."""
        import hashlib

        import numpy as np

        started = time.perf_counter()
        for _ in range(3):
            text = json.dumps(self._doc, sort_keys=True)
            hashlib.sha256(text.encode()).hexdigest()
        for _ in range(150):
            x = self._vectors[0]
            for y in self._vectors[1:]:
                x = np.maximum(x, y) + y * 0.5
            np.cumsum(x)
        for _ in range(6):
            self._square.astype(np.float16).astype(np.float64)
            hidden = np.maximum(self._wide @ self._square, 0.0)
            self._square.T @ hidden.T
        elapsed = time.perf_counter() - started
        self.bursts.append(elapsed)
        return elapsed

    def scale(self, wall: float) -> float:
        """Reference seconds of a unit that just took ``wall`` seconds
        (call right after the unit: it runs the closing burst)."""
        before = self._last
        self._last = self.burst()
        return wall * self.REFERENCE_BURST_S / ((before + self._last) / 2)

    def ops_per_s(self) -> float:
        """Host speed over the run: calibration bursts per second."""
        return 1.0 / median(self.bursts)


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live child process, MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def probe_setup(workload: str, seed: int, clock: HostClock,
                samples: int = 3) -> List[float]:
    """Reference seconds from spawning a fresh interpreter until the
    workload's first unit of work could begin, measured ``samples``
    times.

    The child (``run.py --probe``) imports the program, generates the
    workload's first inputs and builds its engine, then prints
    ``ready``.  Spawn-to-ready is read here, so interpreter start and
    imports count.
    """
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--probe", workload, "--seed", str(seed)]

    times = []
    for _ in range(samples):
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=program_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"(exit {code}, said {line.strip()!r})")
        times.append(clock.scale(elapsed))
    return times


# ----- the result line ------------------------------------------------------

def benchmark_spec() -> dict:
    """The metric declarations of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def emit_result(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], trace: bool) -> None:
    """Print every declared metric of the run kind with its unit, then
    the one-line JSON result that ends every run's output.

    Raises if a declared metric is missing or not finite: a benchmark
    that silently drops a figure is a broken benchmark.
    """
    spec = benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics: Dict[str, Dict[str, object]] = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            raise RuntimeError(f"metric {name} was not measured")
        value = float(values[name])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    width = max(len(name) for name in metrics)
    for name, item in metrics.items():
        print(f"  {name:<{width}}  {item['value']:.6g} {item['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}),
          flush=True)


def stage_table(rows: Sequence[Tuple[str, float]], wall_s: float,
                overhead: float) -> str:
    """Render a stage table: self seconds and share of the wall."""
    lines = [f"  stage table (traced wall {wall_s:.4f} s, "
             f"trace overhead {overhead:.3f}x)"]
    for name, seconds in rows:
        share = seconds / wall_s if wall_s > 0 else 0.0
        lines.append(f"    {name:<40} {seconds:10.4f} s {share:7.1%}")
    total = sum(seconds for _, seconds in rows)
    lines.append(f"    {'total':<40} {total:10.4f} s")
    return "\n".join(lines)


def batch_e2e(walls: Sequence[float], work: float) -> Dict[str, float]:
    """End-to-end figures of a batch workload from its units' times in
    reference seconds (:class:`HostClock`): work per second over all
    units, unit latency median and p90, and this process's peak memory
    (read now, before any output check allocates)."""
    return {
        "throughput_per_s": work / sum(walls),
        "latency_p50_ms": percentile(walls, 50) * 1e3,
        "latency_p90_ms": percentile(walls, 90) * 1e3,
        "peak_rss_mb": self_peak_rss_mb(),
    }
