"""advise-sweep: the auto-advisor's default million-config Pareto sweep.

Each unit is one ``repro.analysis.advise`` call at the default
``SweepSpec`` (about 1.2M-1.5M configurations) for a (model, cluster
size) pair, on a fresh serial engine without a cache.  Pairs come in
seeded blocks: every zoo model once per block, in seeded order, each
with a seeded cluster size, so every run prices the same model mix.

Grid kernels, advisor shard jobs and the Pareto reduction do all the
work; the simulator does none.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Tuple

import numpy as np

from common import batch_e2e

NAME = "advise-sweep"
CLUSTER_SIZES = (8, 16, 32, 64)
#: Sweeps of each pass of a traced run.
TRACE_SWEEPS = 6
#: Sweeps per block of an untraced run (``None``: one per zoo model).
BLOCK = None


def shrink() -> None:
    """Tiny sizes for the self-test."""
    global TRACE_SWEEPS, BLOCK
    TRACE_SWEEPS = BLOCK = 1


def pair(seed: int, index: int) -> Tuple[str, int]:
    """The ``index``-th (model, cluster size) pair of the sequence."""
    from repro.models import available_models

    models = available_models()
    block, slot = divmod(index, len(models))
    rng = np.random.default_rng([seed, block, 2])
    order = rng.permutation(models)
    sizes = rng.choice(CLUSTER_SIZES, size=len(models))
    return str(order[slot]), int(sizes[slot])


def report_digest(report) -> str:
    """Digest of the full report: frontier, break-evens, ranking."""
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _inputs(seed: int, index: int):
    from repro.hardware import cluster_for_gpus
    from repro.models import get_model

    name, gpus = pair(seed, index)
    return name, gpus, get_model(name), cluster_for_gpus(gpus)


def _run_sweep(inputs) -> Tuple[float, object]:
    from repro.analysis import advise
    from repro.engine import ExperimentEngine

    _, _, model, cluster = inputs
    engine = ExperimentEngine(jobs=1)
    started = time.perf_counter()
    report = advise(model, cluster, engine=engine)
    return time.perf_counter() - started, report


def prepare(seed: int) -> None:
    """Imports, the first pair's inputs, the engine."""
    from repro.analysis import advise  # noqa: F401 - import cost counts
    from repro.engine import ExperimentEngine

    _inputs(seed, 0)
    ExperimentEngine(jobs=1)


def _check(results: List[Tuple[str, int, str]], reference: Dict,
           corrupt: bool) -> Tuple[int, List[str]]:
    """Every report equals the one recorded for its pair."""
    recorded = reference.get(NAME, {})
    if corrupt:
        name, gpus, _ = results[0]
        results[0] = (name, gpus, "0" * 32)
    problems = []
    for name, gpus, digest in results:
        expected = recorded.get(f"{name}@{gpus}")
        if expected is None:
            problems.append(f"no recorded report for {name}@{gpus}")
        elif digest != expected:
            problems.append(f"{name}@{gpus}: report {digest} != {expected}")
    return len(problems), problems


def run(seed: int, seconds: float, trace: bool, corrupt: bool,
        reference: Dict, clock) -> Dict:
    """Untraced: whole blocks of sweeps while they fit in ``seconds``
    (at least one).  Traced: a fixed number of sweeps, interleaved
    untraced and traced."""
    from repro.models import available_models

    if trace:
        return _run_traced(seed, corrupt, reference)
    block = BLOCK or len(available_models())
    walls, results, configs = [], [], 0
    started = time.perf_counter()
    while not walls or (time.perf_counter() - started) * (
            len(walls) + block) / len(walls) <= seconds:
        for _ in range(block):
            inputs = _inputs(seed, len(walls))
            wall, report = _run_sweep(inputs)
            walls.append(clock.scale(wall))
            configs += report.configs_priced
            results.append((inputs[0], inputs[1], report_digest(report)))
    return {"e2e": batch_e2e(walls, configs), "attempted": len(walls),
            "check": lambda: _check(results, reference, corrupt)}


def _run_traced(seed: int, corrupt: bool, reference: Dict) -> Dict:
    from layers import ab_passes, recorder_data, span_metrics

    untraced, traced, outputs, recorder = ab_passes(
        TRACE_SWEEPS, lambda index: _inputs(seed, index), _run_sweep)
    metrics, selfs = span_metrics(recorder_data(recorder))
    priced = sum(r.configs_priced for r in outputs)
    metrics.update({
        "advisor.shards": sum(r.shards for r in outputs),
        "advisor.frontier_share": sum(len(r.frontier) for r in outputs)
        / priced,
    })
    results = [(*pair(seed, i), report_digest(r))
               for i, r in enumerate(outputs)]
    return {"metrics": metrics, "selfs": selfs, "traced_wall": traced,
            "untraced_wall": untraced, "spans": recorder_data(recorder),
            "attempted": 2 * len(outputs),
            "check": lambda: _check(results, reference, corrupt)}


def record() -> Dict[str, str]:
    """Report digests of every (model, cluster size) pair."""
    from repro.hardware import cluster_for_gpus
    from repro.models import available_models, get_model

    out = {}
    for name in available_models():
        for gpus in CLUSTER_SIZES:
            _, report = _run_sweep((name, gpus, get_model(name),
                                    cluster_for_gpus(gpus)))
            out[f"{name}@{gpus}"] = report_digest(report)
    return out


def input_properties(seed: int) -> Dict:
    """The first block's (model, cluster size) pairs."""
    from repro.models import available_models

    return {"first_block": [f"{name}@{gpus}" for name, gpus in
                            (pair(seed, i)
                             for i in range(len(available_models())))]}
