"""train-codecs: data-parallel training through the real codecs.

One pass trains the ext-tta MLP (128 -> 256 -> 256 -> 8) for 10 steps
with each method of a panel of registry aggregators (fp32, fp16,
powersgd, topk, signsgd, qsgd) over eight logical workers, plus a
single-worker fp32 baseline at the same global batch, all through
``repro.training.train_with_method``.  Every pass trains on a new
dataset (Gaussian blobs) generated from the seed and the pass number;
passes repeat until the time budget is spent.

This is the only workload that runs the codecs, the numeric collectives
and the nn layer.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from common import batch_e2e

NAME = "train-codecs"
HIDDEN = (256, 256)
FEATURES = 128
CLASSES = 8
SAMPLES = 2048
WORKERS = 8
BATCH = 32
STEPS = 10
#: ``(label, method, aggregator params, learning rate, workers)``; the
#: learning rates are the ext-tta exhibit's.
PANEL: Tuple[Tuple[str, str, Dict, float, int], ...] = (
    ("fp32", "fp32", {}, 0.2, WORKERS),
    ("fp16", "fp16", {}, 0.2, WORKERS),
    ("powersgd", "powersgd", {"rank": 2}, 0.2, WORKERS),
    ("topk", "topk", {"fraction": 0.05}, 0.2, WORKERS),
    ("signsgd", "signsgd", {}, 0.01, WORKERS),
    ("qsgd", "qsgd", {}, 0.2, WORKERS),
    ("single-fp32", "fp32", {}, 0.2, 1),
)
#: Relative tolerance of the fp32 rounding check: the ring all-reduce
#: sums in another order than a plain mean.
FP32_RTOL = 1e-9


def shrink() -> None:
    """Tiny sizes for the self-test."""
    global STEPS
    STEPS = 2


def dataset(seed: int, index: int):
    """The seed's ``index``-th training set.  Each pass trains on a new
    one: how soon fp16 gradients reach float16's slow subnormal range
    depends on the data, so one dataset per run would make the cost
    depend on the seed."""
    from repro.training import gaussian_blobs

    return gaussian_blobs(num_samples=SAMPLES, num_features=FEATURES,
                          num_classes=CLASSES, spread=1.2,
                          seed=[seed, index])


def _train(data, entry):
    """One run through ``train_with_method``: ``(wall, history)``."""
    from repro.training import train_with_method

    _, method, params, lr, workers = entry
    started = time.perf_counter()
    history = train_with_method(
        data, method, params, hidden_dims=HIDDEN, num_workers=workers,
        steps=STEPS, batch_size=BATCH * WORKERS // workers, lr=lr, seed=0)
    return time.perf_counter() - started, history


def _summary(label: str, history) -> Dict:
    return {"label": label, "losses": list(history.losses),
            "wire_bytes_per_step": history.bytes_sent_per_worker / STEPS}


def prepare(seed: int) -> None:
    """Imports and the first dataset."""
    from repro.training import train_with_method  # noqa: F401

    dataset(seed, 0)


def fp32_oracle(data, seed: int = 0) -> List[float]:
    """Per-step losses of fp32 data-parallel SGD computed directly: the
    same worker sampling, the program's MLP gradients, but a plain mean
    instead of the codec, aggregator and ring all-reduce."""
    from repro.training import MLP, SGD, MLPConfig

    model = MLP(MLPConfig(input_dim=FEATURES, hidden_dims=HIDDEN,
                          num_classes=CLASSES, seed=seed))
    shards = [data.shard(r, WORKERS) for r in range(WORKERS)]
    opt = SGD(0.2)
    losses = []
    for step in range(STEPS):
        step_losses, grads = [], []
        for rank, shard in enumerate(shards):
            rng = np.random.default_rng((seed, step, rank))
            idx = rng.choice(shard.num_samples,
                             size=min(BATCH, shard.num_samples),
                             replace=False)
            loss, g = model.loss_and_grads(shard.x[idx], shard.y[idx])
            step_losses.append(loss)
            grads.append(g)
        losses.append(float(np.mean(step_losses)))
        opt.step(model.params, {name: np.mean([g[name] for g in grads],
                                              axis=0)
                                for name in grads[0]})
    return losses


def _check(seed: int, passes: List[List[Dict]], reference: Dict,
           corrupt: bool) -> Tuple[int, List[str]]:
    """Every pass: wire bytes per step equal the recorded,
    seed-independent counts, and fp32 losses match the direct
    computation to rounding.  Recorded seeds: the first pass's per-step
    losses equal the recorded ones (fp32 to rounding)."""
    recorded = reference.get(NAME, {})
    if corrupt:
        passes[0][0]["losses"][-1] += 1e-6
    problems = []
    wire = recorded.get("wire_bytes_per_step", {})
    by_seed = recorded.get("losses", {}).get(str(seed))
    for index, rows in enumerate(passes):
        for row in rows:
            label = row["label"]
            if row["wire_bytes_per_step"] != wire.get(label):
                problems.append(f"{label}: wire bytes per step "
                                f"{row['wire_bytes_per_step']} != "
                                f"{wire.get(label)}")
            if by_seed is not None and index == 0:
                got = row["losses"]
                expected = by_seed[label][:len(got)]
                rtol = FP32_RTOL if "fp32" in label else 0.0
                if not np.allclose(got, expected, rtol=rtol, atol=0.0):
                    problems.append(f"{label}: losses {got} != {expected}")
        got = rows[0]["losses"]
        oracle = fp32_oracle(dataset(seed, index))
        if not np.allclose(got, oracle, rtol=FP32_RTOL, atol=0.0):
            problems.append(f"pass {index}: fp32 losses {got} differ from "
                            f"the direct computation {oracle}")
    return len(problems), problems


def run(seed: int, seconds: float, trace: bool, corrupt: bool,
        reference: Dict, clock) -> Dict:
    """Untraced: whole panel passes, each on a new dataset, while they
    fit in ``seconds``; the latency unit is one step of every method (a
    pass over ``STEPS``).  Traced: one pass, each run interleaved
    untraced and traced."""
    if trace:
        return _run_traced(seed, dataset(seed, 0), corrupt, reference)
    pass_times, passes = [], []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started) * (
            len(passes) + 1) / len(passes) <= seconds:
        data = dataset(seed, len(passes))
        rows, total = [], 0.0
        for entry in PANEL:
            wall, history = _train(data, entry)
            total += clock.scale(wall)
            rows.append(_summary(entry[0], history))
        passes.append(rows)
        pass_times.append(total)
    steps = STEPS * len(PANEL) * len(passes)
    # A pass's latency unit is one step of every method of the panel.
    e2e = batch_e2e([t / STEPS for t in pass_times], 0)
    e2e["throughput_per_s"] = steps / sum(pass_times)
    return {"e2e": e2e, "attempted": steps,
            "check": lambda: _check(seed, passes, reference, corrupt)}


def _run_traced(seed: int, data, corrupt: bool, reference: Dict) -> Dict:
    from layers import METHODS, ab_passes, recorder_data, span_metrics

    untraced, traced, outputs, recorder = ab_passes(
        len(PANEL), lambda index: PANEL[index],
        lambda entry: _train(data, entry))
    metrics, selfs = span_metrics(recorder_data(recorder))
    rows = [_summary(entry[0], history)
            for entry, history in zip(PANEL, outputs)]
    for row in rows:
        if row["label"] in METHODS:
            metrics[f"compression.wire_bytes_per_step.{row['label']}"] = (
                row["wire_bytes_per_step"])
    return {"metrics": metrics, "selfs": selfs, "traced_wall": traced,
            "untraced_wall": untraced, "spans": recorder_data(recorder),
            "attempted": 2 * STEPS * len(PANEL),
            "check": lambda: _check(seed, [rows], reference, corrupt)}


def record(seeds) -> Dict:
    """Wire bytes per step (seed-independent) and per-step losses per
    seed (the first ``k`` losses of a run do not depend on its length)."""
    wire, losses = {}, {}
    for seed in seeds:
        data = dataset(seed, 0)
        losses[str(seed)] = {}
        for entry in PANEL:
            row = _summary(entry[0], _train(data, entry)[1])
            losses[str(seed)][entry[0]] = row["losses"]
            if wire.setdefault(entry[0], row["wire_bytes_per_step"]) \
                    != row["wire_bytes_per_step"]:
                raise RuntimeError(f"{entry[0]} wire bytes depend on the "
                                   f"seed")
    return {"wire_bytes_per_step": wire, "losses": losses}
