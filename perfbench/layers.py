"""Per-layer metrics and stage tables from one traced pass.

Every workload reports the full per-layer list of ``BENCHMARK.json``:
layers a workload does not exercise read zero, which is itself the
prediction for a change to that layer.  Busy figures are self time
(span time minus nested spans) unless the name says otherwise.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from common import benchmark_spec
from spans import SpanRecorder, self_times, span_totals

#: Compression methods of the train-codecs panel; their per-method
#: metrics are declared for each.
METHODS = ("fp32", "fp16", "powersgd", "topk", "signsgd", "qsgd")


def zero_metrics() -> Dict[str, float]:
    """Every per-layer metric ``BENCHMARK.json`` declares, at zero, to be
    overwritten by what a workload measures."""
    return {entry["name"]: 0.0 for entry in benchmark_spec()["per_layer"]}


def span_metrics(recorder_data: Tuple[Sequence, Dict[str, int],
                                      Dict[str, float]],
                 ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer busy/call metrics from spans, plus the self-time map.

    ``recorder_data`` is ``(spans, calls, counters)`` of a
    :class:`~spans.SpanRecorder` (or the same read back from a dump).
    """
    spans, calls, counters = recorder_data
    selfs = self_times(spans)
    totals = span_totals(spans)
    out: Dict[str, float] = {}

    def busy(metric: str, *layers: str) -> None:
        out[metric] = sum(selfs.get(layer, 0.0) for layer in layers)

    out["engine.calls"] = calls.get("engine.engine", 0)
    out["engine.busy_s"] = totals.get("engine.engine", 0.0)
    busy("engine.dispatch_self_s", "engine.engine")
    out["engine.fingerprint.calls"] = calls.get("engine.fingerprint", 0)
    busy("engine.fingerprint.busy_s", "engine.fingerprint")
    out["cache.lookup.calls"] = calls.get("engine.cache.lookup", 0)
    # Tier reads nest inside lookups: the lookup busy time is the whole
    # read path across the memory, pack and legacy tiers.
    out["cache.lookup.busy_s"] = totals.get("engine.cache.lookup", 0.0)
    out["cache.store.calls"] = calls.get("engine.cache.store", 0)
    out["cache.store.busy_s"] = totals.get("engine.cache.store", 0.0)
    busy("simulator.build.busy_s", "simulator.build")
    out["simulator.kernel.calls"] = calls.get("simulator.kernel", 0)
    busy("simulator.kernel.busy_s", "simulator.kernel")
    out["compute.layer_backward_time.calls"] = calls.get(
        "compute.layer_backward_time", 0)
    busy("compute.layer_backward_time.busy_s", "compute.layer_backward_time")
    busy("models.get_model.busy_s", "models.get_model")
    out["core.grid.calls"] = calls.get("core.grid", 0)
    out["core.grid.points"] = counters.get("core.grid.points", 0.0)
    busy("core.grid.busy_s", "core.grid")
    busy("core.calibrate.busy_s", "core.calibrate")
    busy("core.solve_crossover.busy_s", "core.solve_crossover")
    busy("core.recommend.busy_s", "core.recommend")
    busy("advisor.plan.busy_s", "advisor.plan")
    busy("advisor.shard_eval.busy_s", "advisor.shard_eval")
    busy("advisor.pareto.busy_s", "advisor.pareto")
    busy("advisor.merge.busy_s", "advisor.merge")
    busy("advisor.finish.busy_s", "advisor.finish")
    busy("training.grads.busy_s", "training.grads")
    busy("training.optim.busy_s", "training.optim")
    busy("training.eval.busy_s", "training.eval")
    busy("collectives.allreduce.busy_s", "collectives.allreduce")
    busy("collectives.allgather.busy_s", "collectives.allgather")
    out["collectives.bytes_moved"] = counters.get(
        "collectives.bytes_moved", 0.0)
    for method in METHODS:
        busy(f"compression.encode.busy_s.{method}",
             f"compression.encode.{method}")
        busy(f"compression.decode.busy_s.{method}",
             f"compression.decode.{method}")
        busy(f"compression.aggregate.busy_s.{method}",
             f"compression.aggregate.{method}")
    return out, selfs


def recorder_data(recorder: SpanRecorder):
    """``(spans, calls, counters)`` of a live recorder."""
    return recorder.spans, dict(recorder.calls), dict(recorder.counters)


def stage_rows(selfs: Dict[str, float], wall_s: float,
               ) -> List[Tuple[str, float]]:
    """Self time per layer, largest first, plus ``unattributed`` so the
    rows add up to ``wall_s``."""
    rows = sorted(((name, seconds) for name, seconds in selfs.items()
                   if seconds > 0), key=lambda row: -row[1])
    rows.append(("unattributed", wall_s - sum(s for _, s in rows)))
    return rows


def ab_passes(count: int, make_inputs: Callable[[int], Any],
              run_unit: Callable[[Any], Tuple[float, Any]],
              ) -> Tuple[float, float, List[Any], SpanRecorder]:
    """Interleaved untraced/traced passes over the same ``count`` units.

    Unit ``i``'s inputs are built twice by ``make_inputs(i)`` (outside
    any timing and outside tracing), run once untraced and once with the
    span wrappers installed, in alternating order; ``run_unit`` returns
    ``(wall seconds, output)``.  One untraced warm-up unit runs first and
    is not counted, so neither side pays first-call costs.  Returns the
    untraced and traced wall sums, the traced outputs, and the recorder.
    """
    recorder = SpanRecorder()
    run_unit(make_inputs(0))
    untraced = traced = 0.0
    outputs = []
    for index in range(count):
        # Alternate which side runs first: the second run of the same
        # inputs finds process-level memos warm.
        for traced_side in ((False, True) if index % 2 == 0
                            else (True, False)):
            inputs = make_inputs(index)
            if not traced_side:
                untraced += run_unit(inputs)[0]
                continue
            recorder.install()
            try:
                wall, output = run_unit(inputs)
            finally:
                recorder.uninstall()
            traced += wall
            outputs.append(output)
    return untraced, traced, outputs, recorder
