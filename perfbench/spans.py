"""In-memory timing spans around the program's public layer boundaries.

The traced runs of the benchmark install :class:`SpanRecorder` wrappers
around the functions and methods listed in :data:`LAYERS`.  Each call
records one span ``(layer, start, end, thread)``; spans stay in memory
and are written out when the run ends.  Nothing inside the program is
edited: the wrappers replace module attributes and class methods of the
imported ``repro`` package, and untraced runs never install them.

A layer's *self time* is its span time minus the part covered by spans
nested inside it on the same thread (:func:`thread_segments`).  Stage
tables list self time per layer plus an ``unattributed`` row, so each
table adds up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``(module, attribute path, layer)``.  The attribute path is either a
#: module-level function (patched wherever a loaded ``repro`` module
#: holds it) or ``Class.method`` (patched on the class itself, and on
#: every loaded subclass that defines its own override).  ``{method}``
#: in a layer name is filled with the compression method of the
#: training step in progress on the calling thread.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    # serving
    ("repro.serving.http", "ServingHandler.do_GET", "serving.http"),
    ("repro.serving.http", "ServingHandler.do_POST", "serving.http"),
    ("repro.serving.requests", "parse_request", "serving.requests.parse"),
    ("repro.serving.scheduler", "ServingScheduler.submit",
     "serving.scheduler.submit"),
    ("repro.serving.scheduler", "ServingScheduler.wait",
     "serving.scheduler.wait"),
    ("repro.serving.scheduler", "ServingScheduler._execute_batch",
     "serving.scheduler.batch"),
    # engine, fingerprinting, cache tiers
    ("repro.engine.engine", "ExperimentEngine.run_outcomes",
     "engine.engine"),
    ("repro.engine.engine", "ExperimentEngine.run_model_outcomes",
     "engine.engine"),
    ("repro.engine.engine", "ExperimentEngine.run_advisor_outcomes",
     "engine.engine"),
    ("repro.engine.engine", "SimJob.fingerprint", "engine.fingerprint"),
    ("repro.engine.engine", "SimJob.family_key", "engine.fingerprint"),
    ("repro.engine.modeljobs", "ModelEvalJob.fingerprint",
     "engine.fingerprint"),
    ("repro.engine.modeljobs", "ModelEvalJob.family_key",
     "engine.fingerprint"),
    ("repro.engine.advisorjobs", "AdvisorShardJob.fingerprint",
     "engine.fingerprint"),
    ("repro.engine.advisorjobs", "AdvisorShardJob.family_key",
     "engine.fingerprint"),
    ("repro.engine.modeljobs", "evaluate_family", "engine.modeljobs"),
    ("repro.engine.cache", "SimulationCache.lookup_many",
     "engine.cache.lookup"),
    ("repro.engine.cache", "SimulationCache.get", "engine.cache.lookup"),
    ("repro.engine.cache", "SimulationCache.store_many",
     "engine.cache.store"),
    ("repro.engine.cache", "SimulationCache.put", "engine.cache.store"),
    ("repro.engine.memcache", "MemoryCache.get_many", "engine.memcache"),
    ("repro.engine.memcache", "MemoryCache.put_many", "engine.memcache"),
    ("repro.engine.pack", "PackStore.lookup", "engine.pack"),
    ("repro.engine.pack", "PackStore.append_many", "engine.pack"),
    # simulator, compute model, model zoo
    ("repro.simulator.ddp", "DDPSimulator.__init__", "simulator.build"),
    ("repro.simulator.batch", "run_batch_many", "simulator.kernel"),
    ("repro.simulator.batch", "run_batch", "simulator.kernel"),
    ("repro.simulator.ddp", "DDPSimulator.simulate_iteration",
     "simulator.event"),
    ("repro.compute", "ComputeModel.layer_backward_time",
     "compute.layer_backward_time"),
    ("repro.models.zoo", "get_model", "models.get_model"),
    # closed-form core and the advisor
    ("repro.core.grid", "syncsgd_time_grid", "core.grid"),
    ("repro.core.grid", "compressed_time_grid", "core.grid"),
    ("repro.core.grid", "tradeoff_time_grid", "core.grid"),
    ("repro.core.calibration", "calibrate", "core.calibrate"),
    ("repro.core.whatif", "solve_crossover", "core.solve_crossover"),
    ("repro.core.advisor", "recommend", "core.recommend"),
    ("repro.core.advisor", "recommend_with", "core.recommend"),
    ("repro.core.advisor", "recommend_for_inputs", "core.recommend"),
    ("repro.analysis.advisor", "plan_sweep", "advisor.plan"),
    ("repro.analysis.advisor", "finish_sweep", "advisor.finish"),
    ("repro.analysis.advisor", "pareto_mask", "advisor.pareto"),
    ("repro.analysis.advisor", "merge_frontiers", "advisor.merge"),
    ("repro.engine.advisorjobs", "AdvisorShardJob.evaluate",
     "advisor.shard_eval"),
    # numeric training, codecs, collectives
    ("repro.training.distributed", "DistributedTrainer.step",
     "training.step"),
    ("repro.training.nn", "MLP.loss_and_grads", "training.grads"),
    ("repro.training.nn", "MLP.accuracy", "training.eval"),
    ("repro.training.optim", "Optimizer.step", "training.optim"),
    ("repro.compression.base", "Aggregator.step",
     "compression.aggregate.{method}"),
    ("repro.compression.base", "Compressor.encode",
     "compression.encode.{method}"),
    ("repro.compression.base", "Compressor.decode",
     "compression.decode.{method}"),
    ("repro.collectives.numeric", "ring_allreduce", "collectives.allreduce"),
    ("repro.collectives.numeric", "allgather", "collectives.allgather"),
)

#: Modules imported before wrapping, so every layer above is loaded and
#: every ``from x import f`` alias of a wrapped function is visible.
PRELOAD = ("repro.serving", "repro.engine", "repro.simulator",
           "repro.simulator.batch", "repro.analysis", "repro.core",
           "repro.training", "repro.compression", "repro.collectives",
           "repro.models", "repro.compute", "repro.experiments")

Span = Tuple[str, float, float, int]


class SpanRecorder:
    """Collects spans and per-layer call counts in memory.

    ``counters`` holds work counts measured at the same boundaries
    (grid points priced, bytes a collective moves).  ``spans`` is
    appended to from any thread; ``list.append`` is atomic under the
    interpreter lock, and readers only look after the run.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # ----- context -----------------------------------------------------------

    @property
    def method(self) -> str:
        """Compression method of the training step on this thread."""
        return getattr(self._local, "method", "none")

    def _layer_name(self, layer: str) -> str:
        return layer.format(method=self.method) if "{" in layer else layer

    # ----- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str,
             on_return: Optional[Callable[[tuple, Any], None]] = None,
             ) -> Callable:
        """A wrapper recording one ``layer`` span per call of ``fn``."""
        spans, calls, clock, ident = (self.spans, self.calls,
                                      time.monotonic, threading.get_ident)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = recorder._layer_name(layer)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((name, started, clock(), ident()))
                calls[name] += 1
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def _wrap_step(self, fn: Callable) -> Callable:
        """``DistributedTrainer.step``: a span that also names the
        compression method for the codec spans nested inside it."""
        inner = self.wrap(fn, "training.step")
        local = self._local

        @functools.wraps(fn)
        def wrapper(trainer, *args, **kwargs):
            previous = getattr(local, "method", "none")
            local.method = (trainer.method if trainer.num_workers > 1
                            else "single")
            try:
                return inner(trainer, *args, **kwargs)
            finally:
                local.method = previous

        return wrapper

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._installed.append((owner, name, owner.__dict__[name]
                                if isinstance(owner, type)
                                else getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> "SpanRecorder":
        """Wrap every layer boundary in :data:`LAYERS`."""
        for module in PRELOAD:
            importlib.import_module(module)
        hooks = {"core.grid": self._count_grid,
                 "collectives.allreduce": self._count_allreduce,
                 "collectives.allgather": self._count_allgather}
        for module_name, path, layer in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                base = getattr(module, cls_name)
                for cls in _with_subclasses(base):
                    if meth not in cls.__dict__:
                        continue
                    fn = cls.__dict__[meth]
                    if layer == "training.step":
                        wrapper = self._wrap_step(fn)
                    else:
                        wrapper = self.wrap(fn, layer, hooks.get(layer))
                    self._patch(cls, meth, wrapper)
            else:
                fn = getattr(module, path)
                wrapper = self.wrap(fn, layer, hooks.get(layer))
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("repro")
                            and getattr(mod, path, None) is fn):
                        self._patch(mod, path, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # ----- work counters -----------------------------------------------------

    def _count_grid(self, args: tuple, grid: Any) -> None:
        self.counters["core.grid.points"] += grid.total.size

    def _count_allreduce(self, args: tuple, result: Any) -> None:
        # A ring all-reduce moves 2 (p - 1) / p of the buffer per rank.
        arrays = args[0]
        p = len(arrays)
        self.counters["collectives.bytes_moved"] += (
            2 * (p - 1) * arrays[0].nbytes)

    def _count_allgather(self, args: tuple, result: Any) -> None:
        arrays = args[0]
        self.counters["collectives.bytes_moved"] += (
            (len(arrays) - 1) * sum(a.nbytes for a in arrays))

    # ----- reduction ---------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans, calls and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "calls": dict(self.calls),
                       "counters": dict(self.counters)}, fh)


def _with_subclasses(base: type) -> Iterable[type]:
    seen = [base]
    for cls in seen:
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
    return seen


Segment = Tuple[float, float, str]


def thread_segments(spans: Iterable[Span]) -> Dict[int, List[Segment]]:
    """Split spans into per-thread ``(start, end, layer)`` segments, each
    attributed to the innermost span open over it.

    Spans of one thread nest (they are function calls), so a sweep over
    start/end boundaries with a stack yields the innermost layer of
    every interval; gaps where no span is open produce no segment.
    """
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span[2] > span[1]:  # a zero-length span covers nothing
            by_thread[span[3]].append(span)
    out: Dict[int, List[Segment]] = {}
    for tid, items in by_thread.items():
        # Starts sort before ends at equal times only for the longer
        # span, which keeps zero-length children inside their parent.
        events = []
        for layer, start, end, _ in items:
            events.append((start, 1, -end, layer))
            events.append((end, 0, -start, layer))
        events.sort()
        stack: List[str] = []
        segments = []
        last = None
        for t, is_start, _, layer in events:
            if stack and last is not None and t > last:
                segments.append((last, t, stack[-1]))
            if is_start:
                stack.append(layer)
            else:
                # Innermost matching span closes (proper nesting).
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] == layer:
                        del stack[i]
                        break
            last = t
        out[tid] = segments
    return out


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self seconds per layer over all threads."""
    totals: Dict[str, float] = defaultdict(float)
    for segments in thread_segments(spans).values():
        for start, end, layer in segments:
            totals[layer] += end - start
    return dict(totals)


def span_totals(spans: Iterable[Span]) -> Dict[str, float]:
    """Inclusive seconds per layer (nested calls of one layer count
    once per outermost call)."""
    totals: Dict[str, float] = defaultdict(float)
    by_layer: Dict[Tuple[str, int], List[Tuple[float, float]]] = \
        defaultdict(list)
    for layer, start, end, tid in spans:
        by_layer[(layer, tid)].append((start, end))
    for (layer, _), intervals in by_layer.items():
        intervals.sort()
        cur_end = -1.0
        for start, end in intervals:
            if start >= cur_end:
                totals[layer] += end - start
                cur_end = end
            elif end > cur_end:
                totals[layer] += end - cur_end
                cur_end = end
    return dict(totals)
