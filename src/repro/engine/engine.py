"""Sweep execution: fan engine jobs out over processes, memoize.

The paper's methodology (§6) and every scaling figure reduce to the
same shape of work: a grid of independent runs — model × scheme ×
cluster.  The grid is embarrassingly parallel and heavily redundant
across figures (the syncSGD baseline of Figure 4 is the same
simulation as the baseline of Figures 5 and 6), so the engine does two
things:

* **fan-out** — cache misses run on a ``concurrent.futures`` process
  pool (``jobs`` workers); results come back in submission order, so a
  parallel sweep produces *identical* rows to the serial one (every job
  carries its own seed and owns its simulator);
* **memoization** — outcomes (timings *and* deterministic OOMs) are
  stored in a content-addressed :class:`SimulationCache` keyed by the
  fingerprint of everything that determines them (see
  :mod:`repro.engine.fingerprint`).

Every job type — :class:`SimJob`, :class:`ModelEvalJob`,
:class:`AdvisorShardJob` — takes the same path: one cache pass, misses
grouped by ``family_key()`` (a pure function of the misses, never of
the host), one group-and-retry loop, one store, one telemetry record.

``ExperimentEngine()`` with no arguments is a serial, cache-less
drop-in for the old inline loops, which is what experiment runners
default to when no engine is passed.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..compression.kernel_cost import KernelProfile
from ..compression.schemes import Scheme
from ..core.perf_model import PredictedTime
from ..errors import ConfigurationError, EngineError, OutOfMemoryError
from ..faults import FaultSchedule
from ..faults.injector import validate_topology
from ..hardware import ClusterConfig
from ..models import ModelSpec
from ..network import Fabric
from ..simulator import SIM_MODES, DDPConfig, DDPSimulator, TimingResult
from ..telemetry.logs import get_logger
from ..telemetry.metrics import get_registry
from ..telemetry.tracing import (
    TraceContext,
    TraceRecorder,
    get_tracer,
    set_tracer,
)
from .advisorjobs import (
    AdvisorShardJob,
    AdvisorShardOutcome,
    AdvisorShardResult,
    _execute_advisor_family,
)
from .cache import CacheStats, SimulationCache
from .fingerprint import (
    FINGERPRINT_VERSION,
    cluster_fragment,
    config_fragment,
    digest,
    fabric_fingerprint,
    faults_fingerprint,
    model_fragment,
    profile_fingerprint,
    scheme_fingerprint,
)
from .modeljobs import (
    ModelEvalJob,
    ModelEvalOutcome,
    Tag,
    _execute_model_family,
)

#: Environment variable for chaos testing the engine itself: set it to a
#: sentinel file path and the first pooled worker to pick up a job
#: SIGKILLs itself (once — creating the sentinel claims the kill).  The
#: reliability test suite uses this to prove a sweep survives a dying
#: worker; it is a no-op unless explicitly set.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_ONCE"

#: Chaos hook for timeout testing: ``<sentinel-path>:<seconds>`` makes
#: the first executor to claim the sentinel sleep that long before
#: executing, which a per-job timeout then catches.
CHAOS_SLEEP_ENV = "REPRO_CHAOS_SLEEP_ONCE"


def _chaos_hook() -> None:
    """Honour the chaos-testing environment hooks (see the two
    ``REPRO_CHAOS_*`` constants).  Exactly-once semantics come from
    ``O_CREAT | O_EXCL`` on the sentinel: one process wins the claim,
    every other execution proceeds normally."""
    kill_path = os.environ.get(CHAOS_KILL_ENV)
    if kill_path and _claim_sentinel(kill_path):
        os.kill(os.getpid(), signal.SIGKILL)
    sleep_spec = os.environ.get(CHAOS_SLEEP_ENV)
    if sleep_spec:
        path, _, seconds = sleep_spec.rpartition(":")
        if path and _claim_sentinel(path):
            time.sleep(float(seconds))


def _claim_sentinel(path: str) -> bool:
    """Atomically create ``path``; True only for the single winner."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:
        return False
    os.close(fd)
    return True


@dataclass(frozen=True)
class _Group:
    """Misses executed as one unit — a family sharing a
    ``family_key()``, or a lone job — with its kind's family executor
    (a module-level function, so the group pickles to a pool worker).
    """

    jobs: Tuple
    execute: Callable[[Sequence], List[Tag]]

    def describe(self) -> str:
        """Short human label for spans, logs and error messages."""
        lead = self.jobs[0].describe()
        if len(self.jobs) == 1:
            return lead
        return f"family of {len(self.jobs)} jobs [{lead}]"


def _execute_group(group: _Group) -> List[Tag]:
    """The one executor entry, in a pool worker or in-process: honour
    the chaos hooks, then run the family executor, which returns one
    tag per member.  An exception escaping it is environmental — the
    run loop retries the whole group."""
    _chaos_hook()
    return group.execute(group.jobs)


def _traced_call(ctx: TraceContext, group: _Group) -> Tuple[List[Tag], tuple]:
    """Execution wrapper that records spans under a propagated context.

    ``ctx`` is the submitting process's ``(trace_id, parent_span_id,
    submitted_unix_s)``.  A local :class:`TraceRecorder` seeded with
    that context is installed for the duration of the group's
    execution — so spans it emits (including the simulator's own)
    parent across the process boundary — plus a ``queue-wait`` span
    covering submission to pickup and an ``exec`` span around the call
    itself.  Returns ``(tags, recorded spans)`` for the parent to
    merge; a killed worker ships nothing, so its retry lands as a
    sibling attempt.

    Also used in-process by the serial path: the previous tracer is
    restored on exit either way.
    """
    trace_id, parent_id, submitted_unix = ctx
    started_unix = time.time()
    collector = TraceRecorder(trace_id=trace_id, root_parent_id=parent_id)
    previous = set_tracer(collector)
    try:
        collector.add_span("queue-wait", track="queue",
                           start_unix_s=min(submitted_unix, started_unix),
                           end_unix_s=started_unix)
        with collector.span(group.describe(), track="exec",
                            pid=str(os.getpid())):
            out = _execute_group(group)
    finally:
        set_tracer(previous)
    return out, collector.drain()


def _error_tags(group: _Group, reason: str) -> List[Tag]:
    """Every member's tag once the engine gives up on ``group``."""
    return [("error", reason, 0.0, time.time())] * len(group.jobs)


def _status_label(tags: Sequence[Tag]) -> str:
    """A group span's ``outcome`` label: its members' distinct statuses."""
    return ",".join(sorted({tag[0] for tag in tags}))


@dataclass(frozen=True, eq=False)
class SimJob:
    """One fully-specified ``DDPSimulator.run`` invocation.

    Attributes mirror the simulator's constructor plus ``run``'s
    protocol arguments; ``None`` fields mean "the simulator's default"
    and fingerprint as such.
    """

    model: ModelSpec
    cluster: ClusterConfig
    scheme: Optional[Scheme] = None
    fabric: Optional[Fabric] = None
    config: Optional[DDPConfig] = None
    profile: Optional[KernelProfile] = None
    batch_size: Optional[int] = None
    iterations: int = 110
    warmup: int = 10
    seed: int = 0
    faults: Optional[FaultSchedule] = None
    sim_mode: str = "auto"

    def __post_init__(self) -> None:
        if self.iterations <= self.warmup:
            raise ConfigurationError(
                f"iterations ({self.iterations}) must exceed warmup "
                f"({self.warmup})")
        if self.sim_mode not in SIM_MODES:
            raise ConfigurationError(
                f"unknown simulation mode {self.sim_mode!r}; "
                f"choose one of {', '.join(SIM_MODES)}")

    def fingerprint(self) -> str:
        """Content hash identifying this job's outcome.

        The ``faults`` field only enters the hash when a non-empty
        schedule is attached: fault-free jobs keep the exact keys they
        had before fault injection existed, so no cache directory is
        invalidated by upgrading.

        ``sim_mode`` deliberately stays OUT of the hash: the event and
        batch paths are bit-identical (tests/test_batch_equivalence.py),
        so the mode is an execution detail that must not fork the cache
        — a sweep run under ``--sim-mode batch`` serves a later
        ``--sim-mode event`` run from cache, and vice versa.
        """
        payload = {
            "version": FINGERPRINT_VERSION,
            "model": model_fragment(self.model),
            "cluster": cluster_fragment(self.cluster),
            "scheme": scheme_fingerprint(self.scheme),
            "fabric": fabric_fingerprint(self.fabric),
            "config": config_fragment(self.config),
            "profile": profile_fingerprint(self.profile),
            "batch_size": self.batch_size,
            "iterations": self.iterations,
            "warmup": self.warmup,
            "seed": self.seed,
        }
        fault_payload = faults_fingerprint(self.faults)
        if fault_payload is not None:
            payload["faults"] = fault_payload
        return digest(payload)

    def family_key(self) -> str:
        """Grouping key for cross-config batch execution.

        Jobs with equal keys share every structural input — model,
        cluster, scheme, fabric, config, profile, batch size and
        iteration protocol — and differ at most in fault schedule and
        seed, which is exactly the axis
        :func:`repro.simulator.batch.run_batch_many` stacks into one
        kernel call.  The key is *not* a cache key (it deliberately
        drops ``faults`` and ``seed``); outcomes are still cached per
        job under :meth:`fingerprint`.  Memoized per instance — the
        engine recomputes it for every miss in every batch.
        """
        cached = self.__dict__.get("_family_key")
        if cached is not None:
            return cached
        payload = {
            "version": FINGERPRINT_VERSION,
            "model": model_fragment(self.model),
            "cluster": cluster_fragment(self.cluster),
            "scheme": scheme_fingerprint(self.scheme),
            "fabric": fabric_fingerprint(self.fabric),
            "config": config_fragment(self.config),
            "profile": profile_fingerprint(self.profile),
            "batch_size": self.batch_size,
            "iterations": self.iterations,
            "warmup": self.warmup,
        }
        key = digest(payload)
        object.__setattr__(self, "_family_key", key)
        return key

    def build_simulator(self) -> DDPSimulator:
        """Construct the fully-configured simulator this job describes."""
        return DDPSimulator(
            self.model, self.cluster, scheme=self.scheme,
            fabric=self.fabric, config=self.config,
            kernel_profile=self.profile, faults=self.faults)

    def describe(self) -> str:
        """Short human label for logs and error messages."""
        scheme_label = self.scheme.label if self.scheme else "syncsgd"
        return (f"{self.model.name} x {scheme_label} @ "
                f"{self.cluster.world_size} GPUs")


@dataclass
class JobOutcome:
    """What one job produced: a timing result, a deterministic OOM, or
    — after exhausting the engine's retry budget — a failure.

    ``exec_s`` is the simulation's own wall time inside its worker (0
    for cache hits); ``queue_wait_s`` is how long the job sat between
    submission and a worker picking it up (across retries, it spans
    submission to the *successful* attempt's start).  ``attempts``
    counts executions: 1 for the normal case, more when the engine
    retried a crashed/timed-out worker.
    """

    job: SimJob
    result: Optional[TimingResult] = None
    oom: Optional[OutOfMemoryError] = None
    error: Optional[str] = None
    cached: bool = False
    exec_s: float = 0.0
    queue_wait_s: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Whether a timing result came back."""
        return self.result is not None

    @property
    def failed(self) -> bool:
        """Whether the engine gave up on this job (crash/timeout/error
        through every retry) — distinct from a deterministic OOM, which
        is a *simulation* outcome, not an engine failure."""
        return self.error is not None

    def unwrap(self) -> TimingResult:
        """The result, or re-raise the OOM / engine failure."""
        if self.error is not None:
            raise EngineError(
                f"{self.job.describe()} failed after {self.attempts} "
                f"attempt(s): {self.error}")
        if self.oom is not None:
            raise self.oom
        assert self.result is not None
        return self.result


def _execute_job(job: SimJob) -> Tag:
    """Run one job and tag its outcome.

    OOM is data (the sweep reports it as a row), so it travels back as a
    value instead of an exception.  A job whose fault schedule does not
    fit its cluster is a deterministic error tag: retrying cannot fix
    it.  Anything else propagates to the parent, which retries and
    ultimately degrades the job to a failure outcome.  The tag carries
    the job's own wall time and the wall-clock instant it started
    (``time.time``, comparable across processes to ~ms precision), from
    which the parent derives queue wait.
    """
    started_unix = time.time()
    started = time.perf_counter()
    try:
        sim = job.build_simulator()
    except ConfigurationError as exc:
        return ("error", _reason(exc), time.perf_counter() - started,
                started_unix)
    try:
        result = sim.run(job.batch_size, iterations=job.iterations,
                         warmup=job.warmup, seed=job.seed,
                         mode=job.sim_mode)
    except OutOfMemoryError as exc:
        # Without its traceback: the outcome outlives the run, and the
        # traceback would keep the simulator's frames (and arrays) alive.
        return ("oom", exc.with_traceback(None),
                time.perf_counter() - started, started_unix)
    return ("ok", result, time.perf_counter() - started, started_unix)


def _reason(exc: Exception) -> str:
    """An exception as an error tag's reason (the retry loop's format)."""
    return f"{type(exc).__name__}: {exc}"


def _execute_sim_family(jobs: Sequence[SimJob]) -> List[Tag]:
    """Family executor for simulations: one simulator, one kernel call.

    A lone job runs through :func:`_execute_job` (looked up at call
    time, so tests can monkeypatch it).  A family shares every
    structural input (its ``family_key()``), so it builds the lead's
    simulator once, without faults, and hands
    :func:`~repro.simulator.batch.run_batch_many` each member's seed and
    fault schedule.  A member whose schedule does not fit the cluster
    gets its deterministic error tag alone; its siblings still run.
    Memory is structural too, so a family OOM is every member's
    outcome.  Unexpected exceptions propagate for the parent to retry.
    """
    if len(jobs) == 1:
        return [_execute_job(jobs[0])]
    started_unix = time.time()
    started = time.perf_counter()
    # Deferred import: batch.py sits below the simulator package this
    # module already imports.
    from ..simulator.batch import run_batch_many
    lead = jobs[0]
    tags: List[Optional[Tag]] = [None] * len(jobs)
    runnable = []
    for k, job in enumerate(jobs):
        if job.faults is not None:
            try:
                validate_topology(job.faults, job.cluster)
            except ConfigurationError as exc:
                tags[k] = ("error", _reason(exc), 0.0, started_unix)
                continue
        runnable.append(k)
    if runnable:
        sim = replace(lead, faults=None).build_simulator()
        try:
            outcomes: List[object] = run_batch_many(
                sim, lead.batch_size, iterations=lead.iterations,
                warmup=lead.warmup, seeds=[jobs[k].seed for k in runnable],
                faults=[jobs[k].faults for k in runnable])
            status = "ok"
        except OutOfMemoryError as exc:
            outcomes = [exc.with_traceback(None)] * len(runnable)
            status = "oom"
        share = (time.perf_counter() - started) / len(runnable)
        for k, payload in zip(runnable, outcomes):
            tags[k] = (status, payload, share, started_unix)
    return tags  # type: ignore[return-value]


def _sim_outcome(job: SimJob, status: str, payload: object,
                 **fields: object) -> JobOutcome:
    """Build a :class:`JobOutcome` from a member tag or a cache hit."""
    if status == "error":
        return JobOutcome(job=job, error=str(payload), **fields)
    if isinstance(payload, OutOfMemoryError):
        return JobOutcome(job=job, oom=payload, **fields)
    return JobOutcome(job=job, result=payload, **fields)  # type: ignore[arg-type]


def _eval_outcome(cls: type, job: Union[ModelEvalJob, AdvisorShardJob],
                  status: str, payload: object, **fields: object):
    """Build a closed-form outcome.  Its ``error`` is the exception
    ``unwrap()`` re-raises: the evaluation's own, or an
    :class:`EngineError` once the engine gave up on the execution."""
    if status != "error":
        return cls(job=job, result=payload, **fields)
    if not isinstance(payload, Exception):
        payload = EngineError(
            f"{job.describe()} failed after {fields['attempts']} "
            f"attempt(s): {payload}")
    return cls(job=job, error=payload, **fields)


@dataclass(frozen=True)
class _JobKind:
    """How the shared batch path treats one job type.

    ``hit_types`` screens cache payloads (a key collision with another
    kind's payload reads as a miss); ``execute`` is the module-level
    family executor; ``outcome(job, status, payload, **fields)`` builds
    an outcome from a member tag or a hit; ``grouped`` names the
    :class:`EngineStats` counter that multi-member groups count in.
    """

    hit_types: Tuple[type, ...]
    execute: Callable[[Sequence], List[Tag]]
    outcome: Callable[..., object]
    grouped: str


_SIM_KIND = _JobKind((TimingResult, OutOfMemoryError), _execute_sim_family,
                     _sim_outcome, "jobs_batched")
_MODEL_KIND = _JobKind((PredictedTime,), _execute_model_family,
                       partial(_eval_outcome, ModelEvalOutcome),
                       "jobs_chunked")
_ADVISOR_KIND = _JobKind((AdvisorShardResult,), _execute_advisor_family,
                         partial(_eval_outcome, AdvisorShardOutcome),
                         "jobs_chunked")

#: Engine counters mirrored into telemetry as per-batch deltas.
_DELTA_COUNTERS = (("retries", "engine_retries_total"),
                   ("timeouts", "engine_timeouts_total"),
                   ("jobs_batched", "engine_jobs_batched_total"),
                   ("jobs_chunked", "engine_jobs_chunked_total"))


@dataclass(frozen=True)
class EngineStats:
    """Structured snapshot of an engine's counters.

    Previously the cache hit rate was only recoverable by parsing the
    CLI's printed status line; this object is the programmatic form —
    what manifests embed and telemetry mirrors.
    """

    cache: CacheStats
    executed: int
    jobs_completed: int
    busy_s: float
    exec_s_total: float
    queue_wait_s_total: float
    worker_s_total: float
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    jobs_chunked: int = 0
    jobs_batched: int = 0

    @property
    def mean_exec_s(self) -> float:
        """Mean wall time of an actually-executed simulation."""
        return self.exec_s_total / self.executed if self.executed else 0.0

    @property
    def pool_utilization(self) -> float:
        """Fraction of allocated worker-seconds spent simulating (1.0 =
        every worker busy the whole time ``run_outcomes`` held it)."""
        return (self.exec_s_total / self.worker_s_total
                if self.worker_s_total > 0 else 0.0)

    def to_dict(self) -> dict:
        """JSON-serializable rendering (for manifests)."""
        return {
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_stores": self.cache.stores,
            "cache_quarantined": self.cache.quarantined,
            "cache_hit_rate": self.cache.hit_rate,
            "cache_memory_hits": self.cache.memory_hits,
            "cache_pack_hits": self.cache.pack_hits,
            "cache_disk_hits": self.cache.disk_hits,
            "cache_evictions": self.cache.evictions,
            "executed": self.executed,
            "jobs_completed": self.jobs_completed,
            "busy_s": self.busy_s,
            "exec_s_total": self.exec_s_total,
            "queue_wait_s_total": self.queue_wait_s_total,
            "worker_s_total": self.worker_s_total,
            "mean_exec_s": self.mean_exec_s,
            "pool_utilization": self.pool_utilization,
            "retries": self.retries,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "jobs_chunked": self.jobs_chunked,
            "jobs_batched": self.jobs_batched,
        }

    def describe(self) -> str:
        """One-line human rendering (the CLI's post-sweep status)."""
        text = (f"{self.jobs_completed} jobs ({self.executed} executed, "
                f"{self.cache.describe()}), "
                f"{self.exec_s_total:.1f} s simulating, "
                f"{self.pool_utilization:.0%} pool utilization")
        if self.retries or self.failures:
            text += (f", {self.retries} retried, "
                     f"{self.failures} failed")
        return text


class ExperimentEngine:
    """Runs batches of engine jobs with optional parallelism and an
    optional result cache.

    Attributes:
        jobs: Worker process count; 1 (the default) runs in-process.
        cache: A :class:`SimulationCache`, or ``None`` to recompute
            everything.
        max_retries: How many times a failed execution (crashed pool
            worker, timeout, unexpected exception) is retried before
            the job degrades to a failure outcome.  0 disables retries.
        retry_backoff_s: Base of the exponential backoff slept before
            retry *k* (``retry_backoff_s * 2**(k-1)`` seconds).
        job_timeout_s: Wall-clock budget for one executed job, or
            ``None`` (default) for no limit.  On the pool path the
            budget is charged per submission wave: a job queued behind
            ``k`` others on the same worker gets ``(k+1)`` budgets, so
            queue wait does not count against it.  A timeout runs every
            job as its own group, so the budget keeps meaning per job.
        sim_mode: Execution scheme for the simulations this engine
            runs (:data:`repro.simulator.SIM_MODES`).  ``"auto"`` (the
            default) leaves each job's own ``sim_mode`` in force; an
            explicit ``"event"``/``"batch"`` overrides jobs that did not
            pick one themselves.  Results — and therefore cache keys —
            are identical either way.
        chunking: Group misses sharing a ``family_key()`` into one
            execution: a :class:`SimJob` family runs one stacked
            kernel call, a :class:`~repro.engine.modeljobs.ModelEvalJob`
            family one grid-kernel call, an advisor candidate's shards
            one task.  Rows, fingerprints, and cached bytes are
            identical either way.  ``False`` restores one execution
            per job (the reference the equivalence tests compare to).
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[SimulationCache] = None,
                 max_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 job_timeout_s: Optional[float] = None,
                 sim_mode: str = "auto",
                 chunking: bool = True):
        """Validate and store the execution policy (see class docstring
        for what each knob controls)."""
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ConfigurationError(
                f"job_timeout_s must be positive, got {job_timeout_s}")
        if sim_mode not in SIM_MODES:
            raise ConfigurationError(
                f"unknown simulation mode {sim_mode!r}; "
                f"choose one of {', '.join(SIM_MODES)}")
        self.jobs = jobs
        self.cache = cache
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.job_timeout_s = job_timeout_s
        self.sim_mode = sim_mode
        self.chunking = chunking
        #: Jobs actually executed (cache misses) over the lifetime.
        self.executed = 0
        #: Wall-clock seconds spent inside the ``run_*`` entry points.
        self.busy_s = 0.0
        #: Outcomes returned (hits + misses) over the lifetime.
        self.jobs_completed = 0
        #: Summed per-job execution wall time (inside workers).
        self.exec_s_total = 0.0
        #: Summed submission-to-start wait of executed jobs.
        self.queue_wait_s_total = 0.0
        #: Worker-seconds allocated (workers x batch wall time).
        self.worker_s_total = 0.0
        #: Failed executions that were re-submitted.
        self.retries = 0
        #: Jobs that ended as error outcomes.
        self.failures = 0
        #: Executions killed for exceeding ``job_timeout_s``.
        self.timeouts = 0
        #: Model-eval and advisor jobs that ran in a family of more
        #: than one job.
        self.jobs_chunked = 0
        #: Simulation jobs evaluated through a stacked cross-config
        #: kernel call (a family of more than one job).
        self.jobs_batched = 0
        self._log = get_logger("engine")
        # Serializes whole-batch submissions so a long-lived process
        # (the serving scheduler) can share one engine across threads:
        # stats, the process pool, and cache round-trips all assume one
        # batch in flight.  Reentrant, so a submission that itself
        # submits (e.g. an advisor pricer running inside a scheduler
        # batch) does not deadlock.
        self._submission_lock = threading.RLock()

    # ----- execution ---------------------------------------------------------

    def run_outcomes(self, batch: Sequence[SimJob]) -> List[JobOutcome]:
        """Run every simulation; outcomes come back in input order.

        Cache hits are served without simulating; misses run serially
        or on the process pool, then populate the cache.  Thread-safe:
        batches submitted concurrently are serialized, in submission
        order.
        """
        return self._run_batch(batch, _SIM_KIND)

    def run_model_outcomes(self, batch: Sequence[ModelEvalJob],
                           ) -> List[ModelEvalOutcome]:
        """Evaluate model jobs; outcomes come back in input order.

        Each family of misses (equal :meth:`ModelEvalJob.family_key` —
        jobs that differ only along vectorizable axes) runs the grid
        kernel **once**; results fan back out to per-point outcomes and
        per-point cache entries, so fingerprints and cached bytes are
        exactly what per-job evaluation would have produced.  A failing
        point fails alone.  Thread-safe, like :meth:`run_outcomes`.
        """
        return self._run_batch(batch, _MODEL_KIND)

    def run_advisor_outcomes(self, batch: Sequence[AdvisorShardJob],
                             ) -> List[AdvisorShardOutcome]:
        """Evaluate advisor pricing shards; outcomes in input order.

        Same contract as :meth:`run_model_outcomes`, except a family's
        members each run their own bounded grid call instead of fusing
        into one
        (:func:`~repro.engine.advisorjobs.evaluate_advisor_family`).
        Reentrant: the advisor pricer may run inside a scheduler batch
        that already holds the submission lock.
        """
        return self._run_batch(batch, _ADVISOR_KIND)

    def run(self, job: SimJob) -> TimingResult:
        """Run one job; raises the stored OOM like the raw simulator."""
        return self.run_outcomes([job])[0].unwrap()

    def _run_batch(self, batch: Sequence, kind: _JobKind) -> List:
        """The one batch body: one batched cache lookup, misses grouped
        and run through the retry loop, one batched store, one
        telemetry record — all inside an ``engine-batch`` span."""
        with self._submission_lock:
            tracer = get_tracer()
            with tracer.span("engine-batch", track="engine",
                             jobs=str(len(batch))):
                start = time.perf_counter()
                before = self._delta_counters()
                outcomes: List = [None] * len(batch)
                keys: List[str] = []
                if self.cache is not None:
                    with tracer.span("cache-lookup", track="cache",
                                     jobs=str(len(batch))) as span:
                        keys = [job.fingerprint() for job in batch]
                        hits = self.cache.lookup_many(keys)
                        for i, job in enumerate(batch):
                            hit = hits.get(keys[i])
                            if isinstance(hit, kind.hit_types):
                                outcomes[i] = kind.outcome(
                                    job, "ok", hit, cached=True)
                        span.annotate(hits=str(len(batch) - outcomes.count(
                            None)))
                misses = [i for i, o in enumerate(outcomes) if o is None]
                workers = 1
                if misses:
                    workers = self._run_misses(batch, misses, keys, kind,
                                               outcomes)
                wall = time.perf_counter() - start
                self.busy_s += wall
                if misses:
                    self.worker_s_total += workers * wall
                self.jobs_completed += len(batch)
                self._record_batch(outcomes, before)
                return outcomes

    def _run_misses(self, batch: Sequence, misses: Sequence[int],
                    keys: Sequence[str], kind: _JobKind,
                    outcomes: List) -> int:
        """Execute ``batch[misses]`` into ``outcomes`` and store them;
        returns the worker count used.

        The pool is used iff ``jobs > 1`` and there are two or more
        misses, so a lone family at ``jobs > 1`` still never runs in
        the parent process.  The core count only caps the pool size.
        """
        jobs = [self._job_for_execution(batch[i]) for i in misses]
        groups = self._groups(jobs)
        units = [_Group(tuple(jobs[k] for k in group), kind.execute)
                 for group in groups]
        submitted_unix = time.time()
        if self.jobs > 1 and len(misses) > 1:
            workers = min(self.jobs, len(units), os.cpu_count() or 1)
            results, attempt_counts = self._run_parallel(units, workers)
        else:
            workers = 1
            results, attempt_counts = self._run_serial(units)
        self.executed += len(misses)
        setattr(self, kind.grouped, getattr(self, kind.grouped) + sum(
            len(group) for group in groups if len(group) > 1))
        store: List[Tuple[str, object]] = []
        for group, tags, attempts in zip(groups, results, attempt_counts):
            for k, (status, payload, exec_s, started_unix) in zip(group, tags):
                i = misses[k]
                outcome = kind.outcome(
                    batch[i], status, payload, exec_s=exec_s,
                    queue_wait_s=max(0.0, started_unix - submitted_unix),
                    attempts=attempts)
                outcomes[i] = outcome
                self.exec_s_total += outcome.exec_s
                self.queue_wait_s_total += outcome.queue_wait_s
                if status == "error":
                    # Final either way: an executor's error tag is
                    # deterministic, an engine give-up environmental.
                    # Neither is cached, so a later run re-executes.
                    self.failures += 1
                    self._log.warning("engine.job_failed",
                                      job=batch[i].describe(),
                                      attempts=attempts, reason=str(payload))
                elif self.cache is not None:
                    store.append((keys[i], payload))
        if store:
            # One batched store: a single pack append + fsync for
            # every miss the batch produced.
            with get_tracer().span("cache-store", track="cache",
                                   entries=str(len(store))):
                self.cache.store_many(store)  # type: ignore[union-attr]
        return workers

    def _groups(self, misses: Sequence) -> List[List[int]]:
        """Partition miss positions into execution groups.

        A pure function of the misses and of ``chunking`` /
        ``job_timeout_s`` — never of the host or of ``jobs``: without
        chunking or under a per-job timeout every job is its own group;
        otherwise jobs group by ``family_key()`` in first-appearance
        order, except that a simulation whose effective mode is
        ``"event"`` runs the event loop it asked for, alone.
        """
        if not self.chunking or self.job_timeout_s is not None:
            return [[k] for k in range(len(misses))]
        groups: Dict[object, List[int]] = {}
        for k, job in enumerate(misses):
            event = isinstance(job, SimJob) and job.sim_mode == "event"
            groups.setdefault(k if event else job.family_key(), []).append(k)
        return list(groups.values())

    def _job_for_execution(self, job):
        """Apply the engine's simulation-mode override to one job.

        An engine-level ``"event"``/``"batch"`` wins over a simulation
        that left its own mode at ``"auto"``; a job that chose
        explicitly keeps its choice.  Fingerprints are unaffected
        (``sim_mode`` is not hashed), so the cache lookup already done
        against the original job stays valid.
        """
        if (isinstance(job, SimJob) and self.sim_mode != "auto"
                and job.sim_mode == "auto"):
            return replace(job, sim_mode=self.sim_mode)
        return job

    # ----- group execution (serial / pooled, with retries) -------------------

    def _run_serial(self, groups: Sequence[_Group],
                    ) -> Tuple[List[List[Tag]], List[int]]:
        """Execute groups in-process, retrying unexpected exceptions.

        Returns ``(member tags, attempt count)`` per group.  An
        exception escaping the executor gets ``max_retries`` fresh
        attempts with exponential backoff before every member degrades
        to an ``("error", ...)`` tag.
        """
        tracer = get_tracer()
        results: List[List[Tag]] = []
        attempt_counts: List[int] = []
        for group in groups:
            attempt = 1
            span = None
            if tracer.enabled:
                span = tracer.begin(group.describe(), track="engine")
            while True:
                try:
                    if span is not None:
                        tags, spans = _traced_call(
                            (tracer.trace_id, span.span_id, time.time()),
                            group)
                        tracer.merge(spans)
                    else:
                        tags = _execute_group(group)
                    break
                except Exception as exc:  # noqa: BLE001 - retried below
                    reason = _reason(exc)
                    if attempt > self.max_retries:
                        tags = _error_tags(group, reason)
                        break
                    self.retries += 1
                    self._log.warning("engine.job_retry",
                                      job=group.describe(),
                                      attempt=attempt, reason=reason)
                    time.sleep(self.retry_backoff_s * 2 ** (attempt - 1))
                    attempt += 1
            results.append(tags)
            attempt_counts.append(attempt)
            if span is not None:
                tracer.finish(span, attempts=str(attempt),
                              outcome=_status_label(tags))
        return results, attempt_counts

    def _run_parallel(self, groups: Sequence[_Group], workers: int,
                      ) -> Tuple[List[List[Tag]], List[int]]:
        """Execute groups on a process pool that survives dying workers.

        Groups are submitted in waves; a wave's survivors that failed
        (``BrokenProcessPool``, an exception, or a blown
        ``job_timeout_s`` deadline) are retried in the next wave after
        exponential backoff, until their attempt budget runs out.  A
        broken or deadlocked pool is killed and rebuilt between waves,
        and groups that were merely queued behind a hung one are
        resubmitted without it counting against their budget.  Results
        come back aligned with ``groups`` regardless of completion
        order.
        """
        tracer = get_tracer()
        results: List[Optional[List[Tag]]] = [None] * len(groups)
        attempt_counts = [0] * len(groups)
        # One open span per group while traced; a retried group keeps
        # its span (attempts land as sibling children under it), and the
        # span closes at the moment its tags become final.
        spans: List[Optional[object]] = [None] * len(groups)

        def _close_span(idx: int) -> None:
            span = spans[idx]
            if span is not None and results[idx] is not None:
                tracer.finish(span, attempts=str(attempt_counts[idx]),
                              outcome=_status_label(results[idx]))
                spans[idx] = None

        pending = list(range(len(groups)))
        wave = 0
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while pending:
                if wave:
                    time.sleep(self.retry_backoff_s * 2 ** (wave - 1))
                wave += 1
                future_to_idx = {}
                deadlines: Dict[object, float] = {}
                now = time.monotonic()
                for k, idx in enumerate(pending):
                    attempt_counts[idx] += 1
                    if tracer.enabled:
                        if spans[idx] is None:
                            spans[idx] = tracer.begin(
                                groups[idx].describe(), track="engine")
                        future = pool.submit(
                            _traced_call,
                            (tracer.trace_id, spans[idx].span_id,
                             time.time()),
                            groups[idx])
                    else:
                        future = pool.submit(_execute_group, groups[idx])
                    future_to_idx[future] = idx
                    if self.job_timeout_s is not None:
                        # Queue position k lands ~(k // workers) groups
                        # deep on its worker; grant a budget per slot so
                        # queue wait is not charged against the job.
                        deadlines[future] = now + self.job_timeout_s * (
                            k // workers + 1)
                retry: List[int] = []
                not_done = set(future_to_idx)
                rebuild = False
                while not_done:
                    timeout = None
                    if deadlines:
                        next_deadline = min(deadlines[f] for f in not_done)
                        timeout = max(0.0, next_deadline - time.monotonic())
                    done, not_done = wait(not_done, timeout=timeout,
                                          return_when=FIRST_COMPLETED)
                    broken = False
                    for future in done:
                        idx = future_to_idx[future]
                        try:
                            result = future.result()
                            if tracer.enabled:
                                result, worker_spans = result
                                tracer.merge(worker_spans)
                            results[idx] = result
                        except BrokenProcessPool:
                            broken = True
                            self._register_failure(
                                idx, attempt_counts, groups, results,
                                retry, "a pool worker died")
                        except Exception as exc:  # noqa: BLE001
                            self._register_failure(
                                idx, attempt_counts, groups, results,
                                retry, _reason(exc))
                        _close_span(idx)
                    if broken:
                        # The pool is unusable; every in-flight future is
                        # lost with it.  Fail them over to the next wave.
                        for future in not_done:
                            self._register_failure(
                                future_to_idx[future], attempt_counts,
                                groups, results, retry,
                                "a pool worker died")
                            _close_span(future_to_idx[future])
                        not_done = set()
                        rebuild = True
                    elif not done and not_done:
                        # wait() timed out: at least one deadline blew.
                        now = time.monotonic()
                        for future in list(not_done):
                            if deadlines.get(future, float("inf")) <= now:
                                idx = future_to_idx[future]
                                self.timeouts += 1
                                self._register_failure(
                                    idx, attempt_counts, groups,
                                    results, retry,
                                    f"timed out after "
                                    f"{self.job_timeout_s:g} s")
                                _close_span(idx)
                                not_done.discard(future)
                        # The hung worker still holds its process; only a
                        # pool teardown reclaims it.  Collateral groups
                        # are resubmitted for free.
                        for future in not_done:
                            idx = future_to_idx[future]
                            attempt_counts[idx] -= 1
                            retry.append(idx)
                        not_done = set()
                        rebuild = True
                if rebuild:
                    self._kill_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=workers)
                pending = sorted(retry)
        finally:
            self._kill_pool(pool)
            if tracer.enabled:
                # Safety net for abnormal exits: no span stays open.
                for idx in range(len(groups)):
                    _close_span(idx)
        return results, attempt_counts  # type: ignore[return-value]

    def _register_failure(self, idx: int, attempt_counts: List[int],
                          groups: Sequence[_Group],
                          results: List[Optional[List[Tag]]],
                          retry: List[int], reason: str) -> None:
        """Route one failed execution: resubmit it, or give up and
        degrade every member to an ``("error", ...)`` tag."""
        group = groups[idx]
        if attempt_counts[idx] > self.max_retries:
            results[idx] = _error_tags(group, reason)
        else:
            self.retries += 1
            self._log.warning("engine.job_retry", job=group.describe(),
                              attempt=attempt_counts[idx], reason=reason)
            retry.append(idx)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on hung or dead workers."""
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            if proc.is_alive():
                proc.terminate()

    # ----- statistics --------------------------------------------------------

    def _delta_counters(self) -> Tuple[int, ...]:
        """The counters :meth:`_record_batch` mirrors as deltas."""
        return tuple(getattr(self, name) for name, _ in _DELTA_COUNTERS)

    def _record_batch(self, outcomes: Sequence, before: Tuple[int, ...],
                      ) -> None:
        """Mirror one batch's outcomes, and the counter deltas since
        ``before``, into the telemetry registry."""
        registry = get_registry()
        if not registry.enabled:
            return
        for outcome in outcomes:
            registry.counter(
                "engine_jobs_total",
                cached=str(outcome.cached).lower()).inc()
            if getattr(outcome, "oom", None) is not None:
                registry.counter("engine_oom_outcomes_total").inc()
            if outcome.error is not None:
                registry.counter("engine_failed_jobs_total").inc()
            if not outcome.cached:
                registry.histogram("engine_job_exec_s").observe(
                    outcome.exec_s)
                registry.histogram("engine_queue_wait_s").observe(
                    outcome.queue_wait_s)
        for (_, metric), now, then in zip(_DELTA_COUNTERS,
                                          self._delta_counters(), before):
            if now > then:
                registry.counter(metric).inc(now - then)
        registry.gauge("engine_pool_utilization").set(
            self.stats().pool_utilization)

    @property
    def cache_stats(self) -> CacheStats:
        """The cache's counters (zeros when no cache is attached)."""
        return (self.cache.stats if self.cache is not None
                else CacheStats())

    def stats(self) -> EngineStats:
        """A structured snapshot of every engine counter."""
        return EngineStats(
            cache=self.cache_stats.snapshot(),
            executed=self.executed,
            jobs_completed=self.jobs_completed,
            busy_s=self.busy_s,
            exec_s_total=self.exec_s_total,
            queue_wait_s_total=self.queue_wait_s_total,
            worker_s_total=self.worker_s_total,
            retries=self.retries,
            failures=self.failures,
            timeouts=self.timeouts,
            jobs_chunked=self.jobs_chunked,
            jobs_batched=self.jobs_batched,
        )
