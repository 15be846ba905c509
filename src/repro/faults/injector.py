"""Resolving a :class:`FaultSchedule` into per-iteration fault state.

The :class:`~repro.simulator.DDPSimulator` asks the injector one
question per iteration — :meth:`FaultInjector.faults_for` — and gets
back an :class:`IterationFaults`: the compute stretch the slowest
straggler imposes, the effective bandwidth scale after every active
link/NIC fault is applied to the fabric's matrix, the surviving world
size under elastic recovery, any recovery stall, and the active
retransmit policy.

Determinism rules:

* the injector owns its own RNG space — retransmit draws come from a
  generator seeded by ``(schedule seed, iteration, transfer index)``,
  never from the simulator's jitter stream, so attaching faults does
  not perturb jitter and parallel sweeps replay identically;
* everything else is a pure function of the schedule and the iteration
  index: :meth:`FaultInjector.faults_for` resolves (and memoizes) one
  iteration, :meth:`FaultInjector.resolve_range` a whole range at once
  as interval masks over the schedule's windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..hardware import ClusterConfig
from ..network import Fabric
from ..telemetry.metrics import get_registry
from .schedule import FaultSchedule, RetransmitFault
from .streams import SeededStreams

#: Stream name for fault-window spans in iteration traces; the Perfetto
#: exporter allocates it a track automatically, so fault windows show up
#: as a third timeline row next to ``compute`` and ``comm``.
FAULT_STREAM = "faults"


@dataclass(frozen=True)
class IterationFaults:
    """The resolved fault state of one simulated iteration.

    Attributes:
        iteration: The 0-based absolute iteration index.
        compute_slowdown: Compute stretch factor (>= 1); lockstep
            training runs at the slowest straggler's pace.
        bandwidth_scale: Multiplier (<= 1) on the fabric's pairwise
            minimum bandwidth after active link/NIC faults.
        world_size: Workers actually participating (reduced by elastic
            crash recovery; never below 1).
        stall_s: Recovery stall charged at the start of the iteration
            (crash restart / elastic reconfiguration).
        stall_label: Trace label for the stall span (``None`` = none).
        retransmit: The active retransmit policy, if any.
        active: Labels of every active fault, for trace fault-window
            spans and telemetry (sorted, low cardinality).
    """

    iteration: int
    compute_slowdown: float
    bandwidth_scale: float
    world_size: int
    stall_s: float
    stall_label: Optional[str]
    retransmit: Optional[RetransmitFault]
    active: Tuple[str, ...]

    @property
    def degraded(self) -> bool:
        """Whether anything at all is wrong this iteration."""
        return bool(self.active) or self.stall_s > 0


#: Fault labels an :class:`IterationFaults` can carry in ``active``.
ACTIVE_LABELS = ("crash-elastic", "crash-restart", "degraded-link",
                 "retransmit-risk", "straggler")


def _window_mask(iterations: np.ndarray, start: int,
                 duration: Optional[int],
                 period: Optional[int] = None) -> np.ndarray:
    """Array form of :func:`repro.faults.schedule._window_active`."""
    mask = iterations >= start
    if duration is not None:
        offset = iterations - start
        if period is not None:
            offset = offset % period
        mask &= offset < duration
    return mask


@dataclass(frozen=True)
class ResolvedFaults:
    """A contiguous range of iterations' fault state, as arrays.

    The batch simulation kernel consumes fault state as masks and
    broadcasts rather than one :class:`IterationFaults` at a time; this
    is the array form :meth:`FaultInjector.resolve_range` returns.  The
    arrays are parallel over iterations ``start .. start + n - 1`` and
    each element equals the corresponding field of
    :meth:`FaultInjector.faults_for` for that iteration.

    Attributes:
        start: First (0-based absolute) iteration of the range.
        compute_slowdown: ``(n,)`` compute stretch factors (>= 1).
        bandwidth_scale: ``(n,)`` min-bandwidth multipliers (<= 1).
        world_size: ``(n,)`` surviving world sizes (int).
        stall_s: ``(n,)`` start-of-iteration recovery stalls.
        retransmit: ``(n,)`` index of the active retransmit policy in
            the schedule's ``retransmits``, ``-1`` where none is active.
        active: Each label of :data:`ACTIVE_LABELS` mapped to its
            ``(n,)`` mask: whether ``faults_for(i).active`` holds it.
        has_retransmits: Whether any iteration in the range can drop
            transfers (an active policy with a positive drop rate).
    """

    start: int
    compute_slowdown: np.ndarray
    bandwidth_scale: np.ndarray
    world_size: np.ndarray
    stall_s: np.ndarray
    retransmit: np.ndarray
    active: Dict[str, np.ndarray]
    has_retransmits: bool

    def __len__(self) -> int:
        return int(self.stall_s.size)

    @property
    def degraded(self) -> np.ndarray:
        """``(n,)`` mask of :attr:`IterationFaults.degraded`."""
        mask = self.stall_s > 0
        for labelled in self.active.values():
            mask = mask | labelled
        return mask


def validate_topology(schedule: FaultSchedule,
                      cluster: ClusterConfig) -> None:
    """Reject faults referencing workers/nodes the cluster lacks.

    Raises:
        ConfigurationError: a straggler, crash, link or node fault out
            of range for ``cluster`` (or a malformed link/node factor).
    """
    p = cluster.world_size
    n = cluster.num_nodes
    for s in schedule.stragglers:
        if s.worker >= p:
            raise ConfigurationError(
                f"straggler worker {s.worker} out of range for "
                f"{p} workers")
    for c in schedule.crashes:
        if c.worker >= p:
            raise ConfigurationError(
                f"crash worker {c.worker} out of range for "
                f"{p} workers")
    for link in schedule.links:
        if link.node_a >= n or link.node_b >= n:
            raise ConfigurationError(
                f"link fault ({link.node_a}, {link.node_b}) out of "
                f"range for {n} nodes")
        # Defense in depth: LinkFault's constructor rejects these
        # too, but a self-link that slips through (hand-built or
        # deserialized records) would have its factor applied to the
        # same matrix cell twice (factor²) in the bandwidth scale.
        if link.node_a == link.node_b:
            raise ConfigurationError(
                f"link fault endpoints must differ, got node "
                f"{link.node_a} twice")
        if link.factor <= 0:
            raise ConfigurationError(
                f"link factor must be > 0, got {link.factor}")
    for node in schedule.nodes:
        if node.node >= n:
            raise ConfigurationError(
                f"node fault {node.node} out of range for {n} nodes")
        if node.factor <= 0:
            raise ConfigurationError(
                f"node factor must be > 0, got {node.factor}")


class FaultInjector:
    """Binds a :class:`FaultSchedule` to one cluster + fabric.

    Construction validates the schedule against the topology (a
    straggler on worker 12 of an 8-GPU job is a spec error, not a
    silent no-op) and snapshots the fault-free minimum bandwidth so
    per-iteration scales are computed against the true baseline.
    """

    def __init__(self, schedule: FaultSchedule, cluster: ClusterConfig,
                 fabric: Fabric):
        """Validate ``schedule`` against the topology and bind it."""
        self.schedule = schedule
        self.cluster = cluster
        self.fabric = fabric
        validate_topology(schedule, cluster)
        self._base_min_bw = fabric.min_bandwidth()
        self._cache: Dict[int, IterationFaults] = {}
        self._bw_cache: Dict[tuple, float] = {}
        #: Counters the CLI prints after a faulted run; mirrored into
        #: telemetry when a registry is enabled.  They describe the most
        #: recent run: :meth:`reset_run_counters` zeroes them at the
        #: start of every :meth:`DDPSimulator.run
        #: <repro.simulator.ddp.DDPSimulator.run>`.
        self.retransmits_injected = 0
        self.retransmit_delay_s = 0.0

    def reset_run_counters(self) -> None:
        """Zero the per-run retransmit counters.

        The simulator calls this at the start of every run; without it,
        repeated ``run()`` calls on one simulator accumulate and the
        post-run :meth:`summary` overcounts on reruns.
        """
        self.retransmits_injected = 0
        self.retransmit_delay_s = 0.0

    # ----- per-iteration resolution ----------------------------------------

    def faults_for(self, iteration: int) -> IterationFaults:
        """The resolved fault state of ``iteration`` (memoized)."""
        state = self._cache.get(iteration)
        if state is None:
            state = self._resolve(iteration)
            self._cache[iteration] = state
        return state

    def resolve_range(self, start: int, stop: int) -> ResolvedFaults:
        """Resolve iterations ``[start, stop)`` into parallel arrays.

        The array API of :meth:`faults_for`, computed straight from the
        schedule's windows as interval masks: no per-iteration Python
        work, and the bandwidth scale is priced once per distinct
        active link/node pattern.
        """
        if stop < start:
            raise ConfigurationError(
                f"resolve_range: stop ({stop}) must be >= start ({start})")
        it = np.arange(start, stop, dtype=np.int64)
        n = it.size
        schedule = self.schedule
        # A worker leaves for good at its first elastic crash.
        gone_at: Dict[int, int] = {}
        for c in schedule.crashes:
            if c.recovery == "elastic":
                gone_at[c.worker] = min(c.at_iteration,
                                        gone_at.get(c.worker, c.at_iteration))

        slowdown = np.ones(n)
        straggling = np.zeros(n, dtype=bool)
        for s in schedule.stragglers:
            mask = _window_mask(it, s.start_iteration, s.duration_iterations)
            if s.worker in gone_at:
                mask &= it < gone_at[s.worker]
            slowdown = np.where(mask, np.maximum(slowdown, s.slowdown),
                                slowdown)
            straggling |= mask

        bw_scale = self._bandwidth_scale_range(it)

        world = np.full(n, self.cluster.world_size, dtype=np.int64)
        for at in gone_at.values():
            world -= it >= at
        world = np.maximum(world, 1)
        stall = np.zeros(n)
        crashed = {"crash-elastic": np.zeros(n, dtype=bool),
                   "crash-restart": np.zeros(n, dtype=bool)}
        for c in schedule.crashes:
            row = c.at_iteration - start
            if 0 <= row < n:
                # Schedule order, as the scalar resolution sums stalls.
                stall[row] += c.stall_s
                crashed[f"crash-{c.recovery}"][row] = True

        # The harshest active retransmit policy, the first of equal
        # rates — as the scalar resolution picks it.
        policy = np.full(n, -1, dtype=np.int64)
        rate = np.zeros(n)
        for k, r in enumerate(schedule.retransmits):
            take = _window_mask(it, r.start_iteration, r.duration_iterations)
            take &= (policy < 0) | (r.drop_rate > rate)
            policy[take] = k
            rate[take] = r.drop_rate
        active = {"degraded-link": bw_scale < 1.0,
                  "retransmit-risk": policy >= 0,
                  "straggler": straggling, **crashed}
        return ResolvedFaults(
            start=start, compute_slowdown=slowdown,
            bandwidth_scale=bw_scale, world_size=world, stall_s=stall,
            retransmit=policy,
            active={label: active[label] for label in ACTIVE_LABELS},
            has_retransmits=bool((rate > 0).any()))

    def _bandwidth_scale_range(self, it: np.ndarray) -> np.ndarray:
        """:meth:`_bandwidth_scale` over an iteration array, priced once
        per distinct pattern of active link and node faults."""
        links, nodes = self.schedule.links, self.schedule.nodes
        if self.cluster.num_nodes <= 1 or not (links or nodes):
            return np.ones(it.size)
        masks = np.stack(
            [_window_mask(it, f.start_iteration, f.duration_iterations,
                          f.period_iterations) for f in links + nodes],
            axis=1)
        patterns, inverse = np.unique(masks, axis=0, return_inverse=True)
        priced = np.array([
            self._pattern_scale(
                tuple(f for f, on in zip(links, row) if on),
                tuple(f for f, on in zip(nodes, row[len(links):]) if on))
            for row in patterns])
        return priced[inverse.reshape(-1)]

    def _resolve(self, iteration: int) -> IterationFaults:
        """Compute one iteration's fault state from the schedule."""
        active = []

        slowdown = 1.0
        for s in self.schedule.stragglers:
            if s.active(iteration) and not self._crashed_out(
                    s.worker, iteration):
                slowdown = max(slowdown, s.slowdown)
                active.append("straggler")

        bw_scale = self._bandwidth_scale(iteration)
        if bw_scale < 1.0:
            active.append("degraded-link")

        world = self.cluster.world_size
        stall_s = 0.0
        stall_label = None
        elastic_gone: set = set()
        for c in self.schedule.crashes:
            if (c.recovery == "elastic" and iteration >= c.at_iteration
                    and c.worker not in elastic_gone):
                # Decrement once per *departed worker*, not per entry:
                # the schedule validates against duplicate elastic
                # crashes, but a hand-built duplicate must not shrink
                # the world twice for one physical departure.
                elastic_gone.add(c.worker)
                world -= 1
            if iteration == c.at_iteration:
                stall_s += c.stall_s
                stall_label = f"crash-{c.recovery}"
                active.append(f"crash-{c.recovery}")
        world = max(1, world)

        retransmit = None
        for r in self.schedule.retransmits:
            if r.active(iteration):
                # With several overlapping policies the harshest wins —
                # modelling independent loss processes would need a
                # combined rate anyway, and one policy is the 99% case.
                if retransmit is None or r.drop_rate > retransmit.drop_rate:
                    retransmit = r
        if retransmit is not None:
            active.append("retransmit-risk")

        return IterationFaults(
            iteration=iteration,
            compute_slowdown=slowdown,
            bandwidth_scale=bw_scale,
            world_size=world,
            stall_s=stall_s,
            stall_label=stall_label,
            retransmit=retransmit,
            active=tuple(sorted(set(active))),
        )

    def _crashed_out(self, worker: int, iteration: int) -> bool:
        """Whether ``worker`` has been elastically dropped by now (a
        dropped straggler stops straggling — the silver lining)."""
        return any(c.worker == worker and c.recovery == "elastic"
                   and iteration >= c.at_iteration
                   for c in self.schedule.crashes)

    def _bandwidth_scale(self, iteration: int) -> float:
        """Effective min-bandwidth multiplier after active link faults."""
        if self.cluster.num_nodes <= 1:
            return 1.0
        return self._pattern_scale(
            tuple(f for f in self.schedule.links if f.active(iteration)),
            tuple(f for f in self.schedule.nodes if f.active(iteration)))

    def _pattern_scale(self, active_links: tuple,
                       active_nodes: tuple) -> float:
        """The min-bandwidth multiplier of one active-fault pattern.

        Applies every active link/NIC factor to a copy of the fabric's
        pairwise matrix and re-takes the minimum — exactly the paper's
        probe-and-take-minimum methodology, run against the degraded
        fabric.  A schedule spends whole windows in the same handful of
        patterns, so the scale is memoized per pattern.
        """
        if not active_links and not active_nodes:
            return 1.0
        pattern = (active_links, active_nodes)
        cached = self._bw_cache.get(pattern)
        if cached is not None:
            return cached
        matrix = np.array(self.fabric._pair_bw, dtype=float)
        np.fill_diagonal(matrix, np.inf)
        for link in active_links:
            matrix[link.node_a, link.node_b] *= link.factor
            matrix[link.node_b, link.node_a] *= link.factor
        for node in active_nodes:
            # The diagonal stays inf, so scaling whole rows and columns
            # touches every off-diagonal cell once, in schedule order.
            matrix[node.node, :] *= node.factor
            matrix[:, node.node] *= node.factor
        scale = float(matrix.min()) / self._base_min_bw
        self._bw_cache[pattern] = scale
        return scale

    # ----- retransmits ------------------------------------------------------

    def retransmit_delay(self, iteration: int, transfer_index: int,
                         base_duration_s: float) -> Tuple[float, int]:
        """Extra seconds a transfer pays to loss this iteration.

        Returns ``(delay_s, replays)``.  Each attempt drops with the
        policy's ``drop_rate``; attempt *k*'s failure costs a timeout of
        ``timeout_s * backoff**(k-1)`` plus a full replay of the
        transfer (the α+β cost again).  After ``max_retries`` failures
        the transfer is forced through.  The draw stream is seeded by
        ``(schedule seed, iteration, transfer_index)``, so it is
        reproducible and independent of the jitter RNG.
        """
        state = self.faults_for(iteration)
        policy = state.retransmit
        if policy is None or policy.drop_rate == 0.0:
            return 0.0, 0
        rng = np.random.default_rng(
            (self.schedule.seed, iteration, transfer_index))
        delay = 0.0
        replays = 0
        while replays < policy.max_retries:
            if rng.random() >= policy.drop_rate:
                break
            delay += (policy.timeout_s * policy.backoff ** replays
                      + base_duration_s)
            replays += 1
        if replays:
            self.retransmits_injected += replays
            self.retransmit_delay_s += delay
            registry = get_registry()
            if registry.enabled:
                registry.counter("sim_fault_retransmits_total").inc(replays)
                registry.histogram("sim_fault_retransmit_delay_s").observe(
                    delay)
        return delay, replays

    def retransmit_delay_range(self, resolved: ResolvedFaults,
                               durations: np.ndarray,
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`retransmit_delay` over a transfer matrix.

        ``durations`` is ``(n, T)`` over ``resolved``'s iterations: cell
        ``(row, t)`` is transfer ``t`` of iteration
        ``resolved.start + row``.  Returns ``(delay_s, replays)`` arrays
        of that shape whose elements are bit-identical to the scalar
        call: every cell's draws come from its own ``(schedule seed,
        iteration, transfer)`` stream, all seeded and advanced at once by
        :class:`~repro.faults.streams.SeededStreams`, and the per-retry
        delay terms accumulate in the scalar loop's order.

        Unlike the scalar method this is *pure*: the run counters and
        telemetry are untouched — the batch path mirrors them itself
        after assembling every transfer, preserving the event path's
        accumulation order.
        """
        durs = np.asarray(durations, dtype=float)
        n, T = durs.shape
        delays = np.zeros((n, T))
        replays = np.zeros((n, T), dtype=np.int64)
        policies = self.schedule.retransmits
        # Index -1 (no active policy) reads the trailing 0.0 rate.
        rate = np.array([r.drop_rate for r in policies]
                        + [0.0])[resolved.retransmit]
        # The event path never rolls the dice for an idle policy or a
        # zero-length transfer (duration <= 0 skips retransmits).
        rows, cols = np.nonzero((rate > 0)[:, None] & (durs > 0))
        if rows.size == 0:
            return delays, replays
        policies = self.schedule.retransmits
        pol = resolved.retransmit[rows]
        drop = rate[rows]
        limit = np.array([r.max_retries for r in policies])[pol]
        # Each policy's retry terms, in the scalar loop's arithmetic.
        terms = np.zeros((len(policies), max(r.max_retries
                                             for r in policies)))
        for k, r in enumerate(policies):
            terms[k, :r.max_retries] = [r.timeout_s * r.backoff ** j
                                        for j in range(r.max_retries)]
        base = durs[rows, cols]
        streams = SeededStreams(self.schedule.seed, resolved.start + rows,
                                cols)
        delay = np.zeros(rows.size)
        reps = np.zeros(rows.size, dtype=np.int64)
        pending = np.arange(rows.size)
        attempt = 0
        while pending.size:
            # Every pending cell has failed ``attempt`` times so far.
            pending = pending[streams.random(pending) < drop[pending]]
            delay[pending] = delay[pending] + (terms[pol[pending], attempt]
                                               + base[pending])
            reps[pending] += 1
            attempt += 1
            pending = pending[limit[pending] > attempt]
        delays[rows, cols] = delay
        replays[rows, cols] = reps
        return delays, replays

    # ----- reporting --------------------------------------------------------

    def record_iteration(self, state: IterationFaults) -> None:
        """Mirror one iteration's fault state into telemetry (enabled
        registries only; pure counter writes, no RNG interaction)."""
        registry = get_registry()
        if not registry.enabled or not state.degraded:
            return
        registry.counter("sim_fault_degraded_iterations_total").inc()
        for label in state.active:
            # "crash-restart" -> "crash": keep label cardinality tiny.
            kind = label.split("-")[0]
            registry.counter("sim_faults_active_total", kind=kind).inc()
        if state.stall_s > 0:
            registry.counter("sim_fault_stall_s_total").inc(state.stall_s)

    def record_range(self, resolved: ResolvedFaults) -> None:
        """Mirror a resolved range into telemetry in bulk: the counter
        values :meth:`record_iteration` reaches over the same iterations
        (integer counts added once, stall seconds in iteration order)."""
        registry = get_registry()
        if not registry.enabled:
            return
        degraded = int(resolved.degraded.sum())
        if not degraded:
            return
        registry.counter("sim_fault_degraded_iterations_total").inc(degraded)
        kinds: Dict[str, int] = {}
        for label, mask in resolved.active.items():
            kind = label.split("-")[0]
            kinds[kind] = kinds.get(kind, 0) + int(mask.sum())
        for kind, count in kinds.items():
            if count:
                registry.counter("sim_faults_active_total",
                                 kind=kind).inc(count)
        for stall in resolved.stall_s[resolved.stall_s > 0]:
            registry.counter("sim_fault_stall_s_total").inc(float(stall))

    def summary(self) -> str:
        """One-line post-run summary for the CLI."""
        return (f"faults: {self.schedule.describe()}; "
                f"{self.retransmits_injected} retransmits "
                f"(+{self.retransmit_delay_s * 1e3:.1f} ms)")
