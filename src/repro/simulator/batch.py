"""Vectorized batch evaluation of a full simulation run.

:meth:`DDPSimulator.run <repro.simulator.ddp.DDPSimulator.run>` needs
only two numbers per iteration — sync time and iteration end — yet the
event path replays the whole span-producing machinery 110 times in pure
Python.  This module computes the same numbers for *all* iterations at
once as NumPy array operations:

* the run's entire jitter sequence is drawn in **one** RNG call per
  member: the present cells of an ``(iterations × draws-per-iteration)``
  lognormal matrix, filled in row-major order — exactly the event
  path's sequential draw order, so both paths consume identical
  variates from the same seed;
* per-layer backward times become an ``(iterations × layers)`` product
  plus a row-wise prefix sum (bucket-ready times);
* bucket all-reduces are priced once per distinct (world size,
  bandwidth) state and pushed through the FIFO comm-stream recurrence —
  the §4.1 model's ``max(γ·T_comp, (k-1)·T_comm) + T_comm(b̂)``
  evaluated exactly.

Bit-identity with the event path is a hard invariant, not an
approximation: every elementary IEEE-754 operation is exactly rounded,
so an elementwise array op equals the scalar op on each element, and
this module is written so the *sequence* of operations per element —
multiplication association, ``cumsum`` accumulation order, the
``max``/``+`` pipeline recurrence — matches the event path's exactly.
``tests/test_batch_equivalence.py`` and
``tests/test_faulted_batch_equivalence.py`` pin the invariant across
schemes, world sizes, algorithms, jitter settings and fault kinds.

Every run goes through one kernel per execution path, and fault
schedules are part of its input: :func:`run_batch_many` resolves each
member's :class:`~repro.faults.FaultSchedule` into per-iteration rows
(:meth:`FaultInjector.resolve_range
<repro.faults.FaultInjector.resolve_range>`) and applies them as masks
and broadcasts — compute stretch and stalls scale rows, degraded
bandwidths and surviving world sizes regroup the collective pricing,
and retransmit delays are drawn vectorized from the same
``(seed, iteration, transfer_index)``-seeded streams the event path
uses.  A fault-free run is the case whose rows are all identity.  The
same machinery stacks *several* runs of one simulator — members that
differ only in jitter seed and fault schedule, an engine job family —
into a single kernel call planned once.

Span-level timeline traces do not need the event path either: the
kernels optionally record the intermediate arrays that delimit span
boundaries (``record=`` on a :data:`FaultedKernel`), and
:mod:`repro.simulator.reconstruct` reassembles them into
event-identical :class:`~repro.simulator.trace.IterationTrace` objects.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..collectives import ring_allreduce_time_batch
from ..errors import ConfigurationError
from ..faults import FaultInjector, FaultSchedule, ResolvedFaults
from ..telemetry.metrics import get_registry
from .ddp import DDPSimulator, TimingResult

def _col(J: np.ndarray, idx: Optional[int], n: int) -> np.ndarray:
    """Jitter column ``idx``, or an all-ones vector for a skipped draw
    (``x * 1.0`` is an exact identity, matching the event path's
    jitter-of-1.0 shortcut)."""
    if idx is None:
        return np.ones(n)
    return J[:, idx]


def _cols(J: np.ndarray, sl: Optional[slice], n: int,
          count: int) -> np.ndarray:
    """Jitter column block ``sl``, or all-ones for skipped draws."""
    if sl is None:
        return np.ones((n, count))
    return J[:, sl]


def _allreduce_times(sim: DDPSimulator, payloads: np.ndarray,
                     p: int, bw_scale: float) -> np.ndarray:
    """Vectorized ``sim._allreduce_time`` over an array of payloads.

    Ring (the paper's forced algorithm and the default) broadcasts in
    one expression; the ablation algorithms price per payload through
    the scalar dispatcher — the bucket count is small, and the scalar
    path keeps their exact arithmetic without duplicating it here.
    ``bw_scale`` is the fault injector's degraded-bandwidth multiplier
    (1.0 healthy), applied exactly as the scalar dispatcher applies it.
    """
    if sim.config.allreduce_algorithm == "ring":
        return ring_allreduce_time_batch(
            payloads, p, sim.fabric.min_bandwidth() * bw_scale,
            sim.fabric.alpha_s)
    return np.asarray(
        [sim._allreduce_time(float(b), p, bw_scale) for b in payloads],
        dtype=float)


# ----- per-path kernels -------------------------------------------------------
#
# Each planner prices everything iteration-independent once, registers
# the path's draw pattern on a _SlotLayout (in the event path's exact
# draw order), and returns the draw-presence function and the kernel.
# The kernels replicate the event path's arithmetic operation by
# operation; the comments flag each ordering constraint.  Per-iteration
# fault state — compute stretch, degraded bandwidth, surviving world
# size, recovery stalls, retransmit risk — arrives as per-row arrays
# (identity rows for a fault-free run), and two mechanisms keep
# bit-identity:
#
# * row-varying draw presence: the event path's draw count can vary per
#   iteration (the sequential path skips its comm draw when an elastic
#   crash shrinks the world to 1; the bucket-cast draw only happens when
#   the hook cost at that iteration's world size is positive), so each
#   registered slot carries a per-row *presence* mask and one flat
#   lognormal call replays exactly the draws the event path would have
#   made, in its order;
# * per-(world size, bandwidth-scale) combo pricing: collective costs
#   are computed once per distinct degraded state through the *scalar*
#   dispatchers (exact for every algorithm) and scattered to rows.


class _SlotLayout:
    """Per-iteration draw slots with row-varying presence.

    Planners register each potential draw in event-path order; a
    registered slot may be *absent* on some rows (iterations) — the
    presence mask decides.  Absent cells hold 1.0 (the event path's
    jitter-of-1.0 shortcut) and consume no RNG stream.
    """

    def __init__(self) -> None:
        self.sigmas: List[float] = []

    def slot(self, sigma: float) -> Optional[int]:
        """Register one draw; its slot index, or ``None`` if the sigma
        is zero (never drawn on any row)."""
        if sigma <= 0:
            return None
        self.sigmas.append(float(sigma))
        return len(self.sigmas) - 1

    def slots(self, sigma: float, count: int) -> Optional[slice]:
        """Register ``count`` consecutive draws of the same sigma."""
        if sigma <= 0 or count == 0:
            return None
        start = len(self.sigmas)
        self.sigmas.extend([float(sigma)] * count)
        return slice(start, start + count)

    def draw(self, rng: np.random.Generator,
             present: np.ndarray) -> np.ndarray:
        """One member's jitter: an ``(n, S)`` matrix, 1.0 where absent.

        The present cells are drawn in one flat lognormal call; boolean
        masking walks the matrix row-major, so the stream consumption
        order is exactly the event path's sequential per-iteration
        draws.
        """
        n = present.shape[0]
        S = len(self.sigmas)
        if S == 0:
            return np.ones((n, 0))
        J = np.ones((n, S))
        sigma = np.broadcast_to(np.asarray(self.sigmas, dtype=float),
                                (n, S))
        flat = sigma[present]
        if flat.size:
            J[present] = rng.lognormal(mean=0.0, sigma=flat)
        return J


class _FaultRows:
    """Stacked per-row fault state across a batch call's members."""

    def __init__(self, slow: np.ndarray, bw: np.ndarray, p: np.ndarray,
                 stall: np.ndarray):
        self.slow = slow    # compute slowdown (>= 1)
        self.bw = bw        # bandwidth scale (<= 1)
        self.p = p          # surviving world size (int)
        self.stall = stall  # start-of-iteration stall seconds
        self.worlds = np.unique(p)  # its distinct values


#: One member of a stacked batch call: its row slice, its fault
#: injector and its resolved fault range (both ``None`` for a fault-free
#: member).
_Member = Tuple[slice, Optional[FaultInjector], Optional[ResolvedFaults]]


def _stack_member_faults(sim: DDPSimulator,
                         injectors: Sequence[Optional[FaultInjector]],
                         n: int) -> Tuple[_FaultRows, List[_Member]]:
    """Resolve every member's fault schedule into stacked row arrays."""
    slows, bws, ps, stalls = [], [], [], []
    members: List[_Member] = []
    for index, injector in enumerate(injectors):
        sl = slice(index * n, (index + 1) * n)
        if injector is None:
            slows.append(np.ones(n))
            bws.append(np.ones(n))
            ps.append(np.full(n, sim.cluster.world_size, dtype=np.int64))
            stalls.append(np.zeros(n))
            resolved = None
        else:
            resolved = injector.resolve_range(0, n)
            slows.append(resolved.compute_slowdown)
            bws.append(resolved.bandwidth_scale)
            ps.append(resolved.world_size)
            stalls.append(resolved.stall_s)
        members.append((sl, injector, resolved))
    F = _FaultRows(np.concatenate(slows), np.concatenate(bws),
                   np.concatenate(ps), np.concatenate(stalls))
    return F, members


def _combos(F: _FaultRows) -> List[Tuple[Tuple[int, float], np.ndarray]]:
    """Rows grouped by distinct (world size, bandwidth scale) state.

    Fault schedules produce a handful of distinct degraded states over
    a run, so pricing once per combo through the scalar dispatchers is
    both exact and cheap.  Each state packs losslessly into one complex
    key (real: world size, imaginary: bandwidth scale)."""
    keys, inverse = np.unique(F.p + 1j * F.bw, return_inverse=True)
    return [((int(k.real), float(k.imag)), np.flatnonzero(inverse == i))
            for i, k in enumerate(keys)]


def _per_p(F: _FaultRows, fn: Callable[[int], float]) -> np.ndarray:
    """Map a per-world-size scalar onto rows (one call per distinct p)."""
    if F.worlds.size == 1:
        return np.full(F.p.size, fn(int(F.worlds[0])))
    out = np.empty(F.p.size)
    for p in F.worlds:
        out[F.p == p] = fn(int(p))
    return out


def _retransmit_arrays(members: Sequence[_Member], durations: np.ndarray,
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Retransmit delays/replays for every (row, transfer) cell.

    ``durations`` is the jittered transfer-duration matrix ``(N, T)``;
    members without retransmit risk contribute zeros without touching
    any RNG (exactly like the event path, which never rolls the dice
    for them).  Each risky member's cells go through one vectorized
    stream call."""
    N, T = durations.shape
    delays = np.zeros((N, T))
    replays = np.zeros((N, T), dtype=np.int64)
    for sl, injector, resolved in members:
        if resolved is None or not resolved.has_retransmits:
            continue
        assert injector is not None
        delays[sl], replays[sl] = injector.retransmit_delay_range(
            resolved, durations[sl])
    return delays, replays


#: A faulted kernel maps (jitter matrix, fault rows, members) to the
#: per-row (forward_end, sync_end, iteration_end, wire bytes,
#: retransmit delays, retransmit replays).  Kernels also accept an
#: optional ``record`` dict; when given, the intermediate arrays that
#: delimit per-iteration span boundaries (bucket/wave pipeline starts
#: and ends, encode/decode instants, optimizer starts) are stored into
#: it so :mod:`repro.simulator.reconstruct` can rebuild event-identical
#: traces without re-running the event loop.  Recording never changes
#: the arithmetic: the same operations run in the same order.
FaultedKernel = Callable[
    [np.ndarray, _FaultRows, Sequence[_Member]],
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
          np.ndarray]]

#: A presence function maps fault rows to the (N, S) draw-presence mask.
PresenceFn = Callable[[_FaultRows], np.ndarray]


def _plan_baseline_faulted(sim: DDPSimulator, bs: int,
                           layout: _SlotLayout,
                           ) -> Tuple[PresenceFn, FaultedKernel]:
    """Faulted syncSGD / ddp_overlap: bucketed, overlapped all-reduce."""
    cfg = sim.config
    fwd_base = sim._forward_time(bs)
    opt_base = sim._optimizer_time()
    bucket_sizes, close_idx = sim._baseline_bucket_plan()
    sizes = np.asarray(bucket_sizes, dtype=float)
    nb = len(bucket_sizes)
    base_layers = np.asarray(sim._backward_base_times(bs), dtype=float)
    overlap_enabled = cfg.overlap_communication
    has_hook = not sim._is_baseline

    def wire_scale_at(p: int) -> float:
        if sim._is_baseline:
            return 1.0
        return sim._scheme_cost(p).wire_bytes / sim.model.grad_bytes

    def hook_at(p: int) -> float:
        if sim._is_baseline:
            return 0.0
        return sim._scheme_cost(p).encode_decode_s

    # Event-path draw order: forward, per layer, per bucket collective
    # (drawn even at p == 1), bucket-cast when the hook cost at that
    # iteration's world size is positive, optimizer.
    c_fwd = layout.slot(cfg.compute_jitter)
    sl_layers = layout.slots(cfg.compute_jitter, base_layers.size)
    sl_comm = layout.slots(cfg.comm_jitter, nb)
    c_hook = layout.slot(cfg.compute_jitter) if has_hook else None
    c_opt = layout.slot(cfg.compute_jitter)

    def presence(F: _FaultRows) -> np.ndarray:
        pres = np.ones((F.p.size, len(layout.sigmas)), dtype=bool)
        if c_hook is not None:
            pres[:, c_hook] = _per_p(F, hook_at) > 0
        return pres

    def kernel(J: np.ndarray, F: _FaultRows, members: Sequence[_Member],
               record: Optional[Dict[str, Any]] = None):
        N = F.p.size
        fwd_end = F.stall + (fwd_base * F.slow) * _col(J, c_fwd, N)
        overlap_row = (F.p > 1) if overlap_enabled \
            else np.zeros(N, dtype=bool)
        # The event path passes (stretch * slow) into the layer times;
        # (t * ss) * j preserves its association.
        ss = np.where(overlap_row, cfg.gamma, 1.0) * F.slow
        layers = ((base_layers[None, :] * ss[:, None])
                  * _cols(J, sl_layers, N, base_layers.size))
        completion = np.cumsum(layers, axis=1) + fwd_end[:, None]
        backward_end = completion[:, -1]
        ready = np.where(overlap_row[:, None], completion[:, close_idx],
                         backward_end[:, None])
        wire_row = _per_p(F, wire_scale_at)
        durs = np.zeros((N, nb))
        for (p, bw), rows in _combos(F):
            if p > 1:
                durs[rows] = _allreduce_times(
                    sim, sizes * wire_scale_at(p), p, bw)
        durations = durs * _cols(J, sl_comm, N, nb)
        delays, replays = _retransmit_arrays(members, durations)
        # The FIFO comm-stream recurrence, with each bucket's
        # retransmit penalty appended after its transfer (the event
        # path's comm_free update order).
        if record is not None:
            bucket_start = np.empty((N, nb))
            bucket_end = np.empty((N, nb))
        end = fwd_end
        for k in range(nb):
            begun = np.maximum(ready[:, k], end)
            done = begun + durations[:, k]
            if record is not None:
                bucket_start[:, k] = begun
                bucket_end[:, k] = done
            end = done + delays[:, k]
        sync_pre_hook = np.maximum(end, backward_end)
        sync_end = sync_pre_hook
        hook_term = None
        if has_hook:
            hook_row = _per_p(F, hook_at)
            hook_term = (hook_row * F.slow) * _col(J, c_hook, N)
            sync_end = sync_end + hook_term
        start = np.maximum(sync_end, backward_end)
        iter_end = start + (opt_base * F.slow) * _col(J, c_opt, N)
        wire = np.where(F.p > 1, float(sizes.sum()) * wire_row, 0.0)
        wire = wire + (sizes[None, :] * wire_row[:, None]
                       * replays).sum(axis=1)
        if record is not None:
            record.update(
                path="baseline", fwd_end=fwd_end, backward_end=backward_end,
                bucket_sizes=sizes, wire_row=wire_row,
                bucket_start=bucket_start, bucket_end=bucket_end,
                delays=delays, replays=replays,
                sync_pre_hook=sync_pre_hook, hook_term=hook_term,
                sync_end=sync_end, opt_start=start, iter_end=iter_end)
        return fwd_end, sync_end, iter_end, wire, delays, replays

    return presence, kernel


def _plan_sequential_faulted(sim: DDPSimulator, bs: int,
                             layout: _SlotLayout,
                             ) -> Tuple[PresenceFn, FaultedKernel]:
    """Faulted sequential compression: encode → collective → decode."""
    cfg = sim.config
    fwd_base = sim._forward_time(bs)
    bwd_base = sim._backward_time(bs)
    hook_over = sim._hook_overhead()
    opt_base = sim._optimizer_time()

    # Draw order: forward, backward, encode/decode, collective (only
    # when that iteration's world size exceeds 1), optimizer.
    c_fwd = layout.slot(cfg.compute_jitter)
    c_bwd = layout.slot(cfg.compute_jitter)
    c_enc = layout.slot(cfg.compute_jitter)
    c_comm = layout.slot(cfg.comm_jitter)
    c_opt = layout.slot(cfg.compute_jitter)

    def presence(F: _FaultRows) -> np.ndarray:
        pres = np.ones((F.p.size, len(layout.sigmas)), dtype=bool)
        if c_comm is not None:
            pres[:, c_comm] = F.p > 1
        return pres

    def kernel(J: np.ndarray, F: _FaultRows, members: Sequence[_Member],
               record: Optional[Dict[str, Any]] = None):
        N = F.p.size
        enc_row = _per_p(
            F, lambda p: sim._scheme_cost(p).encode_decode_s + hook_over)
        wire_row = _per_p(F, lambda p: sim._scheme_cost(p).wire_bytes)
        comm_base = np.zeros(N)
        for (p, bw), rows in _combos(F):
            if p > 1:
                comm_base[rows] = sim._collective_time(
                    sim._scheme_cost(p), p, bw)
        fwd_end = F.stall + (fwd_base * F.slow) * _col(J, c_fwd, N)
        backward_end = fwd_end + (bwd_base * F.slow) * _col(J, c_bwd, N)
        enc_dec = (enc_row * F.slow) * _col(J, c_enc, N)
        encode_end = backward_end + enc_dec / 2.0
        comm = comm_base * _col(J, c_comm, N)
        agg_end = encode_end + comm
        delays, replays = _retransmit_arrays(members, comm[:, None])
        comm_end = agg_end + delays[:, 0]
        sync_end = comm_end + enc_dec / 2.0
        start = np.maximum(sync_end, backward_end)
        iter_end = start + (opt_base * F.slow) * _col(J, c_opt, N)
        wire = np.where(comm > 0, wire_row, 0.0) + wire_row * replays[:, 0]
        if record is not None:
            record.update(
                path="sequential", fwd_end=fwd_end,
                backward_end=backward_end, encode_end=encode_end,
                comm=comm, agg_end=agg_end, comm_end=comm_end,
                wire_row=wire_row, delays=delays, replays=replays,
                sync_end=sync_end, opt_start=start, iter_end=iter_end)
        return fwd_end, sync_end, iter_end, wire, delays, replays

    return presence, kernel


def _plan_overlapped_faulted(sim: DDPSimulator, bs: int,
                             layout: _SlotLayout,
                             ) -> Tuple[PresenceFn, FaultedKernel]:
    """Faulted Figure-3 strategy: encode interleaved with backward."""
    cfg = sim.config
    fwd_base = sim._forward_time(bs)
    bwd_base = sim._backward_time(bs)
    hook_over = sim._hook_overhead()
    opt_base = sim._optimizer_time()
    pen = cfg.contention_penalty
    waves = 4

    # Draw order: forward, backward, encode/decode, the shared wave
    # collective (drawn even at p == 1 on this path), optimizer.
    c_fwd = layout.slot(cfg.compute_jitter)
    c_bwd = layout.slot(cfg.compute_jitter)
    c_enc = layout.slot(cfg.compute_jitter)
    c_comm = layout.slot(cfg.comm_jitter)
    c_opt = layout.slot(cfg.compute_jitter)

    def presence(F: _FaultRows) -> np.ndarray:
        return np.ones((F.p.size, len(layout.sigmas)), dtype=bool)

    def kernel(J: np.ndarray, F: _FaultRows, members: Sequence[_Member],
               record: Optional[Dict[str, Any]] = None):
        N = F.p.size
        enc_row = _per_p(
            F, lambda p: sim._scheme_cost(p).encode_decode_s + hook_over)
        wire_row = _per_p(F, lambda p: sim._scheme_cost(p).wire_bytes)
        comm_base = np.zeros(N)
        for (p, bw), rows in _combos(F):
            if p > 1:
                comm_base[rows] = sim._collective_time(
                    sim._scheme_cost(p), p, bw)
        fwd_end = F.stall + (fwd_base * F.slow) * _col(J, c_fwd, N)
        t_bwd = (bwd_base * F.slow) * _col(J, c_bwd, N)
        enc_dec = (enc_row * F.slow) * _col(J, c_enc, N)
        stretched = (t_bwd + enc_dec / 2.0) * pen
        compute_end = fwd_end + stretched
        comm_total = comm_base * _col(J, c_comm, N)
        per_wave = comm_total / waves
        wave_durs = np.broadcast_to(per_wave[:, None], (N, waves))
        delays, replays = _retransmit_arrays(members, wave_durs)
        if record is not None:
            wave_start = np.empty((N, waves))
            wave_end = np.empty((N, waves))
        end = fwd_end
        for w in range(waves):
            ready = fwd_end + stretched * (w + 1) / waves
            begun = np.maximum(ready, end)
            done = begun + per_wave
            if record is not None:
                wave_start[:, w] = begun
                wave_end[:, w] = done
            end = done + delays[:, w]
        # Single-worker iterations never enter the wave loop on the
        # event path: their sync end is the stretched compute end.
        pre = np.where(F.p > 1, end, compute_end)
        decode_start = np.maximum(pre, compute_end)
        sync_end = decode_start + enc_dec / 2.0
        start = np.maximum(sync_end, compute_end)
        iter_end = start + (opt_base * F.slow) * _col(J, c_opt, N)
        wire = np.where(F.p > 1, wire_row, 0.0)
        wire = wire + (wire_row[:, None] / waves * replays).sum(axis=1)
        if record is not None:
            record.update(
                path="overlapped", fwd_end=fwd_end,
                backward_end=compute_end, waves=waves,
                wave_start=wave_start, wave_end=wave_end,
                wire_row=wire_row, delays=delays, replays=replays,
                decode_start=decode_start, sync_end=sync_end,
                opt_start=start, iter_end=iter_end)
        return fwd_end, sync_end, iter_end, wire, delays, replays

    return presence, kernel


def _plan_run(sim: DDPSimulator, bs: int, iterations: int,
              seeds: Sequence[int],
              injectors: Sequence[Optional[FaultInjector]],
              ) -> Tuple[FaultedKernel, np.ndarray, _FaultRows,
                         List[_Member]]:
    """Everything a kernel call needs: the simulator's planned kernel,
    every member's jitter matrix, and their stacked fault rows.

    The execution path — bucketed baseline (syncSGD and ``ddp_overlap``
    schemes), overlapped compression, or sequential compression — is
    chosen here for both :func:`run_batch_many` and
    :func:`repro.simulator.reconstruct.reconstruct_traces`.

    Raises:
        OutOfMemoryError: the deterministic OOM the event path raises.
            Memory is structural (model, batch size, config), so one
            check covers every member, and it counts one OOM per member.
    """
    if sim.config.check_memory:
        sim.check_memory(bs, runs=len(seeds))
    layout = _SlotLayout()
    if sim._is_baseline or sim.scheme.ddp_overlap:
        presence_fn, kernel = _plan_baseline_faulted(sim, bs, layout)
    elif sim.config.overlap_compression:
        presence_fn, kernel = _plan_overlapped_faulted(sim, bs, layout)
    else:
        presence_fn, kernel = _plan_sequential_faulted(sim, bs, layout)
    F, members = _stack_member_faults(sim, injectors, iterations)
    present = presence_fn(F)
    J = np.ones((F.p.size, len(layout.sigmas)))
    for (sl, _, _), seed in zip(members, seeds):
        J[sl] = layout.draw(np.random.default_rng(seed), present[sl])
    return kernel, J, F, members


# ----- entry points ------------------------------------------------------------


def run_batch_many(sim: DDPSimulator,
                   batch_size: Optional[int] = None,
                   iterations: int = 110, warmup: int = 10,
                   seeds: Sequence[int] = (0,),
                   faults: Optional[Sequence[Optional[FaultSchedule]]] = None,
                   ) -> List[TimingResult]:
    """Evaluate one or more runs of ``sim`` — faulted or not — in one
    kernel call.

    Members share everything the kernel prices once (model, cluster,
    fabric, scheme, config, kernel profile: the simulator itself) and
    differ only in jitter seed and fault schedule.  This is the
    cross-config batch dimension: an engine job family (for example the
    reliability exhibit's clean/NIC-straggler/compute-straggler
    triplets) evaluates as one stacked array computation, planned once.

    ``faults`` gives each member's schedule (``None`` or an empty
    schedule for a fault-free member); each faulted member gets its own
    :class:`~repro.faults.FaultInjector` on ``sim``'s fabric.  Without
    ``faults`` every member runs ``sim``'s own schedule through
    ``sim.injector``, whose run counters then describe the last member.

    Each member's :class:`TimingResult` is bit-identical to the event
    loop's ``run(..., mode="event")`` of a simulator built with that
    member's schedule; members' RNG streams are fully independent
    (per-member jitter seed, per-member schedule seed), so stacking
    changes nothing but wall-clock time.

    Raises:
        ConfigurationError: invalid protocol, a schedule that does not
            fit the cluster, or a seed or schedule count that does not
            match the member count.
        OutOfMemoryError: the same deterministic OOM the event path
            raises (memory state is structural, so it is shared by
            every member).
    """
    if not seeds:
        raise ConfigurationError("run_batch_many needs >= 1 member seed")
    if iterations <= warmup:
        raise ConfigurationError(
            f"iterations ({iterations}) must exceed warmup ({warmup})")
    if faults is None:
        injectors: List[Optional[FaultInjector]] = (
            [sim._injector] * len(seeds))
    elif len(faults) != len(seeds):
        raise ConfigurationError(
            f"got {len(seeds)} seeds but {len(faults)} fault schedules")
    else:
        injectors = [
            None if schedule is None or schedule.is_empty
            else FaultInjector(schedule, sim.cluster, sim.fabric)
            for schedule in faults]
    bs = batch_size if batch_size is not None else sim.model.default_batch_size
    kernel, J, F, members = _plan_run(sim, bs, iterations, seeds, injectors)
    fwd_end, sync_end, iter_end, wire, delays, replays = kernel(
        J, F, members)
    sync = sync_end - fwd_end

    registry = get_registry()
    label = sim.scheme.label
    results: List[TimingResult] = []
    for sl, injector, resolved in members:
        member_sync = sync[sl]
        member_iter = iter_end[sl]
        if injector is not None:
            # Rebuild the event path's per-run counters: total replays,
            # and the delay accumulated in its (iteration, transfer)
            # visit order (cumsum is strictly sequential, and the
            # event path's skipped zero-delay calls add exactly 0.0).
            injector.reset_run_counters()
            member_delays = delays[sl].ravel()
            member_replays = replays[sl].ravel()
            total_replays = int(member_replays.sum())
            if total_replays:
                injector.retransmits_injected = total_replays
                injector.retransmit_delay_s = float(
                    np.cumsum(member_delays)[-1])
            if registry.enabled:
                for idx in np.flatnonzero(member_replays):
                    registry.counter("sim_fault_retransmits_total").inc(
                        int(member_replays[idx]))
                    registry.histogram(
                        "sim_fault_retransmit_delay_s").observe(
                        float(member_delays[idx]))
                injector.record_range(resolved)
        if registry.enabled:
            registry.counter("sim_iterations_total",
                             scheme=label).inc(iterations)
            hist = registry.histogram("sim_sync_time_s", scheme=label)
            for value in member_sync.tolist():
                hist.observe(value)
            wire_total = float(wire[sl].sum())
            if wire_total > 0:
                registry.counter("sim_wire_bytes_total",
                                 scheme=label).inc(wire_total)
        results.append(TimingResult(
            model=sim.model.name,
            scheme=label,
            world_size=sim.cluster.world_size,
            batch_size=bs,
            sync_times=tuple(member_sync[warmup:].tolist()),
            iteration_times=tuple(member_iter[warmup:].tolist()),
        ))
    return results


def run_batch(sim: DDPSimulator, batch_size: Optional[int] = None,
              iterations: int = 110, warmup: int = 10,
              seed: int = 0) -> TimingResult:
    """Evaluate one measurement run as array operations: a
    :func:`run_batch_many` call with ``sim`` as its only member.

    Produces a :class:`TimingResult` bit-identical to
    ``sim.run(..., mode="event")`` for any simulator, faulted or not.

    Raises:
        ConfigurationError: invalid iteration protocol.
        OutOfMemoryError: the same deterministic OOM the event path
            raises on its first iteration (checked once — it cannot
            vary across iterations).
    """
    return run_batch_many(sim, batch_size, iterations=iterations,
                          warmup=warmup, seeds=(seed,))[0]
