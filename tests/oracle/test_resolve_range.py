"""``FaultInjector.resolve_range`` against per-iteration resolution.

``resolve_range`` computes a whole range from the schedule's windows as
interval masks; ``faults_for`` resolves one iteration at a time with
plain Python.  Stacked, the per-iteration records must equal the range
arrays element for element — slowdown, bandwidth scale, world size,
stall, active retransmit policy and every activity label — and bulk
telemetry must reach the counters per-iteration mirroring reaches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    CrashFault,
    FaultInjector,
    FaultSchedule,
    LinkFault,
    NodeFault,
    RetransmitFault,
    StragglerFault,
)
from repro.faults.injector import ACTIVE_LABELS
from repro.hardware import cluster_for_gpus
from repro.network import Fabric
from repro.telemetry import metrics as telemetry_metrics

ITERATIONS = 40


def _window(rng):
    start = int(rng.integers(0, 20))
    duration = None if rng.random() < 0.3 else int(rng.integers(1, 12))
    return start, duration


def random_schedule(rng, world: int, nodes: int) -> FaultSchedule:
    """A schedule mixing every fault kind, windows and flapping."""
    stragglers, links, node_faults, retransmits, crashes = [], [], [], [], []
    for _ in range(int(rng.integers(0, 3))):
        start, duration = _window(rng)
        stragglers.append(StragglerFault(
            worker=int(rng.integers(world)),
            slowdown=float(rng.choice([1.5, 2.0, 3.0])),
            start_iteration=start, duration_iterations=duration))
    for _ in range(int(rng.integers(0, 3))):
        a, b = (int(x) for x in rng.choice(nodes, size=2, replace=False))
        start, duration = _window(rng)
        period = (int(duration + rng.integers(1, 6))
                  if duration is not None and rng.random() < 0.5 else None)
        links.append(LinkFault(node_a=a, node_b=b,
                               factor=float(rng.uniform(0.1, 1.0)),
                               start_iteration=start,
                               duration_iterations=duration,
                               period_iterations=period))
    for _ in range(int(rng.integers(0, 2))):
        start, duration = _window(rng)
        node_faults.append(NodeFault(node=int(rng.integers(nodes)),
                                     factor=float(rng.uniform(0.2, 0.9)),
                                     start_iteration=start,
                                     duration_iterations=duration))
    for _ in range(int(rng.integers(0, 3))):
        start, duration = _window(rng)
        retransmits.append(RetransmitFault(
            drop_rate=float(rng.choice([0.0, 0.05, 0.2])),
            start_iteration=start, duration_iterations=duration))
    for worker in rng.choice(world, size=int(rng.integers(0, 3)),
                             replace=False):
        crashes.append(CrashFault(
            worker=int(worker), at_iteration=int(rng.integers(0, 30)),
            recovery=str(rng.choice(["restart", "elastic"])),
            stall_s=float(rng.uniform(0.0, 1.0))))
    return FaultSchedule(seed=int(rng.integers(1 << 20)),
                         stragglers=stragglers, links=links,
                         nodes=node_faults, retransmits=retransmits,
                         crashes=crashes)


def assert_range_matches(schedule: FaultSchedule, cluster,
                         start: int = 0, stop: int = ITERATIONS) -> None:
    injector = FaultInjector(schedule, cluster, Fabric(cluster))
    resolved = injector.resolve_range(start, stop)
    scalar = FaultInjector(schedule, cluster, Fabric(cluster))
    states = [scalar.faults_for(i) for i in range(start, stop)]
    assert len(resolved) == stop - start
    assert resolved.start == start
    np.testing.assert_array_equal(
        resolved.compute_slowdown, [s.compute_slowdown for s in states])
    np.testing.assert_array_equal(
        resolved.bandwidth_scale, [s.bandwidth_scale for s in states])
    np.testing.assert_array_equal(
        resolved.world_size, [s.world_size for s in states])
    np.testing.assert_array_equal(resolved.stall_s,
                                  [s.stall_s for s in states])
    policies = schedule.retransmits
    assert [policies[k] if k >= 0 else None
            for k in resolved.retransmit] == [s.retransmit for s in states]
    assert set(resolved.active) == set(ACTIVE_LABELS)
    for label, mask in resolved.active.items():
        assert list(mask) == [label in s.active for s in states], label
    assert list(resolved.degraded) == [s.degraded for s in states]
    assert resolved.has_retransmits == any(
        s.retransmit is not None and s.retransmit.drop_rate > 0
        for s in states)
    assert_telemetry_matches(injector, resolved, scalar, states)


def _fault_counters(registry):
    return {key: value for key, value
            in registry.snapshot()["counters"].items()
            if key.startswith("sim_fault")}


def assert_telemetry_matches(injector, resolved, scalar, states) -> None:
    previous = telemetry_metrics.get_registry()
    try:
        bulk = telemetry_metrics.MetricsRegistry()
        telemetry_metrics.set_registry(bulk)
        injector.record_range(resolved)
        per_iteration = telemetry_metrics.MetricsRegistry()
        telemetry_metrics.set_registry(per_iteration)
        for state in states:
            scalar.record_iteration(state)
    finally:
        telemetry_metrics.set_registry(previous)
    assert _fault_counters(bulk) == _fault_counters(per_iteration)


@pytest.mark.parametrize("seed", range(60))
def test_random_schedules(seed):
    rng = np.random.default_rng([seed, 5])
    world = int(rng.choice([8, 16, 32]))
    cluster = cluster_for_gpus(world)
    assert_range_matches(random_schedule(rng, world, cluster.num_nodes),
                         cluster)


def test_offset_range():
    rng = np.random.default_rng(3)
    cluster = cluster_for_gpus(16)
    schedule = random_schedule(rng, 16, cluster.num_nodes)
    assert_range_matches(schedule, cluster, start=7, stop=31)
    assert_range_matches(schedule, cluster, start=5, stop=5)


def test_periodic_link_windows():
    cluster = cluster_for_gpus(16)
    schedule = FaultSchedule(links=[
        LinkFault(node_a=0, node_b=1, factor=0.5, start_iteration=3,
                  duration_iterations=2, period_iterations=5),
        LinkFault(node_a=1, node_b=2, factor=0.25, start_iteration=0,
                  duration_iterations=3, period_iterations=7)],
        nodes=[NodeFault(node=3, factor=0.4, start_iteration=4,
                         duration_iterations=1, period_iterations=3)])
    assert_range_matches(schedule, cluster)


def test_straggler_whose_worker_crashed_elastically():
    cluster = cluster_for_gpus(8)
    schedule = FaultSchedule(
        stragglers=[StragglerFault(worker=3, slowdown=2.5),
                    StragglerFault(worker=4, slowdown=1.5,
                                   start_iteration=2)],
        crashes=[CrashFault(worker=3, at_iteration=6, recovery="elastic",
                            stall_s=0.5)])
    assert_range_matches(schedule, cluster)


def test_restart_and_elastic_crashes_in_one_iteration():
    cluster = cluster_for_gpus(16)
    schedule = FaultSchedule(crashes=[
        CrashFault(worker=1, at_iteration=5, recovery="restart",
                   stall_s=0.3),
        CrashFault(worker=2, at_iteration=5, recovery="elastic",
                   stall_s=0.7),
        CrashFault(worker=4, at_iteration=5, recovery="restart",
                   stall_s=0.1),
        CrashFault(worker=1, at_iteration=9, recovery="elastic",
                   stall_s=0.2)])
    assert_range_matches(schedule, cluster)


def test_tied_retransmit_drop_rates():
    cluster = cluster_for_gpus(8)
    schedule = FaultSchedule(retransmits=[
        RetransmitFault(drop_rate=0.1, timeout_s=1e-3, start_iteration=2,
                        duration_iterations=10),
        RetransmitFault(drop_rate=0.1, timeout_s=5e-3),
        RetransmitFault(drop_rate=0.3, start_iteration=8,
                        duration_iterations=4),
        RetransmitFault(drop_rate=0.0, start_iteration=30)])
    assert_range_matches(schedule, cluster)


def test_single_node_cluster_never_degrades_links():
    cluster = cluster_for_gpus(4)
    assert cluster.num_nodes == 1
    schedule = FaultSchedule(stragglers=[StragglerFault(worker=1,
                                                        slowdown=2.0)])
    assert_range_matches(schedule, cluster)
