"""Faulted batch path vs event path: bit-identity under every fault kind.

The companion to ``tests/test_batch_equivalence.py``: that module pins
the fault-free kernel, this one pins the masked kernels that serve
fault schedules.  The contract is the same — exact ``TimingResult``
equality (no ``approx``), same RNG stream consumption, same IEEE-754
operation order — now across stragglers, degraded/flapping links, NIC
faults, retransmit storms, and crashes with both recovery policies, on
every execution path (bucketed baseline, sequential compression,
overlapped compression) and every allreduce algorithm.  Plus the
cross-config dimension this PR adds: ``run_batch_many`` stacking
several runs into one kernel call, and the engine's automatic family
batching of cache-missing ``SimJob``s.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.collectives import (
    allgather_time,
    allgather_time_batch,
    ring_allreduce_time,
    ring_allreduce_time_batch,
)
from repro.compression import (
    FP16Scheme,
    PowerSGDScheme,
    SignSGDScheme,
    SyncSGDScheme,
    TopKScheme,
)
from repro.engine import ExperimentEngine, SimJob
from repro.errors import ConfigurationError
from repro.faults import (
    CrashFault,
    FaultSchedule,
    LinkFault,
    NodeFault,
    RetransmitFault,
    StragglerFault,
)
from repro.hardware import (
    P3_2XLARGE,
    P3_8XLARGE,
    ClusterConfig,
    cluster_for_gpus,
)
from repro.models import get_model
from repro.network import Fabric
from repro.simulator import DDPConfig, DDPSimulator
from repro.simulator.batch import run_batch, run_batch_many
from repro.telemetry import metrics as telemetry_metrics


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


#: One schedule per fault kind, plus a kitchen sink that composes them.
SCHEDULES = {
    "straggler-windowed": FaultSchedule(
        seed=7,
        stragglers=[StragglerFault(worker=0, slowdown=2.0,
                                   start_iteration=3,
                                   duration_iterations=6)]),
    "link-flap": FaultSchedule(
        seed=7,
        links=[LinkFault(node_a=0, node_b=1, factor=0.3,
                         start_iteration=2, duration_iterations=3,
                         period_iterations=6)]),
    "nic-straggler": FaultSchedule(
        seed=7,
        nodes=[NodeFault(node=0, factor=0.25, start_iteration=1)]),
    "retransmit-storm": FaultSchedule(
        seed=7,
        retransmits=[RetransmitFault(drop_rate=0.3, timeout_s=1e-3,
                                     backoff=3.0, max_retries=4)]),
    "crash-restart": FaultSchedule(
        seed=7,
        crashes=[CrashFault(worker=1, at_iteration=4,
                            recovery="restart", stall_s=0.5)]),
    "crash-elastic": FaultSchedule(
        seed=7,
        crashes=[CrashFault(worker=1, at_iteration=4,
                            recovery="elastic")]),
    "kitchen-sink": FaultSchedule(
        seed=11,
        stragglers=[StragglerFault(worker=0, slowdown=1.7,
                                   start_iteration=0)],
        nodes=[NodeFault(node=0, factor=0.5, start_iteration=5)],
        retransmits=[RetransmitFault(drop_rate=0.2)],
        crashes=[CrashFault(worker=2, at_iteration=6,
                            recovery="elastic")]),
}

SCHEMES = {
    "syncsgd": SyncSGDScheme,
    "powersgd": lambda: PowerSGDScheme(rank=4),
    "topk": lambda: TopKScheme(fraction=0.01),
    "signsgd": SignSGDScheme,
    "fp16": FP16Scheme,
}


def make_sim(model, scheme, gpus=8, config=None, faults=None):
    return DDPSimulator(model, cluster_for_gpus(gpus), scheme=scheme,
                        config=config, faults=faults)


def run_both(model, scheme_fn, faults, gpus=8, config=None,
             iterations=14, warmup=3, seed=3):
    """One run per mode on separate simulators; returns both results
    and both simulators (for counter inspection)."""
    sim_e = make_sim(model, scheme_fn(), gpus, config, faults)
    sim_b = make_sim(model, scheme_fn(), gpus, config, faults)
    event = sim_e.run(iterations=iterations, warmup=warmup, seed=seed,
                      mode="event")
    batch = sim_b.run(iterations=iterations, warmup=warmup, seed=seed,
                      mode="batch")
    return event, batch, sim_e, sim_b


class TestFaultedBitIdentity:
    """Exact TimingResult equality, schedule x scheme x path."""

    @pytest.mark.parametrize("sched_name", sorted(SCHEDULES))
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_every_schedule_and_scheme(self, rn50, sched_name,
                                       scheme_name):
        event, batch, sim_e, sim_b = run_both(
            rn50, SCHEMES[scheme_name], SCHEDULES[sched_name])
        assert event == batch
        assert (sim_e.injector.retransmits_injected,
                sim_e.injector.retransmit_delay_s) == \
            (sim_b.injector.retransmits_injected,
             sim_b.injector.retransmit_delay_s)

    @pytest.mark.parametrize("gpus", [8, 16, 32])
    def test_world_sizes(self, rn50, gpus):
        event, batch, _, _ = run_both(
            rn50, SCHEMES["powersgd"], SCHEDULES["kitchen-sink"],
            gpus=gpus)
        assert event == batch

    @pytest.mark.parametrize("algo", ["ring", "double_tree",
                                      "hierarchical",
                                      "parameter_server"])
    @pytest.mark.parametrize("scheme_name", ["syncsgd", "powersgd"])
    def test_every_allreduce_algorithm(self, rn50, algo, scheme_name):
        config = DDPConfig(allreduce_algorithm=algo)
        event, batch, _, _ = run_both(
            rn50, SCHEMES[scheme_name], SCHEDULES["nic-straggler"],
            config=config)
        assert event == batch

    @pytest.mark.parametrize("sched_name",
                             ["nic-straggler", "retransmit-storm",
                              "crash-elastic", "kitchen-sink"])
    def test_overlapped_compression_path(self, rn50, sched_name):
        config = DDPConfig(overlap_compression=True)
        event, batch, _, _ = run_both(
            rn50, SCHEMES["powersgd"], SCHEDULES[sched_name],
            config=config)
        assert event == batch

    def test_zero_jitter_faulted(self, rn50):
        config = DDPConfig(compute_jitter=0.0, comm_jitter=0.0)
        event, batch, _, _ = run_both(
            rn50, SCHEMES["powersgd"], SCHEDULES["kitchen-sink"],
            config=config)
        assert event == batch

    @pytest.mark.parametrize("overlap", [False, True])
    def test_elastic_crash_to_world_of_one(self, rn50, overlap):
        """The hardest presence case: the collective draw disappears
        mid-run when the second-to-last worker leaves."""
        cluster = ClusterConfig(P3_2XLARGE, num_nodes=2)
        faults = FaultSchedule(crashes=[
            CrashFault(worker=1, at_iteration=5, recovery="elastic")])
        config = DDPConfig(overlap_compression=overlap)
        sim_e = DDPSimulator(rn50, cluster, scheme=PowerSGDScheme(rank=4),
                             config=config, faults=faults)
        sim_b = DDPSimulator(rn50, cluster, scheme=PowerSGDScheme(rank=4),
                             config=config, faults=faults)
        assert sim_e.run(iterations=12, warmup=2, seed=9,
                         mode="event") == \
            sim_b.run(iterations=12, warmup=2, seed=9, mode="batch")

    def test_auto_resolves_to_batch_with_faults(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8,
                       faults=SCHEDULES["nic-straggler"])
        sim.run(iterations=12, warmup=2, mode="auto")
        assert sim.last_run_mode == "batch"

    def test_retransmit_counters_match_event_exactly(self, rn50):
        event, batch, sim_e, sim_b = run_both(
            rn50, SCHEMES["syncsgd"], SCHEDULES["retransmit-storm"])
        assert event == batch
        assert sim_e.injector.retransmits_injected > 0
        assert sim_b.injector.retransmits_injected == \
            sim_e.injector.retransmits_injected
        # Bitwise, not approx: the batch path rebuilds the event
        # loop's sequential accumulation order.
        assert sim_b.injector.retransmit_delay_s == \
            sim_e.injector.retransmit_delay_s


def degraded_fabric(cluster):
    """The default fabric with one inter-node link at half speed."""
    fabric = Fabric(cluster)
    fabric.degrade_link(0, 1, 0.5)
    return fabric


def _spy_run_batch_many(monkeypatch):
    """Record the member count of every ``run_batch_many`` call."""
    import repro.simulator.batch as batch_module
    calls = []
    real = batch_module.run_batch_many

    def spy(sim, *args, **kwargs):
        calls.append(len(kwargs["seeds"]))
        return real(sim, *args, **kwargs)

    monkeypatch.setattr(batch_module, "run_batch_many", spy)
    return calls


class TestRunBatchMany:
    """The cross-config batch dimension: many runs, one kernel call."""

    def test_stacked_members_match_individual_event_runs(self, rn50):
        schedules = [None, SCHEDULES["nic-straggler"],
                     SCHEDULES["straggler-windowed"]]
        got = run_batch_many(make_sim(rn50, PowerSGDScheme(rank=4), 16),
                             iterations=14, warmup=3, seeds=(3, 3, 3),
                             faults=schedules)
        for faults, result in zip(schedules, got):
            ref = make_sim(rn50, PowerSGDScheme(rank=4), 16,
                           faults=faults).run(
                iterations=14, warmup=3, seed=3, mode="event")
            assert result == ref

    def test_member_seeds_are_independent(self, rn50):
        faults = SCHEDULES["nic-straggler"]
        got = run_batch_many(make_sim(rn50, PowerSGDScheme(rank=4), 16),
                             iterations=14, warmup=3, seeds=(3, 9),
                             faults=[faults, faults])
        for seed, result in zip((3, 9), got):
            ref = make_sim(rn50, PowerSGDScheme(rank=4), 16,
                           faults=faults).run(
                iterations=14, warmup=3, seed=seed, mode="event")
            assert result == ref

    # A member that does not share the simulator's structural state is
    # rejected from the stacked call one level up: its jobs carry
    # another family_key(), so the engine gives it a kernel call of its
    # own, and every job still equals its lone event-loop run.

    @staticmethod
    def _assert_rejected_from_family(monkeypatch, lead, other):
        jobs = [replace(job, seed=seed, iterations=12, warmup=2)
                for job in (lead, other) for seed in (0, 1)]
        assert lead.family_key() != other.family_key()
        calls = _spy_run_batch_many(monkeypatch)
        outcomes = ExperimentEngine().run_outcomes(jobs)
        assert calls == [2, 2]
        for job, outcome in zip(jobs, outcomes):
            assert outcome.unwrap() == job.build_simulator().run(
                iterations=12, warmup=2, seed=job.seed, mode="event")

    def test_mismatched_members_rejected(self, rn50, monkeypatch):
        self._assert_rejected_from_family(
            monkeypatch,
            SimJob(model=rn50, cluster=cluster_for_gpus(16),
                   scheme=PowerSGDScheme(rank=4)),
            SimJob(model=rn50, cluster=cluster_for_gpus(32),
                   scheme=PowerSGDScheme(rank=4)))

    @pytest.mark.parametrize("lead_gbps,member_gbps", [(1, 100), (100, 1)])
    def test_member_with_other_nic_speed_rejected(self, rn50, monkeypatch,
                                                  lead_gbps, member_gbps):
        """Same world size, different fabric speed: the member must not
        be priced with the lead's bandwidth."""
        lead, other = [SimJob(
            model=rn50, cluster=cluster_for_gpus(
                8, instance=P3_8XLARGE.with_network_gbps(gbps)),
            scheme=PowerSGDScheme(rank=4))
            for gbps in (lead_gbps, member_gbps)]
        self._assert_rejected_from_family(monkeypatch, lead, other)

    def test_member_with_other_kernel_profile_rejected(self, rn50,
                                                       monkeypatch):
        lead = SimJob(model=rn50, cluster=cluster_for_gpus(8),
                      scheme=PowerSGDScheme(rank=4))
        other = replace(lead, profile=lead.build_simulator().profile.scaled(
            100))
        self._assert_rejected_from_family(monkeypatch, lead, other)

    @pytest.mark.parametrize("fabric_fn", [
        lambda cluster: Fabric(cluster, alpha_s=1e-3),
        lambda cluster: Fabric(cluster, incast_per_sender=0.1),
        lambda cluster: Fabric(cluster, bandwidth_jitter=0.2),
        degraded_fabric,
    ], ids=["alpha", "incast", "jitter", "degraded-link"])
    def test_member_with_other_fabric_rejected(self, rn50, monkeypatch,
                                               fabric_fn):
        cluster = cluster_for_gpus(16)
        lead = SimJob(model=rn50, cluster=cluster,
                      scheme=PowerSGDScheme(rank=4))
        self._assert_rejected_from_family(
            monkeypatch, lead, replace(lead, fabric=fabric_fn(cluster)))

    def test_engine_family_still_stacks(self, rn50, monkeypatch):
        """Jobs with one family_key() but different seeds and faults
        run as one stacked call, bit-identical to their event runs."""
        jobs = [SimJob(model=rn50, cluster=cluster_for_gpus(16),
                       scheme=PowerSGDScheme(rank=4), iterations=14,
                       warmup=3, seed=seed, faults=faults)
                for seed, faults in ((0, None),
                                     (1, SCHEDULES["nic-straggler"]),
                                     (2, SCHEDULES["retransmit-storm"]))]
        assert len({job.family_key() for job in jobs}) == 1
        calls = _spy_run_batch_many(monkeypatch)
        got = ExperimentEngine().run_outcomes(jobs)
        assert calls == [3]
        for job, outcome in zip(jobs, got):
            assert outcome.unwrap() == job.build_simulator().run(
                iterations=14, warmup=3, seed=job.seed, mode="event")

    def test_seed_count_must_match(self, rn50):
        sim = make_sim(rn50, PowerSGDScheme(rank=4), 16)
        with pytest.raises(ConfigurationError, match="seeds"):
            run_batch_many(sim, iterations=12, warmup=2, seeds=(0, 1),
                           faults=[None])

    def test_empty_batch_rejected(self, rn50):
        sim = make_sim(rn50, PowerSGDScheme(rank=4), 16)
        with pytest.raises(ConfigurationError):
            run_batch_many(sim, iterations=12, warmup=2, seeds=())

    def test_schedule_outside_the_cluster_rejected(self, rn50):
        sim = make_sim(rn50, PowerSGDScheme(rank=4), 8)
        bad = FaultSchedule(stragglers=[StragglerFault(worker=8,
                                                       slowdown=2.0)])
        with pytest.raises(ConfigurationError, match="out of range"):
            run_batch_many(sim, iterations=12, warmup=2, seeds=(0, 1),
                           faults=[None, bad])


class TestTelemetryExecutionShape:
    """A run records the same simulator metrics whether it is evaluated
    alone or as a member of a stacked kernel call."""

    @staticmethod
    def _metrics(call):
        registry = telemetry_metrics.MetricsRegistry()
        previous = telemetry_metrics.set_registry(registry)
        try:
            call()
        finally:
            telemetry_metrics.set_registry(previous)
        label = TopKScheme(fraction=0.01).label
        hist = registry.histogram("sim_sync_time_s", scheme=label)
        return (registry.counter("sim_iterations_total",
                                 scheme=label).value,
                hist.count, hist.total,
                registry.counter("sim_wire_bytes_total",
                                 scheme=label).value)

    @pytest.mark.parametrize("faults", [None, SCHEDULES["kitchen-sink"]],
                             ids=["clean", "faulted"])
    def test_alone_equals_stacked(self, rn50, faults):
        def sim(schedule=faults):
            return make_sim(rn50, TopKScheme(fraction=0.01), 8,
                            faults=schedule)
        alone = self._metrics(lambda: run_batch(
            sim(), iterations=30, warmup=5, seed=0))
        stacked = self._metrics(lambda: run_batch_many(
            sim(), iterations=30, warmup=5, seeds=(0,)))
        # The member's schedule handed over per member, as the engine
        # does for a family, on a fault-free simulator.
        member = self._metrics(lambda: run_batch_many(
            sim(None), iterations=30, warmup=5, seeds=(0,),
            faults=[faults]))
        assert alone == stacked == member
        assert alone[0] == 30 and alone[1] == 30 and alone[3] > 0


class TestEngineFamilyBatching:
    """The engine stacks cache-missing jobs that differ only in faults
    and seed into one kernel call — outcomes must be unchanged."""

    def _jobs(self, rn50):
        jobs = []
        for faults in (None, SCHEDULES["nic-straggler"],
                       SCHEDULES["straggler-windowed"]):
            for gpus in (8, 16):
                jobs.append(SimJob(
                    model=rn50, cluster=cluster_for_gpus(gpus),
                    scheme=PowerSGDScheme(rank=4), iterations=14,
                    warmup=3, faults=faults))
        return jobs

    def test_family_key_ignores_faults_and_seed(self, rn50):
        base = SimJob(model=rn50, cluster=cluster_for_gpus(8),
                      scheme=PowerSGDScheme(rank=4))
        assert base.family_key() == replace(
            base, faults=SCHEDULES["nic-straggler"],
            seed=42).family_key()
        assert base.family_key() != replace(
            base, iterations=60).family_key()

    def test_outcomes_identical_to_unbatched_engine(self, rn50):
        batched = ExperimentEngine(chunking=True)
        reference = ExperimentEngine(chunking=False)
        got = [o.unwrap() for o in batched.run_outcomes(self._jobs(rn50))]
        ref = [o.unwrap()
               for o in reference.run_outcomes(self._jobs(rn50))]
        assert got == ref
        assert batched.jobs_batched == 6
        assert reference.jobs_batched == 0

    def test_pooled_families_identical(self, rn50):
        pooled = ExperimentEngine(jobs=2, chunking=True)
        reference = ExperimentEngine(chunking=False)
        got = [o.unwrap() for o in pooled.run_outcomes(self._jobs(rn50))]
        ref = [o.unwrap()
               for o in reference.run_outcomes(self._jobs(rn50))]
        assert got == ref
        assert pooled.jobs_batched == 6

    def test_explicit_event_jobs_never_batched(self, rn50):
        jobs = [replace(job, sim_mode="event")
                for job in self._jobs(rn50)]
        engine = ExperimentEngine(chunking=True)
        reference = ExperimentEngine(chunking=False)
        got = [o.unwrap() for o in engine.run_outcomes(jobs)]
        ref = [o.unwrap() for o in reference.run_outcomes(jobs)]
        assert got == ref
        assert engine.jobs_batched == 0

    def test_event_override_engine_never_batches(self, rn50):
        engine = ExperimentEngine(sim_mode="event", chunking=True)
        engine.run_outcomes(self._jobs(rn50))
        assert engine.jobs_batched == 0

    def test_stats_report_jobs_batched(self, rn50):
        engine = ExperimentEngine(chunking=True)
        engine.run_outcomes(self._jobs(rn50))
        stats = engine.stats()
        assert stats.jobs_batched == 6
        assert stats.to_dict()["jobs_batched"] == 6

    def test_one_simulator_per_family(self, rn50, monkeypatch):
        built = []
        real_init = DDPSimulator.__init__

        def counting_init(sim, *args, **kwargs):
            built.append(sim)
            real_init(sim, *args, **kwargs)

        monkeypatch.setattr(DDPSimulator, "__init__", counting_init)
        jobs = self._jobs(rn50)
        outcomes = ExperimentEngine(chunking=True).run_outcomes(jobs)
        assert all(o.ok for o in outcomes)
        # Two families (8 and 16 GPUs) of three members each.
        assert len({job.family_key() for job in jobs}) == 2
        assert len(built) == 2

    def test_member_outside_the_cluster_fails_alone(self, rn50):
        jobs = self._jobs(rn50)[:2]  # 8 and 16 GPUs, fault-free
        bad = replace(jobs[0], seed=5, faults=FaultSchedule(
            stragglers=[StragglerFault(worker=8, slowdown=2.0)]))
        family = [jobs[0], bad, replace(jobs[0], seed=9)]
        engine = ExperimentEngine(chunking=True)
        outcomes = engine.run_outcomes(family)
        assert [o.failed for o in outcomes] == [False, True, False]
        assert engine.jobs_batched == 3
        for job, outcome in zip(family[::2], outcomes[::2]):
            assert outcome.unwrap() == job.build_simulator().run(
                iterations=14, warmup=3, seed=job.seed, mode="event")
        # The same error, and the same single attempt, as a lone run.
        lone_engine = ExperimentEngine()
        lone = lone_engine.run_outcomes([bad])[0]
        assert (lone.error, lone.attempts) == (outcomes[1].error,
                                               outcomes[1].attempts) \
            == ("ConfigurationError: straggler worker 8 out of range "
                "for 8 workers", 1)
        assert engine.failures == lone_engine.failures == 1
        assert engine.retries == lone_engine.retries == 0


class TestVectorizedFaultPrimitives:
    """Array bandwidth / incast overloads of the batch collectives."""

    def test_ring_batch_accepts_bandwidth_array(self):
        payloads = np.array([1.0, 25e6, 1e9])
        bws = np.array([10e9, 2.5e9, 10e9])
        batch = ring_allreduce_time_batch(payloads, 8, bws, 5e-6)
        scalar = [ring_allreduce_time(float(b), 8, float(bw), 5e-6)
                  for b, bw in zip(payloads, bws)]
        assert batch.tolist() == scalar

    def test_allgather_batch_accepts_arrays(self):
        payloads = np.array([4096.0, 3e7, 1e9])
        bws = np.array([25e9, 5e9, 25e9])
        incasts = np.array([1.0, 1.5, 2.0])
        batch = allgather_time_batch(payloads, 16, bws, 2e-6,
                                     incast_factor=incasts)
        scalar = [allgather_time(float(b), 16, float(bw), 2e-6,
                                 incast_factor=float(ic))
                  for b, bw, ic in zip(payloads, bws, incasts)]
        assert batch.tolist() == scalar

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            ring_allreduce_time_batch(np.array([1e6]), 8,
                                      np.array([0.0]), 5e-6)

    def test_incast_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            allgather_time_batch(np.array([1e6]), 8, 10e9, 2e-6,
                                 incast_factor=np.array([0.5]))
