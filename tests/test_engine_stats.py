"""Engine statistics and the telemetry recorded across the stack."""

import json

import numpy as np
import pytest

from repro.collectives import allgather_time, ring_allreduce_time
from repro.engine import EngineStats, ExperimentEngine, SimJob, SimulationCache
from repro.errors import OutOfMemoryError
from repro.hardware import cluster_for_gpus
from repro.models import get_model
from repro.simulator import DDPConfig, DDPSimulator
from repro.telemetry import metrics as telemetry_metrics


@pytest.fixture(autouse=True)
def _isolate_registry():
    previous = telemetry_metrics.get_registry()
    yield
    telemetry_metrics.set_registry(previous)


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


def jobs_for(rn50, n=2):
    return [SimJob(model=rn50, cluster=cluster_for_gpus(8), batch_size=64,
                   iterations=4, warmup=1, seed=seed) for seed in range(n)]


class TestEngineStats:
    def test_counts_executed_and_completed(self, rn50):
        engine = ExperimentEngine()
        engine.run_outcomes(jobs_for(rn50, 2))
        stats = engine.stats()
        assert stats.executed == 2
        assert stats.jobs_completed == 2
        assert stats.exec_s_total > 0
        assert stats.busy_s >= stats.exec_s_total * 0.5
        assert stats.mean_exec_s == pytest.approx(
            stats.exec_s_total / 2)

    def test_pool_utilization_bounded(self, rn50):
        engine = ExperimentEngine()
        engine.run_outcomes(jobs_for(rn50, 2))
        # Serial execution: the one "worker" is busy nearly the whole
        # batch, so utilization approaches (and never exceeds) 1.
        assert 0.0 < engine.stats().pool_utilization <= 1.0

    def test_cache_hits_do_not_count_as_executed(self, rn50, tmp_path):
        cache = SimulationCache(str(tmp_path))
        engine = ExperimentEngine(cache=cache)
        batch = jobs_for(rn50, 2)
        engine.run_outcomes(batch)
        outcomes = engine.run_outcomes(batch)  # all hits now
        stats = engine.stats()
        assert stats.executed == 2
        assert stats.jobs_completed == 4
        assert stats.cache.hits == 2
        assert all(o.cached and o.exec_s == 0.0 for o in outcomes)

    def test_outcomes_carry_timing(self, rn50):
        engine = ExperimentEngine()
        outcomes = engine.run_outcomes(jobs_for(rn50, 2))
        for o in outcomes:
            assert o.exec_s > 0.0
            assert o.queue_wait_s >= 0.0

    def test_to_dict_json_serializable(self, rn50):
        engine = ExperimentEngine()
        engine.run_outcomes(jobs_for(rn50, 1))
        payload = engine.stats().to_dict()
        json.dumps(payload)
        assert payload["executed"] == 1
        assert payload["mean_exec_s"] == pytest.approx(
            payload["exec_s_total"])
        assert 0.0 < payload["pool_utilization"] <= 1.0

    def test_describe_mentions_jobs_and_utilization(self, rn50):
        engine = ExperimentEngine()
        engine.run_outcomes(jobs_for(rn50, 2))
        text = engine.stats().describe()
        assert "2 jobs" in text and "pool utilization" in text

    def test_idle_engine_stats_are_zero(self):
        stats = ExperimentEngine().stats()
        assert stats == EngineStats(
            cache=stats.cache, executed=0, jobs_completed=0, busy_s=0.0,
            exec_s_total=0.0, queue_wait_s_total=0.0, worker_s_total=0.0)
        assert stats.mean_exec_s == 0.0
        assert stats.pool_utilization == 0.0


class TestEngineTelemetry:
    def test_jobs_recorded_by_cache_status(self, rn50, tmp_path):
        registry = telemetry_metrics.enable()
        cache = SimulationCache(str(tmp_path))
        engine = ExperimentEngine(cache=cache)
        batch = jobs_for(rn50, 2)
        engine.run_outcomes(batch)
        engine.run_outcomes(batch)
        counters = registry.snapshot()["counters"]
        assert counters['engine_jobs_total{cached="false"}'] == 2.0
        assert counters['engine_jobs_total{cached="true"}'] == 2.0
        assert counters["cache_misses_total"] == 2.0
        assert counters["cache_hits_total"] == 2.0
        assert counters["cache_stores_total"] == 2.0

    def test_exec_histograms_only_for_executed(self, rn50):
        registry = telemetry_metrics.enable()
        ExperimentEngine().run_outcomes(jobs_for(rn50, 2))
        hist = registry.snapshot()["histograms"]
        assert hist["engine_job_exec_s"]["count"] == 2
        assert hist["engine_queue_wait_s"]["count"] == 2

    @pytest.mark.parametrize("kind", ["model", "advisor"])
    def test_closed_form_batches_share_the_record(self, rn50, kind,
                                                  monkeypatch):
        from repro.analysis import SweepSpec, plan_sweep
        from repro.compression.schemes import PowerSGDScheme
        from repro.core import PerfModelInputs
        from repro.engine import ModelEvalJob
        from repro.engine import engine as engine_module
        if kind == "model":
            batch = [ModelEvalJob(model=rn50, scheme=PowerSGDScheme(rank=4),
                                  inputs=PerfModelInputs(
                                      world_size=p,
                                      bandwidth_bytes_per_s=1.25e9))
                     for p in (8, 16, 32)]
            runner = "run_model_outcomes"
        else:
            batch = list(plan_sweep(
                rn50, cluster_for_gpus(32),
                candidates=[PowerSGDScheme(rank=4)],
                spec=SweepSpec(world_sizes=(8, 16), bandwidth_points=8,
                               shard_points=4)).jobs)
            runner = "run_advisor_outcomes"
        real = engine_module._execute_group
        calls = {"n": 0}

        def flaky(group):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient blip")
            return real(group)

        monkeypatch.setattr(engine_module, "_execute_group", flaky)
        registry = telemetry_metrics.enable()
        engine = ExperimentEngine(retry_backoff_s=0.0)
        outcomes = getattr(engine, runner)(batch)
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        snap = registry.snapshot()
        assert snap["counters"]["engine_retries_total"] == 1
        assert snap["counters"]["engine_jobs_chunked_total"] == len(batch)
        assert snap["histograms"]["engine_job_exec_s"]["count"] == len(batch)
        assert snap["histograms"]["engine_queue_wait_s"]["count"] \
            == len(batch)
        assert "engine_pool_utilization" in snap["gauges"]

    def test_null_registry_records_nothing(self, rn50):
        telemetry_metrics.disable()
        engine = ExperimentEngine()
        engine.run_outcomes(jobs_for(rn50, 1))
        assert telemetry_metrics.get_registry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        # ...but the engine's own counters still work.
        assert engine.stats().executed == 1


class TestSimulatorTelemetry:
    def test_iteration_metrics_recorded(self, rn50):
        registry = telemetry_metrics.enable()
        sim = DDPSimulator(rn50, cluster_for_gpus(8),
                           config=DDPConfig(compute_jitter=0.0,
                                            comm_jitter=0.0))
        trace = sim.simulate_iteration(64, np.random.default_rng(0))
        snap = registry.snapshot()
        assert snap["counters"]['sim_iterations_total{scheme="syncsgd"}'] \
            == 1.0
        assert snap["counters"]['sim_wire_bytes_total{scheme="syncsgd"}'] \
            == pytest.approx(trace.wire_bytes_total())
        assert snap["histograms"][
            'sim_sync_time_s{scheme="syncsgd"}']["count"] == 1
        assert snap["histograms"][
            'sim_overlap_s{scheme="syncsgd"}']["mean"] \
            == pytest.approx(trace.compute_comm_overlap())
        occupancy = snap["histograms"][
            'sim_comm_occupancy{scheme="syncsgd"}']["mean"]
        assert 0.0 < occupancy <= 1.0

    def test_span_kind_labels_bounded(self, rn50):
        registry = telemetry_metrics.enable()
        sim = DDPSimulator(rn50, cluster_for_gpus(8))
        sim.simulate_iteration(64, np.random.default_rng(0))
        hist = registry.snapshot()["histograms"]
        # Numeric suffixes are stripped: one "bucket" series, not one
        # series per bucket index.
        bucket_keys = [k for k in hist if k.startswith("sim_comm_span_s")
                       and "bucket" in k]
        assert bucket_keys == ['sim_comm_span_s{kind="bucket"}']

    def test_oom_counted(self, rn50):
        registry = telemetry_metrics.enable()
        sim = DDPSimulator(rn50, cluster_for_gpus(8))
        with pytest.raises(OutOfMemoryError):
            sim.simulate_iteration(100_000, np.random.default_rng(0))
        counters = registry.snapshot()["counters"]
        key = 'sim_oom_total{model="resnet50",scheme="syncsgd"}'
        assert counters[key] == 1.0

    def test_timeline_identical_with_and_without_telemetry(self, rn50):
        config = DDPConfig()
        cluster = cluster_for_gpus(8)
        telemetry_metrics.disable()
        plain = DDPSimulator(rn50, cluster, config=config) \
            .simulate_iteration(64, np.random.default_rng(42))
        telemetry_metrics.enable()
        recorded = DDPSimulator(rn50, cluster, config=config) \
            .simulate_iteration(64, np.random.default_rng(42))
        assert plain.spans == recorded.spans
        assert plain.sync_end == recorded.sync_end
        assert plain.iteration_end == recorded.iteration_end


class TestCollectiveTelemetry:
    def test_calls_and_bytes_counted(self):
        registry = telemetry_metrics.enable()
        ring_allreduce_time(2**20, p=8, bandwidth=1.25e9, alpha=25e-6)
        ring_allreduce_time(2**20, p=8, bandwidth=1.25e9, alpha=25e-6)
        counters = registry.snapshot()["counters"]
        assert counters[
            'collective_calls_total{algorithm="ring_allreduce"}'] == 2.0
        assert counters[
            'collective_bytes_total{algorithm="ring_allreduce"}'] \
            == 2.0 * 2**20

    def test_incast_degradation_counted(self):
        registry = telemetry_metrics.enable()
        allgather_time(2**20, p=8, bandwidth=1.25e9, alpha=25e-6,
                       incast_factor=1.5)
        counters = registry.snapshot()["counters"]
        assert counters[
            'collective_incast_degraded_total'
            '{algorithm="allgather"}'] == 1.0


class TestOomCountsPerRun:
    """``sim_oom_total`` counts one OOM per job, however the engine
    grouped the jobs."""

    @staticmethod
    def _oom_counters(jobs, chunking):
        registry = telemetry_metrics.enable()
        engine = ExperimentEngine(chunking=chunking)
        outcomes = engine.run_outcomes(jobs)
        assert all(o.oom is not None for o in outcomes)
        counters = registry.snapshot()["counters"]
        return {key: value for key, value in counters.items()
                if "oom" in key}

    def test_family_counts_equal_lone_runs(self):
        from repro.compression import make_scheme
        job = SimJob(model=get_model("bert-base"),
                     cluster=cluster_for_gpus(64),
                     scheme=make_scheme("atomo", rank=4), iterations=12,
                     warmup=2)
        lone = self._oom_counters([job], chunking=True)
        key = 'sim_oom_total{model="bert-base",scheme="atomo(rank=4)"}'
        assert lone[key] == 1.0
        family = [SimJob(model=job.model, cluster=job.cluster,
                         scheme=job.scheme, iterations=12, warmup=2,
                         seed=seed) for seed in range(3)]
        stacked = self._oom_counters(family, chunking=True)
        alone = self._oom_counters(family, chunking=False)
        assert stacked == alone
        assert stacked[key] == 3.0
        assert stacked["engine_oom_outcomes_total"] == 3.0
