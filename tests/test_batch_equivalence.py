"""Batch fast path vs event path: bit-identity, fallback, and wiring.

The vectorized kernel in :mod:`repro.simulator.batch` is only allowed
to exist because its results are *byte-identical* to the event loop —
the mode stays out of cache fingerprints on that guarantee.  This
module is the contract: exact ``TimingResult`` equality (no approx)
across schemes, world sizes, and jitter settings, plus the fallback
rules, CLI reporting, and engine/cache wiring around the mode switch.
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
from repro.core import bucket_pipeline_end
from repro.engine import ExperimentEngine, SimJob
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule, StragglerFault
from repro.hardware import P3_2XLARGE, ClusterConfig, cluster_for_gpus
from repro.models import get_model
from repro.simulator import SIM_MODES, DDPConfig, DDPSimulator
from repro.telemetry.tracing import TraceRecorder, set_tracer


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


def solo_cluster():
    """A genuine world_size=1 cluster (cluster_for_gpus needs >= 4)."""
    return ClusterConfig(P3_2XLARGE, num_nodes=1)


def make_sim(model, scheme=None, gpus=8, config=None, faults=None):
    cluster = solo_cluster() if gpus == 1 else cluster_for_gpus(gpus)
    return DDPSimulator(model, cluster, scheme=scheme, config=config,
                        faults=faults)


def run_both(sim, iterations=14, warmup=3, seed=0, batch_size=None):
    event = sim.run(batch_size, iterations=iterations, warmup=warmup,
                    seed=seed, mode="event")
    batch = sim.run(batch_size, iterations=iterations, warmup=warmup,
                    seed=seed, mode="batch")
    return event, batch


# Scheme x world-size x jitter matrix covering every kernel branch:
# baseline bucketed pipeline (with and without overlap / hook cost),
# sequential compressed, overlapped compressed, single worker (p == 1,
# skipped comm draws), and the jitter-free closed form.
CASES = [
    ("syncsgd-p1", SyncSGDScheme(), 1, {}),
    ("syncsgd-p8", SyncSGDScheme(), 8, {}),
    ("syncsgd-p32", SyncSGDScheme(), 32, {}),
    ("syncsgd-no-overlap", SyncSGDScheme(), 8,
     {"overlap_communication": False}),
    ("powersgd-p8", PowerSGDScheme(rank=4), 8, {}),
    ("powersgd-p1", PowerSGDScheme(rank=4), 1, {}),
    ("powersgd-overlap-p8", PowerSGDScheme(rank=4), 8,
     {"overlap_compression": True}),
    ("powersgd-overlap-p1", PowerSGDScheme(rank=4), 1,
     {"overlap_compression": True}),
    ("topk-p8", TopKScheme(fraction=0.01), 8, {}),
    ("signsgd-p8", SignSGDScheme(), 8, {}),
    ("signsgd-overlap", SignSGDScheme(), 8, {"overlap_compression": True}),
    ("fp16-p8", FP16Scheme(), 8, {}),
    ("syncsgd-double-tree", SyncSGDScheme(), 8,
     {"allreduce_algorithm": "double_tree"}),
    ("syncsgd-hierarchical", SyncSGDScheme(), 8,
     {"allreduce_algorithm": "hierarchical"}),
    ("syncsgd-param-server", SyncSGDScheme(), 8,
     {"allreduce_algorithm": "parameter_server"}),
    ("compute-jitter-only", SyncSGDScheme(), 8, {"comm_jitter": 0.0}),
    ("comm-jitter-only", PowerSGDScheme(rank=4), 8,
     {"compute_jitter": 0.0}),
    ("closed-form", SyncSGDScheme(), 8,
     {"compute_jitter": 0.0, "comm_jitter": 0.0}),
    ("closed-form-overlapped", PowerSGDScheme(rank=4), 8,
     {"compute_jitter": 0.0, "comm_jitter": 0.0,
      "overlap_compression": True}),
]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "scheme,gpus,cfg", [c[1:] for c in CASES],
        ids=[c[0] for c in CASES])
    def test_rows_byte_identical(self, rn50, scheme, gpus, cfg):
        sim = make_sim(rn50, scheme, gpus, DDPConfig(**cfg))
        event, batch = run_both(sim)
        # Dataclass equality over the full row: every float in the
        # per-iteration tuple must be the same bits, not merely close.
        assert event == batch
        assert event.iteration_times == batch.iteration_times

    def test_seed_still_matters_on_batch_path(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8)
        a = sim.run(iterations=14, warmup=3, seed=1, mode="batch")
        b = sim.run(iterations=14, warmup=3, seed=2, mode="batch")
        assert a.iteration_times != b.iteration_times

    def test_closed_form_rows_are_constant(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8,
                       DDPConfig(compute_jitter=0.0, comm_jitter=0.0))
        result = sim.run(iterations=14, warmup=3, mode="batch")
        assert len(set(result.iteration_times)) == 1


class TestModeResolution:
    def test_auto_resolves_to_batch_when_clean(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8)
        sim.run(iterations=12, warmup=2, mode="auto")
        assert sim.last_run_mode == "batch"

    def test_unknown_mode_rejected(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8)
        with pytest.raises(ConfigurationError):
            sim.run(iterations=12, warmup=2, mode="vectorised")

    def test_faults_take_batch_path(self, rn50):
        faults = FaultSchedule(stragglers=(
            StragglerFault(worker=0, slowdown=2.0, start_iteration=3,
                           duration_iterations=4),))
        sim = make_sim(rn50, SyncSGDScheme(), 8, faults=faults)
        sim.run(iterations=12, warmup=2, mode="auto")
        assert sim.last_run_mode == "batch"

    def test_explicit_batch_with_faults_matches_event(self, rn50):
        faults = FaultSchedule(stragglers=(
            StragglerFault(worker=0, slowdown=2.0, start_iteration=3),))
        sim_b = make_sim(rn50, SyncSGDScheme(), 8, faults=faults)
        sim_e = make_sim(rn50, SyncSGDScheme(), 8, faults=faults)
        assert sim_b.run(iterations=12, warmup=2, mode="batch") == \
            sim_e.run(iterations=12, warmup=2, mode="event")

    def test_empty_fault_schedule_takes_batch(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8, faults=FaultSchedule())
        sim.run(iterations=12, warmup=2, mode="auto")
        assert sim.last_run_mode == "batch"

    def test_tracing_stays_on_batch(self, rn50):
        previous = set_tracer(TraceRecorder())
        try:
            for mode in ("auto", "batch"):
                sim = make_sim(rn50, SyncSGDScheme(), 8)
                sim.run(iterations=12, warmup=2, mode=mode)
                assert sim.last_run_mode == "batch"
        finally:
            set_tracer(previous)


class TestCLIReporting:
    def test_simulate_reports_batch_mode(self, capsys):
        from repro.cli import main
        assert main(["simulate", "--model", "resnet50", "--gpus", "8",
                     "--iterations", "12"]) == 0
        assert "sim mode: batch" in capsys.readouterr().out

    def test_simulate_trace_stays_on_batch(self, capsys, tmp_path):
        # Trace export no longer forces the event loop: spans come from
        # batch-kernel reconstruction on the fast path.
        from repro.cli import main
        trace = tmp_path / "trace.json"
        assert main(["simulate", "--model", "resnet50", "--gpus", "8",
                     "--iterations", "12", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "sim mode: batch" in out
        assert "fell back" not in out
        assert trace.exists()


class TestEngineWiring:
    def job(self, model, **kwargs):
        kwargs.setdefault("iterations", 12)
        kwargs.setdefault("warmup", 2)
        return SimJob(model=model, cluster=cluster_for_gpus(8), **kwargs)

    def test_fingerprint_ignores_sim_mode(self, rn50):
        base = self.job(rn50)
        for mode in SIM_MODES:
            assert replace(base, sim_mode=mode).fingerprint() == \
                base.fingerprint()

    def test_engine_modes_agree(self, rn50):
        jobs = [self.job(rn50),
                self.job(rn50, scheme=PowerSGDScheme(rank=4))]
        by_mode = {}
        for mode in ("event", "batch"):
            engine = ExperimentEngine(jobs=1, sim_mode=mode)
            by_mode[mode] = [o.result for o in engine.run_outcomes(jobs)]
        assert by_mode["event"] == by_mode["batch"]

    def test_cache_shared_across_modes(self, rn50, tmp_path):
        from repro.engine import SimulationCache
        jobs = [self.job(rn50)]
        warm = ExperimentEngine(jobs=1, cache=SimulationCache(tmp_path),
                                sim_mode="batch")
        warm.run_outcomes(jobs)
        served = ExperimentEngine(jobs=1, cache=SimulationCache(tmp_path),
                                  sim_mode="event")
        outcomes = served.run_outcomes(jobs)
        assert all(o.cached for o in outcomes)
        # Cache rows are what the event path would have produced.
        assert outcomes[0].result == warm.run(jobs[0])

    def test_engine_respects_explicit_job_mode(self, rn50):
        job = self.job(rn50, sim_mode="event")
        engine = ExperimentEngine(jobs=1, sim_mode="batch")
        # A job that pins its own mode is not overridden...
        assert engine._job_for_execution(job).sim_mode == "event"
        # ...while "auto" jobs inherit the engine-level mode.
        assert engine._job_for_execution(
            self.job(rn50)).sim_mode == "batch"


class TestVectorizedPrimitives:
    def test_ring_allreduce_batch_matches_scalar(self):
        payloads = np.array([0.0, 1.0, 25e6, 1e9])
        batch = ring_allreduce_time_batch(payloads, 8, 10e9, 5e-6)
        scalar = [ring_allreduce_time(float(b), 8, 10e9, 5e-6)
                  for b in payloads]
        assert batch.tolist() == scalar

    def test_allgather_batch_matches_scalar(self):
        payloads = np.array([1.0, 4096.0, 3e7])
        batch = allgather_time_batch(payloads, 16, 25e9, 2e-6,
                                     incast_factor=1.5)
        scalar = [allgather_time(float(b), 16, 25e9, 2e-6,
                                 incast_factor=1.5)
                  for b in payloads]
        assert batch.tolist() == scalar

    def test_single_worker_collective_is_free(self):
        assert ring_allreduce_time_batch(
            np.array([1e6]), 1, 10e9, 5e-6).tolist() == [0.0]

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            ring_allreduce_time_batch(np.array([-1.0]), 8, 10e9, 5e-6)

    def test_bucket_pipeline_end_matches_naive_recurrence(self):
        rng = np.random.default_rng(0)
        ready = np.sort(rng.uniform(0.0, 1.0, size=(5, 7)), axis=1)
        durs = rng.uniform(0.0, 0.2, size=7)
        got = bucket_pipeline_end(ready, durs, 0.25)
        for i in range(ready.shape[0]):
            end = 0.25
            for k in range(ready.shape[1]):
                end = max(ready[i, k], end) + durs[k]
            assert got[i] == end
