"""Engine results and execution stats do not depend on the host.

Every job type runs one dispatch path whose groups are a pure function
of the batch (``family_key()`` in first-appearance order); the core
count only caps the pool size.  So a batch must produce the same rows
as a serial run, and the same ``executed`` / ``jobs_batched`` /
``jobs_chunked`` / ``failures`` / ``retries``, with ``os.cpu_count``
patched to 1, 2, 8 or ``None`` and at ``jobs`` 1 or 2.
"""

import os
from dataclasses import replace

import pytest

from repro.analysis import SweepSpec, plan_sweep
from repro.compression.schemes import (
    PowerSGDScheme,
    SignSGDScheme,
    SyncSGDScheme,
)
from repro.core import PerfModelInputs
from repro.engine import ExperimentEngine, ModelEvalJob, SimJob
from repro.faults import FaultSchedule, NodeFault
from repro.hardware import cluster_for_gpus
from repro.models import get_model
from repro.units import gbps_to_bytes_per_s

CORE_COUNTS = [1, 2, 8, None]

RUNNERS = {"sim": "run_outcomes", "model": "run_model_outcomes",
           "advisor": "run_advisor_outcomes"}


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


def sim_batch(model):
    """Families of 4 and 3 seeds (one member faulted) interleaved with
    four lone jobs and an explicit event-mode job that shares the first
    family's key but must still run alone."""
    def job(gpus, scheme, seed, **kwargs):
        return SimJob(model=model, cluster=cluster_for_gpus(gpus),
                      scheme=scheme, batch_size=32, iterations=6,
                      warmup=2, seed=seed, **kwargs)

    fam_a = [job(8, None, seed) for seed in range(4)]
    fam_b = [job(8, PowerSGDScheme(rank=4), seed) for seed in range(2)]
    faulted = job(8, PowerSGDScheme(rank=4), 2, faults=FaultSchedule(
        seed=7, nodes=[NodeFault(node=0, factor=0.25,
                                 start_iteration=1)]))
    lone = [job(16, SignSGDScheme(), 0), job(16, None, 0),
            job(4, SignSGDScheme(), 0), job(4, None, 0)]
    event = replace(fam_a[0], seed=9, sim_mode="event")
    return [fam_a[0], fam_b[0], lone[0], fam_a[1], event, lone[1],
            fam_b[1], fam_a[2], lone[2], faulted, fam_a[3], lone[3]]


def model_batch(model):
    """Two bandwidth-sweep families of four, plus a lone trade-off job."""
    def inputs(gbps):
        return PerfModelInputs(world_size=16, batch_size=32,
                               bandwidth_bytes_per_s=gbps_to_bytes_per_s(
                                   gbps))

    jobs = [ModelEvalJob(model=model, scheme=scheme, inputs=inputs(gbps))
            for gbps in (1.0, 5.0, 10.0, 25.0)
            for scheme in (None, PowerSGDScheme(rank=4))]
    jobs.append(ModelEvalJob(model=model, scheme=PowerSGDScheme(rank=4),
                             inputs=inputs(10.0), tradeoff_k=2.0,
                             tradeoff_l=3.0))
    return jobs


def advisor_batch(model):
    """Three candidates x two world sizes x two shards each."""
    plan = plan_sweep(model, cluster_for_gpus(32),
                      candidates=[SyncSGDScheme(), PowerSGDScheme(rank=4),
                                  SignSGDScheme()],
                      spec=SweepSpec(world_sizes=(8, 16),
                                     bandwidth_points=32, shard_points=16))
    return list(plan.jobs)


@pytest.fixture(scope="module")
def batches(rn50):
    return {"sim": sim_batch(rn50), "model": model_batch(rn50),
            "advisor": advisor_batch(rn50)}


#: Execution stats of a serial run: 12 simulations, 7 of them in the two
#: stacked families; 9 model evaluations, 8 in two grid families; 12
#: advisor shards in three candidate families.
EXPECTED = {
    "sim": {"executed": 12, "jobs_batched": 7, "jobs_chunked": 0},
    "model": {"executed": 9, "jobs_batched": 0, "jobs_chunked": 8},
    "advisor": {"executed": 12, "jobs_batched": 0, "jobs_chunked": 12},
}


def run(kind, batch, **engine_kwargs):
    engine = ExperimentEngine(**engine_kwargs)
    outcomes = getattr(engine, RUNNERS[kind])(batch)
    assert all(o.error is None for o in outcomes)
    return [o.result for o in outcomes], engine.stats()


def counts(stats):
    return {"executed": stats.executed,
            "jobs_batched": stats.jobs_batched,
            "jobs_chunked": stats.jobs_chunked,
            "failures": stats.failures, "retries": stats.retries}


@pytest.fixture(scope="module")
def serial(batches):
    return {kind: run(kind, batch) for kind, batch in batches.items()}


@pytest.mark.parametrize("kind", list(RUNNERS))
def test_serial_grouping_is_pinned(kind, serial):
    rows, stats = serial[kind]
    assert counts(stats) == {**EXPECTED[kind], "failures": 0, "retries": 0}


@pytest.mark.parametrize("kind", list(RUNNERS))
@pytest.mark.parametrize("cores", CORE_COUNTS)
@pytest.mark.parametrize("jobs", [1, 2])
def test_rows_and_stats_independent_of_host(kind, cores, jobs, batches,
                                            serial, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    rows, stats = run(kind, batches[kind], jobs=jobs)
    serial_rows, serial_stats = serial[kind]
    assert rows == serial_rows
    assert counts(stats) == counts(serial_stats)


@pytest.mark.parametrize("kind", list(RUNNERS))
@pytest.mark.parametrize("jobs", [1, 2])
def test_timeout_runs_every_job_alone(kind, jobs, batches, serial):
    rows, stats = run(kind, batches[kind], jobs=jobs, job_timeout_s=60.0)
    assert rows == serial[kind][0]
    assert stats.executed == len(batches[kind])
    assert stats.jobs_batched == stats.jobs_chunked == 0
