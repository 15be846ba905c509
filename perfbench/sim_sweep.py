"""sim-sweep: cold batches of seeded ``SimJob``s through the engine.

Each round is one ``ExperimentEngine.run_outcomes`` call on a fresh,
cache-less serial engine: every zoo model once (in seeded order), each
with a seeded registry scheme, world size (8-64 GPUs) and NIC speed,
fanned out over one to four simulation seeds.  About a third of the
jobs carry a fault schedule; some configurations do not fit in GPU
memory, and their OOM outcomes are correct answers.

Time goes to simulator construction and layer planning, fingerprinting
for family grouping, and the batch kernels.  The cache, serving and grid
layers do no work here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from common import batch_e2e

NAME = "sim-sweep"
WORLD_SIZES = (8, 16, 32, 64)
BANDWIDTHS_GBPS = (1.0, 3.0, 10.0, 25.0, 100.0)
SCHEMES: Tuple[Tuple[str, Dict], ...] = (
    ("syncsgd", {}), ("fp16", {}), ("powersgd", {"rank": 4}),
    ("powersgd", {"rank": 16}), ("topk", {"fraction": 0.01}),
    ("topk", {"fraction": 0.001}), ("signsgd", {}), ("qsgd", {}),
    ("terngrad", {}), ("onebit", {}), ("atomo", {}), ("randomk", {}),
    ("dgc", {}), ("gradiveq", {}), ("natural", {}), ("efsignsgd", {}),
    ("hybrid-powersgd", {}),
)
#: Simulation seeds per configuration: 1-4, so some families have a
#: single member and the rest stack into one kernel call.
MAX_SEEDS_PER_CONFIG = 4
ITERATIONS = 30
WARMUP = 5
FAULTED_SHARE = 1 / 3
#: Rounds whose digests ``reference.json`` records per seed.
RECORDED_ROUNDS = 2
#: Rounds of each pass of a traced run (fixed work, so busy seconds
#: compare across runs).
TRACE_ROUNDS = 80
#: Jobs per run re-simulated on the event-loop reference path.
ORACLE_JOBS = 3


def _fault_schedule(rng: np.random.Generator, world: int, seed: int):
    from repro.faults import (FaultSchedule, LinkFault, NodeFault,
                              RetransmitFault, StragglerFault)

    nodes = world // 4
    kind = int(rng.integers(4))
    if kind == 0:
        return FaultSchedule(seed=seed, stragglers=(StragglerFault(
            worker=int(rng.integers(world)),
            slowdown=float(rng.uniform(1.2, 3.0))),))
    if kind == 1:
        return FaultSchedule(seed=seed, nodes=(NodeFault(
            node=int(rng.integers(nodes)),
            factor=float(rng.uniform(0.2, 0.8))),))
    if kind == 2:
        a, b = (int(x) for x in rng.choice(nodes, size=2, replace=False))
        return FaultSchedule(seed=seed, links=(LinkFault(
            node_a=a, node_b=b, factor=float(rng.uniform(0.1, 0.6)),
            start_iteration=int(rng.integers(10)),
            duration_iterations=int(rng.integers(5, 15))),))
    return FaultSchedule(seed=seed, retransmits=(RetransmitFault(
        drop_rate=float(rng.uniform(0.005, 0.05))),))


def make_round(seed: int, round_index: int) -> List:
    """The jobs of one round, generated from ``(seed, round_index)``."""
    from repro.compression import make_scheme
    from repro.engine import SimJob
    from repro.hardware import P3_8XLARGE, cluster_for_gpus
    from repro.models import available_models, get_model

    rng = np.random.default_rng([seed, round_index, 1])
    jobs = []
    for name in rng.permutation(available_models()):
        scheme_name, params = SCHEMES[int(rng.integers(len(SCHEMES)))]
        world = int(rng.choice(WORLD_SIZES))
        gbps = float(rng.choice(BANDWIDTHS_GBPS))
        cluster = cluster_for_gpus(
            world, instance=P3_8XLARGE.with_network_gbps(gbps),
            seed=int(rng.integers(1 << 16)))
        model = get_model(str(name))
        scheme = make_scheme(scheme_name, **params)
        for _ in range(int(rng.integers(1, MAX_SEEDS_PER_CONFIG + 1))):
            sim_seed = int(rng.integers(1 << 30))
            faults = (_fault_schedule(rng, world, sim_seed)
                      if rng.random() < FAULTED_SHARE else None)
            jobs.append(SimJob(model=model, cluster=cluster, scheme=scheme,
                               iterations=ITERATIONS, warmup=WARMUP,
                               seed=sim_seed, faults=faults))
    return jobs


def outcome_digest(outcome) -> str:
    """Digest of everything a job's outcome says about the simulation."""
    if outcome.ok:
        r = outcome.result
        payload = ["ok", r.model, r.scheme, r.world_size, r.batch_size,
                   list(r.sync_times), list(r.iteration_times)]
    elif outcome.oom is not None:
        payload = ["oom", str(outcome.oom)]
    else:
        payload = ["error", outcome.error]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def round_digest(digests: Sequence[str]) -> str:
    """Digest of one round's job digests, in job order."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:32]


def shrink() -> None:
    """Tiny sizes for the self-test."""
    global TRACE_ROUNDS
    TRACE_ROUNDS = 2


def prepare(seed: int) -> None:
    """Everything before the first unit of work: imports, the first
    round's inputs, the engine."""
    from repro.engine import ExperimentEngine
    from repro.telemetry import metrics

    metrics.enable()  # the program's default, as the CLI installs it
    make_round(seed, 0)
    ExperimentEngine(jobs=1)


def run_round(jobs) -> Tuple[float, List, object]:
    """One round on a fresh serial engine without a cache:
    ``(wall seconds, outcomes, engine)``."""
    from repro.engine import ExperimentEngine

    engine = ExperimentEngine(jobs=1)
    started = time.perf_counter()
    outcomes = engine.run_outcomes(jobs)
    return time.perf_counter() - started, outcomes, engine


def _sim_iterations(outcomes) -> int:
    return sum(o.job.iterations for o in outcomes if o.ok)


class Rounds:
    """What the checks need of a run's rounds: the first round's
    outcomes, every round's job digests, and any failed jobs (kept
    small, so memory does not grow with the number of rounds)."""

    def __init__(self) -> None:
        self.first: List = []
        self.digests: List[List[str]] = []
        self.failures: List[str] = []
        self.jobs = 0

    def add(self, outcomes) -> None:
        """Record one round's outcomes."""
        if not self.digests:
            self.first = outcomes
        self.digests.append([outcome_digest(o) for o in outcomes])
        self.failures += [f"job failed: {o.job.describe()}: {o.error}"
                          for o in outcomes if o.failed]
        self.jobs += len(outcomes)


def _check(seed: int, rounds: Rounds, reference: Dict,
           corrupt: bool) -> Tuple[int, List[str]]:
    """Failed checks and their descriptions.

    Recorded seeds: the first rounds' digests equal ``reference.json``.
    Every seed: a seeded sample of round-0 jobs re-simulated on the
    event-loop path (a separate implementation the batch kernel must
    match bit for bit) gives identical digests, and no job failed.
    """
    from repro.engine import ExperimentEngine

    problems = list(rounds.failures)
    digests = rounds.digests[0]
    rng = np.random.default_rng([seed, 99])
    picks = sorted(rng.choice(len(digests), size=ORACLE_JOBS,
                              replace=False))
    if corrupt:
        digests[picks[0]] = "0" * 64
    recorded = reference.get(NAME, {}).get(str(seed), [])
    for index, expected in enumerate(recorded[:len(rounds.digests)]):
        got = round_digest(rounds.digests[index])
        if got != expected:
            problems.append(f"round {index} digest {got} != {expected}")
    fresh = [dataclasses.replace(rounds.first[i].job) for i in picks]
    event_outcomes = ExperimentEngine(
        jobs=1, sim_mode="event").run_outcomes(fresh)
    for i, outcome in zip(picks, event_outcomes):
        if outcome_digest(outcome) != digests[i]:
            problems.append(f"job {i} ({outcome.job.describe()}) differs "
                            f"from the event-loop reference")
    return len(problems), problems


def run(seed: int, seconds: float, trace: bool, corrupt: bool,
        reference: Dict, clock) -> Dict:
    """Untraced: rounds until ``seconds`` pass (at least the recorded
    ones).  Traced: a fixed number of rounds, each run untraced and
    traced."""
    if trace:
        return _run_traced(seed, corrupt, reference)
    walls, rounds, iters = [], Rounds(), 0
    deadline = time.perf_counter() + seconds
    while (len(rounds.digests) < RECORDED_ROUNDS
           or time.perf_counter() < deadline):
        wall, outcomes, _ = run_round(make_round(seed, len(walls)))
        walls.append(clock.scale(wall))
        iters += _sim_iterations(outcomes)
        rounds.add(outcomes)
    return {"e2e": batch_e2e(walls, iters), "attempted": rounds.jobs,
            "check": lambda: _check(seed, rounds, reference, corrupt)}


def _run_traced(seed: int, corrupt: bool, reference: Dict) -> Dict:
    from layers import ab_passes, recorder_data, span_metrics

    def unit(jobs):
        wall, outcomes, engine = run_round(jobs)
        return wall, (outcomes, engine)

    untraced, traced, outputs, recorder = ab_passes(
        TRACE_ROUNDS, lambda index: make_round(seed, index), unit)
    metrics, selfs = span_metrics(recorder_data(recorder))
    rounds = Rounds()
    for outs, _ in outputs:
        rounds.add(outs)
    engines = [engine for _, engine in outputs]
    outcomes = [o for outs, _ in outputs for o in outs]
    iters = _sim_iterations(outcomes)
    executed = sum(e.executed for e in engines)
    metrics.update({
        "engine.family_share": sum(e.jobs_batched for e in engines)
        / max(executed, 1),
        "engine.failures": sum(e.failures for e in engines),
        "engine.retries": sum(e.retries for e in engines),
        "simulator.kernel.us_per_iter":
            metrics["simulator.kernel.busy_s"] / max(iters, 1) * 1e6,
        "simulator.faulted_share": sum(
            o.job.faults is not None for o in outcomes) / len(outcomes),
        "simulator.oom_share": sum(
            o.oom is not None for o in outcomes) / len(outcomes),
    })
    return {"metrics": metrics, "selfs": selfs, "traced_wall": traced,
            "untraced_wall": untraced, "spans": recorder_data(recorder),
            "attempted": 2 * len(outcomes),
            "check": lambda: _check(seed, rounds, reference, corrupt)}


def input_properties(seed: int, rounds: int = 8) -> Dict[str, float]:
    """Shares a later claim must cite: jobs in multi-member families,
    faulted jobs, OOM jobs (over the first ``rounds`` rounds)."""
    from collections import Counter

    jobs, outcomes = [], []
    for index in range(rounds):
        batch = make_round(seed, index)
        jobs += batch
        outcomes += run_round(batch)[1]
    families = Counter(job.family_key() for job in jobs)
    return {
        "jobs": len(jobs),
        "multi_member_family_share": sum(
            1 for job in jobs if families[job.family_key()] > 1) / len(jobs),
        "faulted_share": sum(j.faults is not None for j in jobs) / len(jobs),
        "oom_share": sum(o.oom is not None for o in outcomes) / len(jobs),
    }
