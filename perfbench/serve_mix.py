"""serve-mix: ``repro serve`` under an open-loop request mix.

The server runs as a child process with a disk cache and a memory tier
smaller than the working set.  One client process drives it over two
keep-alive connections (one thread each): about 75% ``/v1/simulate``
and 25% ``/v1/whatif`` requests, keys drawn Zipf-popular from fixed
key sets in a seeded order.  An untimed prefix of the same stream warms
the cache.  Untraced runs then send seeded Poisson arrivals at the fixed
rate r1 (the end-to-end latencies) and finish with a closed-loop phase
in which both connections never idle (the sustainable rate).  Traced
runs send r1 and the higher fixed rate r2.  Every open-loop request is
timed from when it was due to be sent, so a stall also charges the
requests queued behind it.

This is the only workload where HTTP, request validation, scheduler
batching, per-request fingerprinting and cache-tier reads sit on the
critical path; Zipf-tail misses simulate and append to the pack.
What-if requests skip the break-even solves (``"crossovers": false``):
those are advise-sweep's work, and here their tens of milliseconds of
compute per request would swamp the serving path being measured.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (ROOT, child_peak_rss_mb, percentile, program_env,
                    remove_tree, work_dir)

NAME = "serve-mix"
MEASURES_OWN_SETUP = True

MODELS = ("bert-base", "bert-large", "gpt2-small", "resnet101", "resnet152",
          "resnet50", "vgg16")
GPUS = (8, 16, 32, 64)
BANDWIDTHS_GBPS = (1.0, 10.0)
#: All-reduce schemes fit in memory everywhere; the gather schemes only
#: on small clusters (their working set grows with the world size).
ALLREDUCE_SCHEMES = (None, "fp16", "powersgd:rank=4")
GATHER_SCHEMES = ("topk:fraction=0.01", "signsgd")
SIM_SEEDS = (0,)
ITERATIONS = 30
SIMULATE_SHARE = 0.75
ZIPF_EXPONENT = 1.3
#: Memory tier of the server's cache, MB: 15 KB over its 8 shards holds
#: a few dozen entries, under the ~80 distinct keys a run touches, so
#: hits split between the memory and pack tiers.
MEMORY_MB = 0.015
CONNECTIONS = 2
#: Fixed open-loop rates, requests/s.  The program's keep-alive
#: header/body stall hits a request when its connection was busy in the
#: last ~200 ms: about a quarter of requests at r1, so the median lies
#: well inside the unstalled ones and p90 well inside the stalled ones;
#: r2 is about three fifths of the sustainable rate.
R1_RPS, R2_RPS = 10.0, 16.0
#: Share of an untraced run's seconds at r1; the rest is closed loop.
R1_SHARE = 0.7
#: A phase whose generator ran later than this (p99) is invalid.
GEN_LAG_LIMIT_MS = 10.0
WARM_REQUESTS = 100
SETUP_PROBES = 4
CHECK_SIMULATE, CHECK_WHATIF = 6, 3
#: Seconds of each fixed-rate phase in a traced run.
TRACE_PHASE_S = 4.0


def shrink() -> None:
    """Tiny sizes for the self-test."""
    global WARM_REQUESTS, TRACE_PHASE_S, SETUP_PROBES
    WARM_REQUESTS, TRACE_PHASE_S, SETUP_PROBES = 10, 1.0, 0


# ----- inputs ---------------------------------------------------------------

def key_sets() -> Tuple[List[Dict], List[Dict]]:
    """The simulate and whatif request bodies keys are drawn from."""
    simulate, whatif = [], []
    for model in MODELS:
        for gpus in GPUS:
            for gbps in BANDWIDTHS_GBPS:
                whatif.append({"model": model, "gpus": gpus,
                               "bandwidth": gbps, "crossovers": False})
                schemes = list(ALLREDUCE_SCHEMES)
                if gpus <= 16 and model != "bert-large":
                    schemes += GATHER_SCHEMES
                for scheme in schemes:
                    for seed in SIM_SEEDS:
                        body = {"model": model, "gpus": gpus,
                                "bandwidth": gbps, "iterations": ITERATIONS,
                                "seeds": [seed], "wait": True}
                        if scheme is not None:
                            body["scheme"] = scheme
                        simulate.append(body)
    return simulate, whatif


def popularity_order(pool: Sequence[Dict], rng: np.random.Generator,
                     ) -> List[Dict]:
    """``pool`` in Zipf-rank order: models take turns rank by rank (in a
    seeded order each turn), each model's keys in seeded order, so every
    seed's hot set spans every model and costs about the same."""
    by_model: Dict[str, List[Dict]] = {}
    for body in pool:
        by_model.setdefault(body["model"], []).append(body)
    queues = [[group[i] for i in rng.permutation(len(group))]
              for group in by_model.values()]
    order: List[Dict] = []
    while any(queues):
        for index in rng.permutation(len(queues)):
            if queues[index]:
                order.append(queues[index].pop())
    return order


def make_stream(seed: int, count: int) -> List[Tuple[str, Dict]]:
    """``count`` requests: kind by share, key by Zipf rank."""
    rng = np.random.default_rng([seed, 3])
    pools = dict(zip(("simulate", "whatif"),
                     (popularity_order(pool, rng) for pool in key_sets())))
    probs = {}
    for kind, pool in pools.items():
        weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_EXPONENT
        probs[kind] = weights / weights.sum()
    stream = []
    for _ in range(count):
        kind = "simulate" if rng.random() < SIMULATE_SHARE else "whatif"
        rank = int(rng.choice(len(pools[kind]), p=probs[kind]))
        stream.append((kind, pools[kind][rank]))
    return stream


def arrivals(seed: int, phase: int, rate: float, seconds: float,
             ) -> List[float]:
    """Seeded Poisson arrival offsets (s) of one phase."""
    rng = np.random.default_rng([seed, 4, phase])
    offsets, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= seconds:
            return offsets
        offsets.append(t)


def prepare(seed: int) -> None:
    """Probe stand-in: serve-mix measures set-up as server spawn to the
    first ``/healthz`` 200, so there is nothing to prepare."""


# ----- server ---------------------------------------------------------------

class Server:
    """One ``repro serve`` child: spawned, health-checked, stopped."""

    def __init__(self, cache_dir: str, spans_path: Optional[str] = None):
        args = ["serve", "--port", "0", "--jobs", "1", "--cache", cache_dir,
                "--cache-mem-mb", str(MEMORY_MB)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable,
                   os.path.join(ROOT, "perfbench", "serve_child.py"),
                   spans_path] + args
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=program_env(), cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            while self.get("/healthz")[0] != 200:
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def get(self, path: str) -> Tuple[int, bytes]:
        """One GET on a fresh connection."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def scrape(self) -> Dict:
        """``/healthz`` counters plus the scheduler series of
        ``/metrics``."""
        health = json.loads(self.get("/healthz")[1])
        series = {}
        for line in self.get("/metrics")[1].decode().splitlines():
            if line.startswith("serving_") and " " in line:
                name, value = line.rsplit(" ", 1)
                series[name] = float(value)
        health["series"] = series
        return health

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----- load generator -------------------------------------------------------

class Record:
    """One request as the client saw it (monotonic seconds)."""

    __slots__ = ("kind", "body", "conn", "due", "take", "send", "hdr",
                 "end", "status", "data")

    @property
    def latency_ms(self) -> float:
        """From when the request was due to when its body arrived."""
        return (self.end - self.due) * 1e3

    @property
    def gen_lag_ms(self) -> float:
        """How late the generator sent a request it was free to send."""
        return (self.send - max(self.due, self.take)) * 1e3


def drive(port: int, items: Sequence[Tuple[str, Dict]],
          offsets: Optional[Sequence[float]] = None,
          seconds: Optional[float] = None) -> List[Record]:
    """Send ``items`` over :data:`CONNECTIONS` keep-alive connections.

    With ``offsets`` (seconds from now) the load is open-loop: request
    ``i`` is due at its offset, and a connection that is free sleeps
    until then.  Without, every request is due at once (closed loop),
    and with ``seconds`` no request starts after that long.
    """
    # A waking sender should get the interpreter lock promptly, or the
    # generator's own lateness would pass for server latency.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    records: List[Optional[Record]] = [None] * len(items)
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic() + 0.01
    stop = start + seconds if seconds is not None else float("inf")

    def worker(number: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(items) or time.monotonic() >= stop:
                    return
                rec = Record()
                rec.conn = number
                rec.take = time.monotonic()
                rec.due = start + (offsets[index] if offsets else 0.0)
                delay = rec.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                rec.kind, rec.body = items[index]
                payload = json.dumps(rec.body).encode()
                rec.send = time.monotonic()
                try:
                    conn.request("POST", f"/v1/{rec.kind}", body=payload,
                                 headers={"Content-Type":
                                          "application/json"})
                    resp = conn.getresponse()
                    rec.hdr = time.monotonic()
                    rec.data = resp.read()
                    rec.status = resp.status
                except (OSError, http.client.HTTPException):
                    rec.hdr = time.monotonic()
                    rec.data, rec.status = b"", 0
                    conn.close()
                rec.end = time.monotonic()
                records[index] = rec
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(number,))
               for number in range(CONNECTIONS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(switch)
    return [rec for rec in records if rec is not None]


def backlog_growth(records: Sequence[Record]) -> int:
    """Requests due but not yet sent at the end of a phase, minus the
    same at its middle."""
    due = [r.due for r in records]
    if not due:
        return 0
    mid = (due[0] + due[-1]) / 2

    def backlog(t: float) -> int:
        return sum(1 for r in records if r.due <= t < r.send)

    return backlog(due[-1]) - backlog(mid)


# ----- one server pass ------------------------------------------------------

def serve_pass(seed: int, phases: Sequence[Tuple[str, float, float]],
               spans_path: Optional[str] = None, clock=None) -> Dict:
    """Start a server on a fresh cache, warm it, run ``phases`` (label,
    rate, seconds; rate 0 is closed loop), scrape it and stop it.  With
    a ``clock``, set-up time is reported in its reference seconds."""
    schedules = [arrivals(seed, i, rate, duration) if rate else None
                 for i, (_, rate, duration) in enumerate(phases)]
    budget = WARM_REQUESTS + sum(
        len(sched) if sched is not None else int(60 * duration)
        for sched, (_, _, duration) in zip(schedules, phases))
    stream = make_stream(seed, budget)
    cache_dir = work_dir("serve-cache")
    server = Server(cache_dir, spans_path)
    setup_s = server.setup_s if clock is None else clock.scale(server.setup_s)
    try:
        warm = drive(server.port, stream[:WARM_REQUESTS])
        done = {}
        cursor = WARM_REQUESTS
        for (label, rate, duration), offsets in zip(phases, schedules):
            if offsets is None:
                recs = drive(server.port, stream[cursor:budget],
                             seconds=duration)
            else:
                recs = drive(server.port,
                             stream[cursor:cursor + len(offsets)], offsets)
            cursor += len(recs)
            done[label] = (rate, recs)
        scrape = server.scrape()
        rss = child_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
        remove_tree(cache_dir)
    return {"setup_s": setup_s, "warm": warm, "phases": done,
            "scrape": scrape, "rss_mb": rss}


def report_phase(label: str, rate: float, records: Sequence[Record],
                 ) -> None:
    """Print one open-loop phase: latency, backlog growth, generator
    lag, and INVALID when the generator itself fell behind."""
    lat = [r.latency_ms for r in records]
    lag = percentile([r.gen_lag_ms for r in records], 99)
    print(f"  {label}: {rate:g} rps, {len(records)} requests, "
          f"p50 {percentile(lat, 50):.1f} ms, p90 "
          f"{percentile(lat, 90):.1f} ms, backlog "
          f"{backlog_growth(records):+d}, generator lag p99 {lag:.2f} ms"
          f"{'' if lag <= GEN_LAG_LIMIT_MS else ', INVALID'}")


def closed_loop_rate(records: Sequence[Record]) -> float:
    """Requests completed per second while both connections stayed
    busy: the highest arrival rate whose backlog does not grow."""
    return len(records) / (max(r.end for r in records)
                           - min(r.send for r in records))


# ----- output checks --------------------------------------------------------

def _offline_simulate(body: Dict) -> Dict:
    from repro.compression import scheme_from_spec
    from repro.engine import ExperimentEngine, SimJob
    from repro.hardware import cluster_for_gpus
    from repro.models import get_model

    model = get_model(body["model"])
    cluster = cluster_for_gpus(body["gpus"])
    cluster = cluster.with_instance(
        cluster.instance.with_network_gbps(float(body["bandwidth"])))
    scheme = scheme_from_spec(body["scheme"]) if "scheme" in body else None
    jobs = [SimJob(model=model, cluster=cluster, scheme=scheme,
                   iterations=body["iterations"], seed=seed)
            for seed in body["seeds"]]
    rows = [{"seed": job.seed, "mean_s": out.unwrap().mean,
             "std_s": out.unwrap().std,
             "iterations": len(out.unwrap().sync_times)}
            for job, out in zip(jobs, ExperimentEngine().run_outcomes(jobs))]
    return {"model": model.name,
            "scheme": scheme.label if scheme else "syncsgd",
            "cluster": cluster.describe(), "rows": rows}


def _offline_whatif(body: Dict):
    from repro.core.advisor import recommend
    from repro.hardware import cluster_for_gpus
    from repro.models import get_model

    cluster = cluster_for_gpus(body["gpus"])
    cluster = cluster.with_instance(
        cluster.instance.with_network_gbps(float(body["bandwidth"])))
    return recommend(get_model(body["model"]), cluster)


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


def check_bodies(seed: int, records: Sequence[Record],
                 corrupt: bool) -> List[str]:
    """A seeded sample of served simulate and whatif answers equals the
    offline engine's and ``recommend``'s (cache flags aside)."""
    rng = np.random.default_rng([seed, 5])
    picked: List[Record] = []
    for kind, count in (("simulate", CHECK_SIMULATE),
                        ("whatif", CHECK_WHATIF)):
        distinct: Dict[str, Record] = {}
        for rec in records:
            if rec.kind == kind and rec.status == 200:
                distinct.setdefault(_canon(rec.body), rec)
        keys = sorted(distinct)
        for index in rng.permutation(len(keys))[:count]:
            picked.append(distinct[keys[index]])
    problems = []
    for number, rec in enumerate(picked):
        try:
            served = json.loads(rec.data)["result"]
        except (ValueError, KeyError, TypeError):
            problems.append(f"{rec.kind} {rec.body}: unreadable body")
            continue
        if corrupt and number == 0:
            served["model"] += "!"
        if rec.kind == "simulate":
            for row in served["rows"]:
                row.pop("cached", None)
            same = _canon(served) == _canon(_offline_simulate(rec.body))
        else:
            offline = _offline_whatif(rec.body)
            same = served.get("rendered") == offline.render() and all(
                _canon(served.get(k)) == _canon(v)
                for k, v in offline.to_dict().items())
        if not same:
            problems.append(f"{rec.kind} {rec.body}: served answer differs "
                            f"from the offline one")
    return problems


# ----- the workload ---------------------------------------------------------

def run(seed: int, seconds: float, trace: bool, corrupt: bool,
        reference: Dict, clock) -> Dict:
    """Untraced: set-up probes, then one server pass at r1 and closed
    loop.  Traced: r1 and r2 on an untraced server, then the same
    schedule on a traced one."""
    if trace:
        return _run_traced(seed, corrupt)
    setups = []
    for _ in range(SETUP_PROBES):
        probe_dir = work_dir("serve-probe")
        server = Server(probe_dir)
        setups.append(clock.scale(server.setup_s))
        server.stop()
        remove_tree(probe_dir)
    result = serve_pass(seed, [("r1", R1_RPS, R1_SHARE * seconds),
                               ("saturated", 0.0,
                                (1 - R1_SHARE) * seconds)], clock=clock)
    setups.append(result["setup_s"])
    rate, r1 = result["phases"]["r1"]
    report_phase("r1", rate, r1)
    saturated = result["phases"]["saturated"][1]
    sustained = closed_loop_rate(saturated)
    print(f"  saturated: {len(saturated)} requests, {sustained:.2f} rps")
    lat = [r.latency_ms for r in r1]
    every = result["warm"] + r1 + saturated
    e2e = {"peak_rss_mb": result["rss_mb"], "throughput_per_s": sustained,
           "latency_p50_ms": percentile(lat, 50),
           "latency_p90_ms": percentile(lat, 90)}
    return {"e2e": e2e, "setup": setups, "attempted": len(every),
            "failed_ops": sum(r.status != 200 for r in every),
            "check": lambda: _counted(check_bodies(seed, r1 + saturated,
                                                   corrupt))}


def _counted(problems: List[str]) -> Tuple[int, List[str]]:
    return len(problems), problems


def _run_traced(seed: int, corrupt: bool) -> Dict:
    from layers import span_metrics

    phases = [("r1", R1_RPS, TRACE_PHASE_S), ("r2", R2_RPS, TRACE_PHASE_S)]
    untraced = serve_pass(seed, phases)
    spans_path = os.path.join(work_dir("serve-spans"), "spans.json")
    traced = serve_pass(seed, phases, spans_path=spans_path)
    with open(spans_path) as fh:
        dump = json.load(fh)
    remove_tree(os.path.dirname(spans_path))
    spans = [tuple(s) for s in dump["spans"]]
    metrics, _ = span_metrics((spans, dump["calls"], dump["counters"]))

    u_recs = [r for _, recs in untraced["phases"].values() for r in recs]
    t_recs = [r for _, recs in traced["phases"].values() for r in recs]
    selfs, queue_wait_s = request_stages(spans, t_recs)
    parse = [end - start for layer, start, end, _ in spans
             if layer == "serving.requests.parse"]
    scrape = traced["scrape"]
    engine, cache = scrape["engine"], scrape["cache"]["stats"]
    hits = max(cache["hits"], 1)
    series = scrape["series"]
    metrics.update({
        "serving.http.header_to_body_ms": percentile(
            [(r.end - r.hdr) * 1e3 for r in u_recs], 50),
        "serving.requests.parse_ms": percentile(parse, 50) * 1e3,
        "serving.scheduler.batches": scrape["batches"],
        "serving.scheduler.occupancy": scrape["requests_seen"]
        / max(scrape["batches"], 1),
        "serving.scheduler.queue_wait_ms": queue_wait_s / len(t_recs) * 1e3,
        "serving.scheduler.rejected": sum(
            v for k, v in series.items()
            if k.startswith("serving_rejected_total")),
        "serving.scheduler.expired": series.get(
            "serving_requests_expired_total", 0.0),
        "engine.family_share": engine["jobs_batched"]
        / max(engine["executed"], 1),
        "engine.failures": engine["failures"],
        "engine.retries": engine["retries"],
        "cache.hit_ratio": cache["hits"]
        / max(cache["hits"] + cache["misses"], 1),
        "cache.memory_hit_share": cache["memory_hits"] / hits,
        "cache.pack_hit_share": cache["pack_hits"] / hits,
        "cache.evictions": cache["evictions"],
        "bench.gen_lag_p99_ms": percentile(
            [r.gen_lag_ms for r in u_recs], 99),
    })
    for label in ("r1", "r2"):
        lat = [r.latency_ms for r in untraced["phases"][label][1]]
        metrics[f"serve.latency_p50_ms.{label}"] = percentile(lat, 50)
        metrics[f"serve.latency_p90_ms.{label}"] = percentile(lat, 90)
    every = (untraced["warm"] + traced["warm"] + u_recs + t_recs)
    return {"metrics": metrics, "selfs": selfs,
            "traced_wall": sum(r.latency_ms for r in t_recs) / 1e3,
            "untraced_wall": sum(r.latency_ms for r in u_recs) / 1e3,
            "spans": (spans, dump["calls"], dump["counters"]),
            "attempted": len(every),
            "failed_ops": sum(r.status != 200 for r in every),
            "check": lambda: _counted(check_bodies(seed, t_recs, corrupt))}


def request_stages(spans, records: Sequence[Record],
                   ) -> Tuple[Dict[str, float], float]:
    """Attribute the summed latency of ``records`` to stages.

    Client side: ``client.backlog`` (due until sent) and
    ``serving.http.header_to_body`` (headers until body arrived).
    Server side, inside each request's send-to-headers window: the self
    time of the layers on the handler thread serving that connection,
    except that time a handler spends in ``ServingScheduler.wait`` is
    charged to whatever the scheduler thread was doing meanwhile, and to
    ``serving.scheduler.queue_wait`` where it did nothing (the batch
    window linger and queueing behind other batches).  Both processes
    read the same monotonic clock.  Returns the stage map and the
    queue-wait total.
    """
    from spans import thread_segments

    segments = thread_segments(spans)
    sched_tids = {tid for layer, _, _, tid in spans
                  if layer == "serving.scheduler.batch"}
    sched = sorted(seg for tid in sched_tids for seg in segments[tid])
    windows: Dict[int, List[Tuple[float, float]]] = {}
    for rec in records:
        windows.setdefault(rec.conn, []).append((rec.send, rec.hdr))
    stages: Dict[str, float] = {
        "client.backlog": sum(r.send - r.due for r in records),
        "serving.http.header_to_body": sum(r.end - r.hdr for r in records),
    }

    def add(layer: str, seconds: float) -> None:
        if seconds > 0:
            stages[layer] = stages.get(layer, 0.0) + seconds

    def clipped(segs, wins):
        """Parts of ``segs`` inside ``wins`` (both sorted, disjoint)."""
        out, j = [], 0
        for start, end, layer in segs:
            while j < len(wins) and wins[j][1] <= start:
                j += 1
            k = j
            while k < len(wins) and wins[k][0] < end:
                lo, hi = max(start, wins[k][0]), min(end, wins[k][1])
                if hi > lo:
                    out.append((lo, hi, layer))
                k += 1
        return out

    queue_wait = 0.0
    for tid, segs in segments.items():
        if tid in sched_tids:
            continue
        # A keep-alive connection is served by one handler thread: pick
        # the connection whose request windows this thread's work fills.
        conn = max(windows, key=lambda c: sum(
            hi - lo for lo, hi, _ in clipped(segs, sorted(windows[c]))))
        for lo, hi, layer in clipped(segs, sorted(windows[conn])):
            if layer != "serving.scheduler.wait":
                add(layer, hi - lo)
                continue
            covered = 0.0
            for s_lo, s_hi, s_layer in clipped(sched, [(lo, hi)]):
                add(s_layer, s_hi - s_lo)
                covered += s_hi - s_lo
            queue_wait += (hi - lo) - covered
    add("serving.scheduler.queue_wait", queue_wait)
    return stages, queue_wait


def input_properties(seed: int) -> Dict:
    """Cache hit shares by tier and miss share over the warm-up and an
    untraced r1 phase, with the request mix they came from."""
    result = serve_pass(seed, [("r1", R1_RPS, 15.0)])
    stats = result["scrape"]["cache"]["stats"]
    lookups = stats["hits"] + stats["misses"]
    records = result["warm"] + result["phases"]["r1"][1]
    return {
        "requests": len(records),
        "simulate_share": sum(r.kind == "simulate" for r in records)
        / len(records),
        "distinct_keys": len({_canon(r.body) for r in records}),
        "cache_lookups": lookups,
        "memory_hit_share": stats["memory_hits"] / lookups,
        "pack_hit_share": stats["pack_hits"] / lookups,
        "legacy_hit_share": (stats["hits"] - stats["memory_hits"]
                             - stats["pack_hits"]) / lookups,
        "miss_share": stats["misses"] / lookups,
    }
