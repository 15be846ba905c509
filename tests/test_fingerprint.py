"""Cache keys are byte-identical to the full-payload renderer.

Job fingerprints splice each model's memoized canonical-JSON fragment
into their payloads (``repro.engine.fingerprint.model_fragment``).  The
oracle below is the renderer that fragment replaced: the model's whole
layer table as a nested dict, encoded with one ``json.dumps`` call.
Every job type's ``fingerprint()`` and ``family_key()`` must produce the
same bytes both ways, and golden keys recorded before the memo existed
must still come out — otherwise every existing cache directory and pack
would silently stop hitting.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from typing import Any, Dict

import pytest

from repro.compression import available_schemes, make_scheme
from repro.core import PerfModelInputs
from repro.engine import AdvisorShardJob, ModelEvalJob, SimJob
from repro.engine import advisorjobs, engine, modeljobs
from repro.engine.fingerprint import (
    Fragment,
    canonical_json,
    cluster_fragment,
    config_fragment,
    digest,
    model_fragment,
)
from repro.faults import FaultSchedule, NodeFault, StragglerFault
from repro.hardware import cluster_for_gpus
from repro.models import available_models, get_model, resnet50
from repro.models.layers import FINGERPRINT_MEMO
from repro.simulator import DDPConfig
from repro.units import GIGA

#: Keys recorded before the model fragment was memoized.
RESNET50_16_FINGERPRINT = (
    "25a15e95c375ebd3d5b3fa1f170b6e00f0ea009accde7d0ecc0735298d03fde6")
RESNET50_16_FAMILY_KEY = (
    "adfa8eccefb29dc8693a0e3bc5091d98209bd9460d568c69df4f5ee579d8d1b1")
BERT_LARGE_POWERSGD_FINGERPRINT = (
    "66aca69fb3e50a0e58fcabf7061c971d27dd20265e4b5a4bf6c0e823ab509ee5")


# ----- the oracle: the pre-memo full-dict renderer ---------------------------

def oracle_model_fingerprint(model) -> Dict[str, Any]:
    """Everything about a model that the simulator's timing depends on."""
    return {
        "name": model.name,
        "default_batch_size": model.default_batch_size,
        "compute_efficiency": model.compute_efficiency,
        "batch_half_saturation": model.batch_half_saturation,
        "gather_granularity": model.gather_granularity,
        "layers": [
            {
                "name": layer.name,
                "kind": layer.kind,
                "param_shape": list(layer.param_shape),
                "matrix_shape": list(layer.matrix_shape),
                "extra_params": layer.extra_params,
                "fwd_flops_per_sample": layer.fwd_flops_per_sample,
                "activation_bytes_per_sample":
                    layer.activation_bytes_per_sample,
            }
            for layer in model.layers
        ],
    }


def oracle_canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def oracle_digest(payload: Any) -> str:
    return hashlib.sha256(
        oracle_canonical_json(payload).encode("utf-8")).hexdigest()


def oracle_cluster_fingerprint(cluster) -> Dict[str, Any]:
    """Cluster identity: topology, seed, instance and GPU parameters."""
    instance = cluster.instance
    gpu = instance.gpu
    return {
        "num_nodes": cluster.num_nodes,
        "seed": cluster.seed,
        "instance": {
            "name": instance.name,
            "gpus_per_node": instance.gpus_per_node,
            "network_bytes_per_s": instance.network_bytes_per_s,
            "intra_node_bytes_per_s": instance.intra_node_bytes_per_s,
        },
        "gpu": {
            "name": gpu.name,
            "peak_fp32_flops": gpu.peak_fp32_flops,
            "training_efficiency": gpu.training_efficiency,
            "memcpy_bytes_per_s": gpu.memcpy_bytes_per_s,
            "memory_bytes": gpu.memory_bytes,
            "kernel_launch_overhead_s": gpu.kernel_launch_overhead_s,
        },
    }


def oracle_config_fingerprint(config) -> Dict[str, Any]:
    """All DDPConfig knobs; ``None`` hashes as the default."""
    return dataclasses.asdict(config if config is not None
                              else DDPConfig())


@pytest.fixture
def oracle(monkeypatch):
    """Context in which the job modules render keys the pre-memo way."""
    def install():
        for module in (engine, modeljobs, advisorjobs):
            monkeypatch.setattr(module, "model_fragment",
                                oracle_model_fingerprint)
            monkeypatch.setattr(module, "digest", oracle_digest)
        monkeypatch.setattr(engine, "cluster_fragment",
                            oracle_cluster_fingerprint)
        monkeypatch.setattr(engine, "config_fragment",
                            oracle_config_fingerprint)
        for module in (modeljobs, advisorjobs):
            monkeypatch.setattr(module, "canonical_json",
                                oracle_canonical_json)
    return install


def _schemes():
    return [None] + [make_scheme(name) for name in available_schemes()]


def _faults():
    return FaultSchedule(
        seed=5,
        stragglers=[StragglerFault(worker=1, slowdown=1.5,
                                   start_iteration=3,
                                   duration_iterations=4)],
        nodes=[NodeFault(node=0, factor=0.5, start_iteration=6)])


def _sim_jobs():
    configs = (None, DDPConfig(gamma=1.2, overlap_compression=True))
    return [SimJob(model=get_model(name), cluster=cluster_for_gpus(gpus),
                   scheme=scheme, config=configs[gpus == 32],
                   faults=faults, seed=2)
            for name in available_models()
            for scheme in _schemes()
            for faults in (None, _faults())
            for gpus in (16, 32)]


def _model_eval_jobs():
    inputs = PerfModelInputs(world_size=32,
                             bandwidth_bytes_per_s=10 * GIGA / 8)
    jobs = []
    for name in available_models():
        for scheme in _schemes():
            jobs.append(ModelEvalJob(model=get_model(name), scheme=scheme,
                                     inputs=inputs, compute_factor=2.0))
            if scheme is not None:
                jobs.append(ModelEvalJob(model=get_model(name),
                                         scheme=scheme, inputs=inputs,
                                         tradeoff_k=2.0, tradeoff_l=3.0))
    return jobs


def _advisor_jobs():
    inputs = PerfModelInputs(world_size=1, bandwidth_bytes_per_s=1.0,
                             batch_size=16)
    return [AdvisorShardJob(model=get_model(name), scheme=scheme,
                            inputs=inputs, world_size=64, bw_lo_gbps=1.0,
                            bw_hi_gbps=40.0, bw_points=64, start=16,
                            count=16)
            for name in available_models() for scheme in _schemes()]


def _keys(jobs):
    return [(job.fingerprint(), job.family_key()) for job in jobs]


@pytest.mark.parametrize("build", [_sim_jobs, _model_eval_jobs,
                                   _advisor_jobs],
                         ids=["sim", "model-eval", "advisor-shard"])
def test_keys_match_full_payload_oracle(build, oracle):
    fast = _keys(build())
    oracle()
    expected = _keys(build())
    assert len(fast) == len(expected) > 0
    for got, want in zip(fast, expected):
        assert got == want


class TestGoldenKeys:
    def test_resnet50_default_job(self):
        job = SimJob(model=get_model("resnet50"),
                     cluster=cluster_for_gpus(16))
        assert job.fingerprint() == RESNET50_16_FINGERPRINT
        assert job.family_key() == RESNET50_16_FAMILY_KEY

    def test_bert_large_powersgd_job(self):
        job = SimJob(model=get_model("bert-large"),
                     cluster=cluster_for_gpus(32),
                     scheme=make_scheme("powersgd", rank=4), seed=3)
        assert job.fingerprint() == BERT_LARGE_POWERSGD_FINGERPRINT


class TestCanonicalJson:
    @pytest.mark.parametrize("payload", [
        {},
        {"b": 1, "a": [1.5, {"z": None, "y": True}], "c": "é\"x"},
        [3, {"b": 0.1, "a": -0.0}],
        "text",
        2.5e-300,
    ])
    def test_matches_json_dumps(self, payload):
        assert canonical_json(payload) == oracle_canonical_json(payload)
        assert digest(payload) == oracle_digest(payload)

    def test_fragment_spliced_verbatim(self):
        inner = {"k": [1, 2], "a": 0.5}
        spliced = canonical_json(
            {"z": 1, "m": Fragment(oracle_canonical_json(inner))})
        assert spliced == oracle_canonical_json({"z": 1, "m": inner})
        # A plain str is a JSON string, never spliced.
        assert canonical_json({"m": "{}"}) == '{"m":"{}"}'

    def test_non_string_top_level_key_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({1: "x"})

    def test_non_finite_floats_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestModelFragmentMemo:
    def test_fragment_rendered_once(self):
        model = resnet50()
        first = model_fragment(model)
        assert model.__dict__[FINGERPRINT_MEMO] is first
        assert model_fragment(model) is first
        assert first == oracle_canonical_json(
            oracle_model_fingerprint(model))

    def test_equality_and_hash_unchanged(self):
        model, twin = resnet50(), resnet50()
        before = hash(model)
        model_fragment(model)
        assert model == twin
        assert hash(model) == before == hash(twin)

    def test_memo_not_pickled(self):
        model = resnet50()
        size = len(pickle.dumps(model))
        key = SimJob(model=model, cluster=cluster_for_gpus(8)).fingerprint()
        assert FINGERPRINT_MEMO in model.__dict__
        assert len(pickle.dumps(model)) == size
        clone = pickle.loads(pickle.dumps(model))
        assert FINGERPRINT_MEMO not in clone.__dict__
        assert clone == model
        assert SimJob(model=clone,
                      cluster=cluster_for_gpus(8)).fingerprint() == key

    def test_replaced_spec_starts_without_memo(self):
        model = resnet50()
        base = SimJob(model=model, cluster=cluster_for_gpus(8))
        key = base.fingerprint()
        renamed = dataclasses.replace(model, name="resnet50-renamed")
        assert FINGERPRINT_MEMO not in renamed.__dict__
        assert SimJob(model=renamed,
                      cluster=cluster_for_gpus(8)).fingerprint() != key
        # Same fields: a replaced copy re-renders the same key.
        same = dataclasses.replace(model)
        assert SimJob(model=same,
                      cluster=cluster_for_gpus(8)).fingerprint() == key

    def test_edited_layer_changes_key(self):
        model = resnet50()
        key = SimJob(model=model, cluster=cluster_for_gpus(8)).fingerprint()
        first = model.layers[0]
        edited = dataclasses.replace(model, layers=(
            dataclasses.replace(
                first,
                fwd_flops_per_sample=first.fwd_flops_per_sample * 2),
            *model.layers[1:]))
        job = SimJob(model=edited, cluster=cluster_for_gpus(8))
        assert job.fingerprint() != key
        assert model_fragment(edited) == oracle_canonical_json(
            oracle_model_fingerprint(edited))


class TestClusterAndConfigFragments:
    def test_cluster_fragment_rendered_once(self):
        cluster = cluster_for_gpus(16)
        first = cluster_fragment(cluster)
        assert cluster.__dict__[FINGERPRINT_MEMO] is first
        assert cluster_fragment(cluster) is first
        assert first == oracle_canonical_json(
            oracle_cluster_fingerprint(cluster))

    def test_config_fragment_rendered_once(self):
        config = DDPConfig(comm_jitter=0.1)
        first = config_fragment(config)
        assert config_fragment(config) is first
        assert first == oracle_canonical_json(
            oracle_config_fingerprint(config))

    def test_default_config_rendered_once(self):
        assert config_fragment(None) is config_fragment(None)
        assert config_fragment(None) == config_fragment(DDPConfig())

    def test_equality_hash_and_pickle_unaffected(self):
        cluster, twin = cluster_for_gpus(16), cluster_for_gpus(16)
        before = hash(cluster)
        fragment = cluster_fragment(cluster)
        assert cluster == twin and hash(cluster) == before == hash(twin)
        clone = pickle.loads(pickle.dumps(cluster))
        assert clone == cluster
        assert cluster_fragment(clone) == fragment

    def test_replaced_specs_render_their_own_fields(self):
        cluster = cluster_for_gpus(16)
        config = DDPConfig()
        job = SimJob(model=get_model("resnet50"), cluster=cluster,
                     config=config)
        key = job.fingerprint()
        assert SimJob(model=job.model,
                      cluster=dataclasses.replace(cluster, seed=9),
                      config=config).fingerprint() != key
        assert SimJob(model=job.model, cluster=cluster,
                      config=dataclasses.replace(config, gamma=1.3),
                      ).fingerprint() != key
