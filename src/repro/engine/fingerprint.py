"""Stable content fingerprints for simulation configurations.

The result cache is *content-addressed*: a simulation's identity is the
SHA-256 of a canonical JSON rendering of everything that determines its
output — the model's exact layer metadata, the scheme (label and
parameters), the cluster, the :class:`~repro.simulator.DDPConfig`, the
fabric's pricing parameters *and its current bandwidth matrix* (so a
``degrade_link`` fault produces a different key), the kernel profile,
and the run protocol (batch size, iterations, warmup, seed).

Two rules keep keys stable across processes and sessions:

* floats are rendered with ``repr`` (shortest round-trip form), so the
  same value always serializes to the same text;
* dict keys are sorted, so insertion order never leaks into the hash.

Anything not captured here MUST NOT influence ``DDPSimulator.run`` —
that is the cache's correctness contract, and what
``tests/test_engine_cache.py`` exercises field by field.

The model's part of every key — a zoo model's 21-313-layer table — is
rendered to canonical JSON once per :class:`~repro.models.ModelSpec`
instance by :func:`model_fragment` and memoized on the frozen spec;
:func:`canonical_json` splices that :class:`Fragment` into each job's
payload verbatim.  Keys are byte-identical to rendering the whole
payload in one ``json.dumps`` call (``tests/test_fingerprint.py`` keeps
that renderer as an oracle and pins golden keys).  The memo never
enters pickles and a ``dataclasses.replace``-d spec starts without
one.  Consequently a new :class:`~repro.models.ModelSpec` or
:class:`~repro.models.LayerSpec` field that affects timing MUST be added
to the fragment payload in :func:`model_fragment` — nothing else will
put it into the key.

The cluster and the :class:`~repro.simulator.DDPConfig` are spliced the
same way (:func:`cluster_fragment`, :func:`config_fragment`), memoized
on their frozen instances; theirs are small and do travel in pickles,
which is harmless because a fragment is a pure function of the fields
pickled beside it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional

from ..compression.kernel_cost import KernelProfile
from ..compression.schemes import Scheme
from ..faults import FaultSchedule
from ..hardware import ClusterConfig
from ..models import ModelSpec
from ..models.layers import FINGERPRINT_MEMO
from ..network import Fabric
from ..simulator import DDPConfig

#: Bump when the simulator's output semantics change incompatibly, so
#: stale cache directories are never silently reused across versions.
FINGERPRINT_VERSION = 1


class Fragment(str):
    """Text that is already canonical JSON: :func:`canonical_json`
    splices it verbatim instead of encoding it as a string."""

    __slots__ = ()


def model_fragment(model: ModelSpec) -> Fragment:
    """Canonical JSON of everything about a model that the simulator's
    timing depends on, rendered once per spec instance and memoized."""
    fragment = model.__dict__.get(FINGERPRINT_MEMO)
    if fragment is None:
        fragment = Fragment(canonical_json({
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
        }))
        object.__setattr__(model, FINGERPRINT_MEMO, fragment)
    return fragment


def scheme_fingerprint(scheme: Optional[Scheme]) -> Dict[str, Any]:
    """Scheme identity: class, label, and all constructor parameters.

    ``None`` (the syncSGD default) hashes distinctly from an explicit
    :class:`~repro.compression.schemes.SyncSGDScheme` label so the key
    still matches what the simulator actually runs.
    """
    if scheme is None:
        return {"name": "syncsgd", "label": "syncsgd", "params": {}}
    return {
        "name": scheme.name,
        "label": scheme.label,
        "class": type(scheme).__name__,
        "all_reducible": scheme.all_reducible,
        "layerwise": scheme.layerwise,
        "ddp_overlap": scheme.ddp_overlap,
        # Built-in schemes keep their parameters (rank, fraction, ...)
        # as plain instance attributes; custom schemes should too.
        "params": {k: v for k, v in sorted(vars(scheme).items())
                   if not k.startswith("_")},
    }


def cluster_fingerprint(cluster: ClusterConfig) -> Dict[str, Any]:
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


def fabric_fingerprint(fabric: Optional[Fabric]) -> Dict[str, Any]:
    """Fabric pricing parameters plus the live bandwidth matrix.

    The matrix digest is what invalidates cache entries after
    ``degrade_link``/``degrade_node``: the same cluster with a limping
    link is a different experiment.
    """
    if fabric is None:
        return {"default": True}
    return {
        "default": False,
        "alpha_s": fabric.alpha_s,
        "bandwidth_jitter": fabric.bandwidth_jitter,
        "incast_per_sender": fabric.incast_per_sender,
        "pair_bw_sha256": hashlib.sha256(
            fabric._pair_bw.tobytes()).hexdigest(),
    }


def profile_fingerprint(profile: Optional[KernelProfile]) -> Dict[str, Any]:
    """Kernel-cost profile parameters (``None`` = simulator default)."""
    if profile is None:
        return {"default": True}
    payload = asdict(profile)
    payload["default"] = False
    return payload


def config_fingerprint(config: Optional[DDPConfig]) -> Dict[str, Any]:
    """All :class:`DDPConfig` knobs (``None`` hashes as the default)."""
    return asdict(config if config is not None else _DEFAULT_CONFIG)


_DEFAULT_CONFIG = DDPConfig()


def _memoized(spec: Any, render: Callable[[Any], Dict[str, Any]],
              ) -> Fragment:
    """``render(spec)`` as a canonical-JSON :class:`Fragment`, memoized
    in the frozen ``spec``'s ``__dict__``."""
    fragment = spec.__dict__.get(FINGERPRINT_MEMO)
    if fragment is None:
        fragment = Fragment(canonical_json(render(spec)))
        object.__setattr__(spec, FINGERPRINT_MEMO, fragment)
    return fragment


def cluster_fragment(cluster: ClusterConfig) -> Fragment:
    """:func:`cluster_fingerprint` as canonical JSON, rendered once per
    frozen :class:`~repro.hardware.ClusterConfig` instance."""
    return _memoized(cluster, cluster_fingerprint)


def config_fragment(config: Optional[DDPConfig]) -> Fragment:
    """:func:`config_fingerprint` as canonical JSON, rendered once per
    frozen :class:`~repro.simulator.DDPConfig` instance (and once for
    the ``None`` default)."""
    return _memoized(config if config is not None else _DEFAULT_CONFIG,
                     config_fingerprint)


def faults_fingerprint(faults: Optional[FaultSchedule],
                       ) -> Optional[Dict[str, Any]]:
    """The schedule's full payload, or ``None`` when there is nothing
    to inject.

    ``None`` and an *empty* schedule both return ``None`` — the
    simulator treats them identically, so they must share a cache key;
    and a fault-free job's key must stay byte-for-byte what it was
    before fault injection existed (``SimJob.fingerprint`` omits the
    ``faults`` field entirely in that case).
    """
    if faults is None or faults.is_empty:
        return None
    return faults.fingerprint_payload()


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=False)
_dumps = _ENCODER.encode


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance.

    A top-level dict is rendered here, key by key, so that
    :class:`Fragment` values are spliced in verbatim; the bytes equal
    one ``json.dumps`` of the fully expanded payload.  Top-level keys
    must be strings (``json.dumps`` would coerce others).
    """
    if not isinstance(payload, dict):
        return _dumps(payload)
    parts = []
    for key in sorted(payload):
        if not isinstance(key, str):
            raise TypeError(f"canonical JSON keys must be str, got {key!r}")
        value = payload[key]
        text = value if isinstance(value, Fragment) else _dumps(value)
        parts.append(f"{_dumps(key)}:{text}")
    return "{" + ",".join(parts) + "}"


def digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
