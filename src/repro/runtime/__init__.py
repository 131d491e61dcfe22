"""Batched full-network inference runtime.

Compiles ``models/zoo.py`` topologies into NVDLA pipeline stages
(:mod:`repro.runtime.lowering`), executes them batched on any
registered compute backend (:mod:`repro.runtime.backends` /
:mod:`repro.runtime.executor` / :mod:`repro.runtime.runner`).
:mod:`repro.runtime.bench` holds the drivers behind
``python -m repro bench <spec>``, which sweep networks across
backends, precisions and worker counts and record simulated cycles and
energy.  The sharded multi-process serving
front-end lives in :mod:`repro.serve` and runs the same
:class:`BatchExecutor` in every worker.
"""

from repro.runtime.backends import (
    BackendProfile,
    ComputeBackend,
    backend_profile,
    check_backend,
    get_backend,
    register_backend,
    registered_backends,
)
from repro.runtime.executor import BatchExecutor
from repro.runtime.lowering import (
    CompiledNetwork,
    StagePlan,
    lower_model,
)
from repro.runtime.runner import NetworkResult, NetworkRunner

__all__ = [
    "BackendProfile",
    "BatchExecutor",
    "CompiledNetwork",
    "ComputeBackend",
    "NetworkResult",
    "NetworkRunner",
    "StagePlan",
    "backend_profile",
    "check_backend",
    "get_backend",
    "lower_model",
    "register_backend",
    "registered_backends",
]
