"""Declarative sweeps + design-space autotuning.

* :mod:`repro.tune.spec` — a sweep is data: nets x backends x
  precisions x :class:`~repro.nvdla.config.CoreConfig` geometries,
  validated up front, plus the named-sweep registry.
* :mod:`repro.tune.harness` — the one generic execution engine behind
  every benchmark driver (runner caching, simulated cycle and energy
  records, artifact writing).
* :mod:`repro.tune.autotune` — Pareto search over the design space
  against a cycles/energy SLO (the ``pareto`` spec,
  ``python -m repro bench pareto``).
"""

from repro.tune.autotune import (
    OBJECTIVES,
    Slo,
    dominates,
    pareto_frontier,
    render_pareto_tune,
    run_pareto_tune,
)
from repro.tune.harness import (
    FULL_PRESET,
    QUICK_PRESET,
    SweepHarness,
    engine_record,
    energy_record,
    preset,
    write_benchmark_artifact,
)
from repro.tune.spec import (
    SweepPoint,
    SweepSpec,
    describe_geometry,
    get_sweep,
    parse_geometry,
    register_sweep,
    registered_sweeps,
)

__all__ = [
    "OBJECTIVES",
    "Slo",
    "dominates",
    "pareto_frontier",
    "render_pareto_tune",
    "run_pareto_tune",
    "FULL_PRESET",
    "QUICK_PRESET",
    "SweepHarness",
    "engine_record",
    "energy_record",
    "preset",
    "write_benchmark_artifact",
    "SweepPoint",
    "SweepSpec",
    "describe_geometry",
    "get_sweep",
    "parse_geometry",
    "register_sweep",
    "registered_sweeps",
]
