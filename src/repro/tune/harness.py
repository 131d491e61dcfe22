"""Generic sweep-execution harness.

One engine behind every benchmark driver: the harness owns the
width/resolution presets, runner construction (cached per
backend/precision/geometry/scheduling), the schema-conformant
engine/energy records, and artifact writing.  Every record it builds
is simulated-plane data (cycles, pJ) and so deterministic; host speed
is measured by perfbench alone.  Drivers run one registered spec plus
their claim-specific verification logic: the benchmark drivers in
:mod:`repro.runtime.bench`, and the design-space autotuner
(:mod:`repro.tune.autotune`, the ``pareto`` spec), which scores
harness-evaluated points against an SLO.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import DataflowError
from repro.eval.throughput import images_per_million_cycles
from repro.nvdla.config import CoreConfig
from repro.profiling.energy import network_energy
from repro.quant.profile import precision_profile
from repro.runtime.backends import backend_profile, \
    resolve_stage_backends
from repro.runtime.runner import NetworkRunner
from repro.tune.spec import SweepPoint, SweepSpec

#: (scale, input_size) presets: full keeps enough resolution for the
#: per-layer cycle structure to matter; quick is a CI-speed smoke.
FULL_PRESET = (0.25, 64)
QUICK_PRESET = (0.125, 32)


def preset(quick: bool) -> "tuple[float, int]":
    """The (scale, input_size) preset for a sweep."""
    return QUICK_PRESET if quick else FULL_PRESET


def single(spec: SweepSpec, axis: str):
    """The one entry of a spec axis a driver records once per
    payload."""
    values = getattr(spec, axis)
    if len(values) != 1:
        raise DataflowError(
            f"the {spec.name} benchmark takes one entry on the {axis} "
            f"axis, got {len(values)}"
        )
    return values[0]


def engine_record(result, energy: "dict | None" = None) -> dict:
    """The per-run record every benchmark payload carries."""
    record = {
        "conv_cycles": int(result.conv_cycles),
        "cycles_per_image": float(result.cycles_per_image),
        "images_per_million_cycles": float(
            images_per_million_cycles(
                result.batch_size, result.conv_cycles
            )
        ),
        "macs_per_cycle": float(result.macs_per_cycle),
    }
    if energy is not None:
        record["energy"] = energy
    return record


def energy_record(runner, model_name: str, result) -> dict:
    """Per-image energy of one benchmark run.

    Accounts every conv stage at its own backend's deployed-array
    power (:func:`repro.profiling.energy.network_energy`), so mixed
    backend profiles sum correctly; uniform profiles reduce to
    ``power x cycles x T_clk``.
    """
    net = runner.compile(model_name)
    backends = resolve_stage_backends(net)
    conv_records = [
        record for record in result.stages if record.kind == "conv"
    ]
    batch = max(result.batch_size, 1)
    total_pj = 0.0
    arrays: dict = {}
    clock_mhz = None
    deployed = None
    for record, backend in zip(conv_records, backends):
        stage_energy = network_energy(
            backend.array, record.conv_cycles / batch, runner.config
        )
        total_pj += stage_energy["pj_per_image"]
        arrays[backend.array] = stage_energy["power_mw"]
        clock_mhz = stage_energy["clock_mhz"]
        deployed = stage_energy["deployed_precision"]
    return {
        "pj_per_image": total_pj,
        "array_power_mw": arrays,
        "deployed_precision": deployed,
        "clock_mhz": clock_mhz,
    }


def write_benchmark_artifact(
    payload: dict,
    filename: str,
    out_dir: "str | Path | None",
) -> dict:
    """Write a payload under ``out_dir`` (None = don't) and stamp the
    artifact path on it — the shared tail of every driver."""
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        artifact = out_path / filename
        artifact.write_text(json.dumps(payload, indent=2) + "\n")
        payload["artifact"] = str(artifact)
    return payload


class SweepHarness:
    """Executes the points of one :class:`SweepSpec`.

    Runners are cached per (backend, precision, geometry, scheduling),
    so a sweep re-lowering the same assignment for several nets pays
    compilation once.  A runner built without a geometry sits at the
    spec's first one, the only one a single-geometry driver uses.
    """

    def __init__(self, spec: SweepSpec) -> None:
        self.spec = spec
        self.scale, self.input_size = preset(spec.quick)
        self._runners: dict = {}

    def config_for(
        self, geometry: "tuple[int, int] | None" = None
    ) -> CoreConfig:
        """The array config at one geometry (default: the spec's
        first)."""
        k, n = self.spec.geometries[0] if geometry is None else geometry
        return CoreConfig(k=k, n=n)

    def runner(
        self,
        backend,
        precision,
        geometry: "tuple[int, int] | None" = None,
        scheduling: bool = True,
    ) -> NetworkRunner:
        """The cached runner for one design-space assignment
        (``scheduling=False``: the unscheduled baseline)."""
        engine = backend_profile(backend).describe()
        profile = precision_profile(precision)
        key = (
            engine,
            profile.name,
            tuple(geometry) if geometry is not None else None,
            bool(scheduling),
        )
        if key not in self._runners:
            self._runners[key] = NetworkRunner(
                self.config_for(geometry),
                engine=engine,
                scheduling=scheduling,
                scale=self.scale,
                input_size=self.input_size,
                precision=profile,
            )
        return self._runners[key]

    def point_record(self, runner, point: SweepPoint, result) -> dict:
        """Engine record + per-image energy for one evaluated point."""
        return engine_record(
            result, energy_record(runner, point.net, result)
        )

    def common_head(self) -> dict:
        """The preset fields every payload carries."""
        return {
            "quick": bool(self.spec.quick),
            "scale": self.scale,
            "input_size": self.input_size,
        }
