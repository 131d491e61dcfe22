"""Generic sweep-execution harness.

One engine behind every benchmark driver: the harness owns the
width/resolution presets, runner construction (cached per
backend/precision/geometry/scheduling), the warm-then-measure timing
protocol, the schema-conformant engine/energy records, and artifact
writing.  Drivers (:mod:`repro.runtime.bench`) reduce to spec-builders
plus their claim-specific verification logic, and the design-space
autotuner (:mod:`repro.tune.autotune`) scores harness-evaluated points
against an SLO.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.errors import DataflowError
from repro.eval.throughput import images_per_million_cycles, \
    requests_per_second
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


def measure(fn, repeats: int = 1) -> tuple:
    """Run ``fn`` ``repeats`` times; return (last result, best seconds).

    Best-of-N wall clock is the standard way to suppress scheduler
    noise when the quantity of interest is achievable throughput.
    """
    if repeats < 1:
        raise DataflowError("repeats must be >= 1")
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def engine_record(
    result,
    seconds: "float | None" = None,
    energy: "dict | None" = None,
) -> dict:
    """The per-run record every benchmark payload carries (the cache
    ``hit_rate`` stays None when the run made no burst-map lookups)."""
    hit_rate = result.cache["hit_rate"]
    record = {
        "conv_cycles": int(result.conv_cycles),
        "cycles_per_image": float(result.cycles_per_image),
        "images_per_million_cycles": float(
            images_per_million_cycles(
                result.batch_size, result.conv_cycles
            )
        ),
        "macs_per_cycle": float(result.macs_per_cycle),
        "cache": {
            "hits": int(result.cache["hits"]),
            "misses": int(result.cache["misses"]),
            "hit_rate": None if hit_rate is None else float(hit_rate),
        },
    }
    if energy is not None:
        record["energy"] = energy
    if seconds is not None:
        record["wall_seconds"] = float(seconds)
        record["host_images_per_second"] = float(
            requests_per_second(result.batch_size, seconds)
        )
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
    compilation once, and the warm-then-measure protocol keeps wall
    clock comparable across drivers.
    """

    def __init__(
        self,
        spec: SweepSpec,
        config: "CoreConfig | None" = None,
    ) -> None:
        self.spec = spec
        self.base_config = config if config is not None else CoreConfig()
        self.scale, self.input_size = preset(spec.quick)
        self._runners: dict = {}

    def config_for(
        self, geometry: "tuple[int, int] | None" = None
    ) -> CoreConfig:
        """The base config at one geometry (latency knobs carried
        over)."""
        if geometry is None:
            return self.base_config
        return SweepPoint(
            net=self.spec.nets[0],
            backend=self.spec.backends[0],
            precision=self.spec.precisions[0],
            geometry=geometry,
        ).config(self.base_config)

    def runner(
        self,
        backend,
        precision,
        geometry: "tuple[int, int] | None" = None,
        scheduling: "bool | None" = None,
    ) -> NetworkRunner:
        """The cached runner for one design-space assignment."""
        engine = backend_profile(backend).describe()
        profile = precision_profile(precision)
        scheduling = (
            self.spec.scheduling if scheduling is None else scheduling
        )
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

    def measure_point(
        self,
        point: SweepPoint,
        batch: "int | None" = None,
        repeats: int = 1,
        warm: bool = True,
    ) -> tuple:
        """Run one point: warm the runner (compile + burst maps), then
        time ``batch`` images best-of-``repeats``.

        Returns ``(runner, result, seconds)``.
        """
        runner = self.runner(
            point.backend, point.precision, point.geometry
        )
        if warm:
            runner.run(point.net, 1)
        batch = self.spec.batch if batch is None else batch
        result, seconds = measure(
            lambda: runner.run(point.net, batch), repeats
        )
        return runner, result, seconds

    def point_record(
        self,
        runner,
        point: SweepPoint,
        result,
        seconds: "float | None" = None,
    ) -> dict:
        """Engine record + per-image energy for one evaluated point."""
        return engine_record(
            result, seconds, energy_record(runner, point.net, result)
        )

    def common_head(self) -> dict:
        """The preset fields every payload carries."""
        return {
            "quick": bool(self.spec.quick),
            "scheduling": bool(self.spec.scheduling),
            "scale": self.scale,
            "input_size": self.input_size,
        }
