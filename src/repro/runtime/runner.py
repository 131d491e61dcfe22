"""Batched multi-network inference on the simulated NVDLA pipeline.

:class:`NetworkRunner` executes any compiled ``models/zoo.py`` topology
end to end (conv -> SDP -> PDP) at batch size B.  Two execution paths
produce bit-identical outputs:

* :meth:`NetworkRunner.run` — the **vectorized** path: every layer runs
  once for the whole batch through
  :class:`~repro.runtime.executor.BatchExecutor` (an exact float GEMM
  per conv stage, batched SDP / PDP), with cycle accounting from the
  engines' analytic models — which the engine-equivalence tests pin to
  the tick/burst simulations.
* :meth:`NetworkRunner.run_per_image` — the **reference** path (the
  oracle the vectorized path is tested against): each
  image flows through the real convolution cores
  (:class:`~repro.core.tempus_core.TempusCore` /
  :class:`~repro.nvdla.conv_core.ConvolutionCore`) one layer-group at a
  time, in any of their execution modes (``fast``/``burst``/``cycle``).

Both paths share the burst-map LRU in :mod:`repro.core.latency`: the
per-pixel burst map of every (layer, group) weight tensor is computed
once and then hits across batch items, engines and repeated runs — the
per-run hit/miss delta is reported on every :class:`NetworkResult`.

Tempus cycle counts depend only on the weights (a burst lasts as long
as its tile's largest magnitude), so when lowering applied burst-aware
tile scheduling the stored permuted tensors automatically yield the
*optimized* cycle counts while the channel/kernel reorders keep outputs
bit-identical to the unscheduled network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.latency import burst_map_cache_stats
from repro.errors import DataflowError
from repro.models.weights import load_quantized_model
from repro.nvdla.config import CoreConfig
from repro.nvdla.pdp import Pdp
from repro.nvdla.pipeline import StageResult
from repro.nvdla.sdp import Sdp
from repro.quant.profile import precision_profile
from repro.runtime.backends import DEFAULT_BACKEND, backend_profile, \
    get_backend
from repro.runtime.executor import BatchExecutor, fit_channels, \
    fit_spatial
from repro.runtime.lowering import CompiledNetwork, StagePlan, \
    lower_model
from repro.unary.encoding import UnaryCode
from repro.utils.rng import make_rng


#: Burst-map counters a run's cache record carries, beside hit_rate.
CACHE_COUNTERS = ("hits", "misses", "disk_hits", "disk_misses",
                  "disk_writes")


def cache_record(counts: dict) -> dict:
    """A run's burst-map cache record from its counter deltas.

    ``hit_rate`` is None when the run made no burst-map lookups (a
    warm repeat, whose stage cycles are memoized, or a backend without
    burst maps): a rate over zero lookups is undefined, and 0.0 would
    read as all-miss.
    """
    record = {key: int(counts.get(key, 0)) for key in CACHE_COUNTERS}
    lookups = record["hits"] + record["misses"]
    record["hit_rate"] = record["hits"] / lookups if lookups else None
    return record


@dataclass(frozen=True)
class NetworkResult:
    """One batched forward pass through a compiled network.

    Attributes:
        model: zoo model name.
        engine: compute-backend name ("tempus", "binary", "tugemm",
            "tubgemm", ... — see :mod:`repro.runtime.backends`), or a
            "first/interior/last" spec for mixed-backend networks.
        batch_size: images in the batch.
        output: (B, K, OH, OW) integer logits tensor.
        stages: per-stage execution records (cycles cover the batch).
        conv_cycles: total conv-core cycles across the batch.
        macs: useful multiply-accumulates across the batch.
        cache: burst-map cache delta for this run (see
            :func:`cache_record`; ``hit_rate`` is None when the run
            made no lookups).
    """

    model: str
    engine: str
    batch_size: int
    output: np.ndarray
    stages: tuple
    conv_cycles: int
    macs: int
    cache: dict

    @property
    def cycles_per_image(self) -> float:
        return self.conv_cycles / max(self.batch_size, 1)

    @property
    def images_per_million_cycles(self) -> float:
        from repro.eval.throughput import images_per_million_cycles

        return images_per_million_cycles(
            self.batch_size, self.conv_cycles
        )

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / max(self.conv_cycles, 1)


class NetworkRunner:
    """Compile-once, run-many batched inference over the model zoo."""

    def __init__(
        self,
        config: CoreConfig | None = None,
        engine: str = "tempus",
        scheduling: bool = True,
        scale: float = 1.0,
        input_size: int | None = None,
        code: UnaryCode | None = None,
        precision=None,
        fused: bool = False,
    ) -> None:
        """Args:
        config: MAC-array geometry/precision (defaults to 16x16 INT8).
        engine: compute backend — any registered name
            (:func:`repro.runtime.backends.registered_backends`), a
            "first/interior/last" mixed spec, or a
            :class:`~repro.runtime.backends.BackendProfile`.
        scheduling: apply burst-aware tile scheduling when lowering.
        scale: zoo width multiplier in (0, 1].
        input_size: rescaled input resolution (None = native).
        code: unary code for tempus latency (default 2s-unary).
        precision: a :class:`~repro.quant.profile.PrecisionProfile`,
            profile name ("int8"/"int4"/"int2"/"mixed"/...) or uniform
            format.  Defaults to uniform at ``config.precision``.
            When a profile is given, the array geometry is provisioned
            at the profile's widest member (``config`` supplies k/n).
        fused: accepted and ignored, for callers written when the
            executor had a second, int64 batched path; every batch now
            runs the exact float-GEMM kernel of
            :class:`~repro.runtime.executor.BatchExecutor`.
        """
        self.backend_profile = backend_profile(engine)
        self.config = config if config is not None else CoreConfig()
        if precision is None:
            self.profile = precision_profile(self.config.precision)
        else:
            self.profile = precision_profile(precision)
            if self.profile.widest.width != self.config.precision.width:
                self.config = self.config.with_precision(
                    self.profile.widest
                )
        self.engine = self.backend_profile.describe()
        self.scheduling = scheduling
        self.scale = scale
        self.input_size = input_size
        self.code = code
        self._compiled: dict[str, CompiledNetwork] = {}
        self._executors: dict[str, BatchExecutor] = {}

    # ------------------------------------------------------------------
    def compile(self, model_name: str) -> CompiledNetwork:
        """Lower (and cache) one zoo model for this runner's geometry."""
        if model_name not in self._compiled:
            quantized = load_quantized_model(
                model_name,
                precision=self.profile,
                scale=self.scale,
            )
            self._compiled[model_name] = lower_model(
                quantized,
                self.config,
                input_size=self.input_size,
                scheduling=self.scheduling,
                code=self.code,
                backend=self.backend_profile,
            )
        return self._compiled[model_name]

    def executor(self, model_name: str) -> BatchExecutor:
        """The (cached) batched executor for one compiled model — the
        same object the sharded serving workers run, which is what pins
        the two paths bit-identical."""
        if model_name not in self._executors:
            # engine=None: account on the per-stage backends recorded
            # at lowering (this runner's backend profile).
            self._executors[model_name] = BatchExecutor(
                self.compile(model_name), None
            )
        return self._executors[model_name]

    def synthesize_batch(
        self, model_name: str, batch_size: int
    ) -> np.ndarray:
        """Deterministic (B, C, H, W) input batch for a model."""
        net = self.compile(model_name)
        if batch_size < 1:
            raise DataflowError("batch size must be >= 1")
        rng = make_rng("runtime", net.name, "input", int(batch_size))
        images = net.precision.random_array(
            rng, (int(batch_size),) + tuple(net.input_shape)
        )
        return np.asarray(images, dtype=np.int64)

    # ------------------------------------------------------------------
    def run(
        self, model_name: str, batch: "int | np.ndarray"
    ) -> NetworkResult:
        """Run a whole batch through the network, vectorized per layer.

        Args:
            model_name: zoo model name.
            batch: a (B, C, H, W) integer tensor, a single (C, H, W)
                image, or an int B requesting a synthesized batch.
        """
        net = self.compile(model_name)
        images = self._as_batch(net, model_name, batch)
        before = burst_map_cache_stats()
        output, records, total_cycles = self.executor(
            model_name
        ).run_batch(images)
        return NetworkResult(
            model=net.name,
            engine=self.engine,
            batch_size=images.shape[0],
            output=output,
            stages=records,
            conv_cycles=total_cycles,
            macs=net.macs_per_image * images.shape[0],
            cache=self._cache_delta(before),
        )

    def run_per_image(
        self,
        model_name: str,
        batch: "int | np.ndarray",
        mode: str = "fast",
    ) -> NetworkResult:
        """Reference path: loop images through each stage backend's
        real core (conv cores for tempus/binary, the actual GemmEngine
        via im2col for tugemm/tubgemm).

        Args:
            mode: core execution mode — "fast" (analytic), "burst"
                (vectorized burst-level simulation) or "cycle"
                (tick-level; very slow, tiny models only).  The gemm
                backends have no simulation modes and accept only
                "fast".

        Stage records carry per-image output shapes (this path runs one
        image at a time) but batch-total cycles, matching :meth:`run`.
        """
        net = self.compile(model_name)
        images = self._as_batch(net, model_name, batch)
        cores = self._stage_cores(net, mode)
        before = burst_map_cache_stats()
        outputs = []
        first_records: list[StageResult] = []
        cycle_totals: list[int] = []
        total_cycles = 0
        for index in range(images.shape[0]):
            current = images[index]
            image_records: list[StageResult] = []
            # Folded-residual state, mirroring BatchExecutor.run_batch
            # (key -1 = the model input after the first stage's seam
            # adapters).
            saved: dict[int, np.ndarray] = {}
            for stage_index, stage in enumerate(net.stages):
                current = self._fit_single(stage, current, image_records)
                if stage_index == 0 and net.needs_input_saved:
                    saved[-1] = np.asarray(current, dtype=np.int64)
                residual = (
                    saved[stage.residual_from]
                    if stage.residual_from is not None
                    else None
                )
                key = (
                    stage.backend or DEFAULT_BACKEND,
                    stage.precision.width,
                )
                current, cycles = self._conv_single(
                    stage, current, cores[key], residual
                )
                if stage.save_output:
                    saved[stage_index] = current
                total_cycles += cycles
                image_records.append(
                    StageResult(
                        name=stage.name,
                        kind="conv",
                        output_shape=tuple(current.shape),
                        conv_cycles=cycles,
                    )
                )
            outputs.append(current)
            # Every image walks the same stage/adapter sequence, so the
            # records align by position; accumulate cycles so the
            # stages carry batch totals (the NetworkResult contract),
            # while shapes stay per-image (this is the per-image path).
            if index == 0:
                first_records = image_records
                cycle_totals = [
                    record.conv_cycles for record in image_records
                ]
            else:
                for position, record in enumerate(image_records):
                    cycle_totals[position] += record.conv_cycles
        records = [
            StageResult(
                name=record.name,
                kind=record.kind,
                output_shape=record.output_shape,
                conv_cycles=total,
            )
            for record, total in zip(first_records, cycle_totals)
        ]
        return NetworkResult(
            model=net.name,
            engine=self.engine,
            batch_size=images.shape[0],
            output=np.stack(outputs),
            stages=tuple(records),
            conv_cycles=total_cycles,
            macs=net.macs_per_image * images.shape[0],
            cache=self._cache_delta(before),
        )

    # ------------------------------------------------------------------
    def _stage_cores(self, net: CompiledNetwork, mode: str) -> dict:
        """One reference core per distinct (backend, stage precision)
        — mixed profiles run every stage through its own backend's
        core, configured at that stage's format."""
        cores: dict = {}
        for stage in net.stages:
            # Pre-registry programs may carry backend=None; fall back
            # exactly like the batched path's resolve_stage_backends.
            name = stage.backend or DEFAULT_BACKEND
            key = (name, stage.precision.width)
            if key not in cores:
                cores[key] = get_backend(name).make_core(
                    stage.config, net.code, mode
                )
        return cores

    def _as_batch(
        self,
        net: CompiledNetwork,
        model_name: str,
        batch: "int | np.ndarray",
    ) -> np.ndarray:
        if isinstance(batch, (int, np.integer)):
            return self.synthesize_batch(model_name, int(batch))
        images = np.asarray(batch)
        if images.ndim == 3:
            images = images[None]
        return net.check_batch(images)

    def _cache_delta(self, before: dict) -> dict:
        after = burst_map_cache_stats()
        return cache_record(
            {key: after[key] - before[key] for key in CACHE_COUNTERS}
        )

    # --- seam adapters (per-image) ------------------------------------
    def _fit_single(
        self,
        stage: StagePlan,
        image: np.ndarray,
        records: list,
    ) -> np.ndarray:
        image = fit_channels(image, stage.fit_channels, axis=0)
        if stage.pool is not None:
            image = Pdp(stage.pool).apply(image)
            records.append(
                StageResult(
                    name=f"{stage.name}.pool",
                    kind="pool",
                    output_shape=tuple(image.shape),
                )
            )
        if stage.dynamic_hw:
            return image
        return fit_spatial(image, stage.fit_hw, first_axis=1)

    # --- conv execution (per-image reference) -------------------------
    def _conv_single(
        self,
        stage: StagePlan,
        image: np.ndarray,
        core,
        residual: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, int]:
        """One conv stage for one image through a real conv core."""
        layer = stage.layer
        channels_per_group = layer.channels_per_group
        pad_h, pad_w = layer.padding_h, layer.padding_w
        padded = np.pad(
            image,
            ((0, 0), (pad_h, pad_h), (pad_w, pad_w)),
            mode="constant",
        )
        outputs = []
        cycles = 0
        for group, weights in enumerate(stage.weights):
            group_input = padded[
                group * channels_per_group : (group + 1)
                * channels_per_group
            ]
            schedule = stage.schedules[group]
            if schedule is not None:
                group_input = group_input[schedule.channel_order]
            result = core.run_layer(
                group_input, weights, stride=layer.stride, padding=0
            )
            group_out = result.output
            if schedule is not None:
                group_out = group_out[stage.kernel_restores[group]]
            outputs.append(group_out)
            cycles += result.cycles
        psums = (
            np.concatenate(outputs, axis=0)
            if len(outputs) > 1
            else outputs[0]
        )
        out = Sdp(stage.sdp).apply(psums)
        if residual is not None:
            # SDP elementwise-add unit: the residual joins the stage's
            # requantized output and saturates in the output format —
            # mirroring BatchExecutor._add_residual bit-for-bit.
            if residual.shape != out.shape:
                raise DataflowError(
                    f"{stage.name}: folded residual shape "
                    f"{residual.shape} does not match stage output "
                    f"{out.shape}"
                )
            spec = stage.sdp.out_precision
            out = np.clip(
                out + residual, spec.min_value, spec.max_value
            )
        return out, cycles
