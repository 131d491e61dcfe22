"""Declarative sweep specifications: a sweep is data.

A :class:`SweepSpec` names the axes of a benchmark sweep — nets x
compute backends x precision profiles x array geometries (plus the
serving driver's worker counts) — and validates/canonicalizes every
axis up front, so nonsense (unknown models, bogus backend names,
``0x16`` geometries) is rejected before any work runs.  The cartesian
product of the axes is the sweep's :class:`SweepPoint` stream.

Specs are plain frozen data: the generic execution engine lives in
:class:`repro.tune.harness.SweepHarness`, and the design-space
autotuner (:mod:`repro.tune.autotune`) is just a spec (``pareto``)
whose points are scored against an SLO.  The named specs registered
here are the one definition of every committed benchmark artifact:
``serving`` (worker counts x injected fault rates), ``backends`` (the
one CNN backend x precision sweep), ``llm``, ``pareto`` and ``paper``
(the paper's tables and figures).  ``python -m repro bench <name>
[--quick]`` runs one through its driver, and ``python -m repro list``
enumerates them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from repro.errors import DataflowError
from repro.models.zoo import EXTENSION_MODELS, MODEL_NAMES
from repro.nvdla.config import CoreConfig
from repro.quant.profile import precision_profile
from repro.runtime.backends import backend_profile

#: The array size most of the paper's evaluation uses.
DEFAULT_GEOMETRY = (16, 16)

#: Serving benchmark default workload (>= 3 nets, per the artifact
#: contract) and worker sweep.
DEFAULT_SERVING_MODELS = ("mobilenet_v2", "resnet18", "shufflenet_v2")
DEFAULT_WORKER_COUNTS = (1, 2, 4)

#: Backend-sweep defaults: all four registered MAC-unit designs at the
#: paper's three uniform precisions.
DEFAULT_BACKEND_SWEEP = ("binary", "tempus", "tugemm", "tubgemm")
DEFAULT_BACKEND_PRECISIONS = ("int8", "int4", "int2")


def check_models(models) -> None:
    """Reject model names the zoo doesn't know (Table-I CNNs and the
    extension models alike)."""
    known = MODEL_NAMES + EXTENSION_MODELS
    unknown = [name for name in models if name not in known]
    if unknown:
        raise DataflowError(
            f"unknown model(s) {', '.join(unknown)}; available: "
            f"{', '.join(known)}"
        )


def parse_geometry(value) -> "tuple[int, int]":
    """Parse an array geometry into a validated ``(k, n)`` pair.

    Accepts ``"16x16"`` strings, ``(k, n)`` pairs, and
    :class:`CoreConfig` instances.  Validation is delegated to
    :class:`CoreConfig` itself, so the spec layer rejects exactly the
    geometries the core would.
    """
    if isinstance(value, CoreConfig):
        return (value.k, value.n)
    if isinstance(value, str):
        parts = value.lower().split("x")
        if len(parts) != 2:
            raise DataflowError(
                f"geometry must look like 'KxN' (e.g. '16x16'), "
                f"got {value!r}"
            )
        try:
            k, n = (int(part) for part in parts)
        except ValueError:
            raise DataflowError(
                f"geometry must be two integers 'KxN', got {value!r}"
            ) from None
    else:
        try:
            k, n = value
        except (TypeError, ValueError):
            raise DataflowError(
                f"geometry must be 'KxN' or a (k, n) pair, got {value!r}"
            ) from None
    config = CoreConfig(k=k, n=n)
    return (config.k, config.n)


def describe_geometry(geometry: "tuple[int, int]") -> str:
    k, n = geometry
    return f"{k}x{n}"


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: a net on one design-space assignment.

    Attributes:
        net: zoo model name.
        backend: canonical compute-backend spelling (a registered name
            or a "first/interior/last" mixed profile).
        precision: canonical precision-profile name.
        geometry: validated ``(k, n)`` array shape.
    """

    net: str
    backend: str
    precision: str
    geometry: "tuple[int, int]" = DEFAULT_GEOMETRY

    def config(self, base: "CoreConfig | None" = None) -> CoreConfig:
        """This point's geometry applied to ``base`` (latency knobs
        and base precision carried over)."""
        base = base if base is not None else CoreConfig()
        k, n = self.geometry
        if (k, n) == (base.k, base.n):
            return base
        return replace(base, k=k, n=n)

    def describe(self) -> str:
        return (
            f"{self.net} @ {self.backend}/{self.precision}/"
            f"{describe_geometry(self.geometry)}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """A declarative benchmark sweep: axes, not loops.

    Attributes:
        name: registry/display name.
        nets: zoo model names (>= 1).
        backends: compute-backend names or mixed profiles.
        precisions: precision-profile names/specs.
        geometries: array shapes ("KxN" strings or (k, n) pairs).
        batch: images per point run (the request-stream length for
            the serving sweep).
        quick: use the CI-speed preset.
        workers: shard-pool sizes (the serving sweep, and the llm
            decode's sharded re-verification; empty otherwise).
        description: one-line summary for ``python -m repro list``.
        listed_axes: the axes ``python -m repro list`` shows — those
            the spec's driver reads (None: every axis).
    """

    name: str
    nets: "tuple[str, ...]"
    backends: "tuple[str, ...]" = ("tempus",)
    precisions: "tuple[str, ...]" = ("int8",)
    geometries: "tuple[tuple[int, int], ...]" = (DEFAULT_GEOMETRY,)
    batch: int = 1
    quick: bool = False
    workers: "tuple[int, ...]" = ()
    description: str = ""
    listed_axes: "tuple[str, ...] | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DataflowError("sweep spec needs a name")
        nets = tuple(self.nets)
        if not nets:
            raise DataflowError("sweep needs >= 1 net")
        check_models(nets)
        if len(set(nets)) != len(nets):
            raise DataflowError("duplicate nets in sweep")
        if not self.backends:
            raise DataflowError("backend sweep must name >= 1 backend")
        backends = tuple(
            backend_profile(entry).describe() for entry in self.backends
        )
        if len(set(backends)) != len(backends):
            raise DataflowError("duplicate backends in sweep")
        precisions = tuple(
            precision_profile(entry).name for entry in self.precisions
        )
        if not precisions:
            raise DataflowError("sweep needs >= 1 precision profile")
        if len(set(precisions)) != len(precisions):
            raise DataflowError("duplicate precision profiles in sweep")
        geometries = tuple(
            parse_geometry(entry) for entry in self.geometries
        )
        if not geometries:
            raise DataflowError("sweep needs >= 1 geometry")
        if len(set(geometries)) != len(geometries):
            raise DataflowError("duplicate geometries in sweep")
        if self.batch < 1:
            raise DataflowError("batch must be >= 1")
        if any(count < 1 for count in self.workers):
            raise DataflowError("worker counts must be >= 1")
        # Deduplicate and sort ascending so a serving sweep (and its
        # monotonic-scaling flag) always reads smallest -> largest.
        workers = tuple(
            sorted(dict.fromkeys(int(count) for count in self.workers))
        )
        object.__setattr__(self, "nets", nets)
        object.__setattr__(self, "backends", backends)
        object.__setattr__(self, "precisions", precisions)
        object.__setattr__(self, "geometries", geometries)
        object.__setattr__(self, "batch", int(self.batch))
        object.__setattr__(self, "workers", workers)
        if self.listed_axes is not None:
            unknown = set(self.listed_axes) - set(self.axes())
            if unknown:
                raise DataflowError(
                    f"listed_axes names no axis of the spec: "
                    f"{sorted(unknown)}"
                )

    def points(self) -> "tuple[SweepPoint, ...]":
        """The cartesian product of the axes, nets outermost (the
        iteration order every driver uses)."""
        return tuple(
            SweepPoint(
                net=net,
                backend=backend,
                precision=precision,
                geometry=geometry,
            )
            for net, backend, precision, geometry in itertools.product(
                self.nets,
                self.backends,
                self.precisions,
                self.geometries,
            )
        )

    def axes(self) -> dict:
        """JSON-ready axis listing (what the payloads and
        ``repro list`` show)."""
        axes = {
            "nets": list(self.nets),
            "backends": list(self.backends),
            "precisions": list(self.precisions),
            "geometries": [
                describe_geometry(geometry)
                for geometry in self.geometries
            ],
        }
        if self.workers:
            axes["workers"] = list(self.workers)
        return axes

    def describe_axes(self) -> str:
        """The listed axes as ``axis=v1,v2`` words (what ``repro list``
        prints)."""
        return " ".join(
            f"{axis}={','.join(str(value) for value in values)}"
            for axis, values in self.axes().items()
            if self.listed_axes is None or axis in self.listed_axes
        )


_SWEEPS: "dict[str, SweepSpec]" = {}


def register_sweep(spec: SweepSpec) -> SweepSpec:
    """Add a named spec to the registry (``repro list`` enumerates
    it)."""
    if spec.name in _SWEEPS:
        raise DataflowError(f"duplicate sweep spec {spec.name!r}")
    _SWEEPS[spec.name] = spec
    return spec


def get_sweep(name: str) -> SweepSpec:
    try:
        return _SWEEPS[name]
    except KeyError:
        raise DataflowError(
            f"unknown sweep spec {name!r}; registered: "
            f"{', '.join(sorted(_SWEEPS))}"
        ) from None


def registered_sweeps() -> "tuple[SweepSpec, ...]":
    return tuple(_SWEEPS[name] for name in sorted(_SWEEPS))


#: The sweeps behind the committed benchmark artifacts, as declarative
#: data: each driver registered in :data:`repro.runtime.bench
#: .BENCHMARKS` takes one of these (``dataclasses.replace`` one to run a
#: smaller grid).
SERVING_SWEEP = register_sweep(
    SweepSpec(
        name="serving",
        nets=DEFAULT_SERVING_MODELS,
        backends=("tempus",),
        precisions=("int8",),
        workers=DEFAULT_WORKER_COUNTS,
        batch=32,
        description=(
            "sharded serving across worker counts and injected fault "
            "rates (BENCH_serving.json)"
        ),
    )
)

BACKENDS_SWEEP = register_sweep(
    SweepSpec(
        name="backends",
        nets=DEFAULT_SERVING_MODELS,
        backends=DEFAULT_BACKEND_SWEEP,
        # The three uniform paper precisions plus the standard mixed
        # edge recipe.
        precisions=DEFAULT_BACKEND_PRECISIONS + ("mixed",),
        batch=4,
        description=(
            "the CNN sweep: every backend x precision on three nets "
            "(BENCH_backends.json)"
        ),
    )
)

LLM_SWEEP = register_sweep(
    SweepSpec(
        name="llm",
        nets=("tiny_llm",),
        backends=DEFAULT_BACKEND_SWEEP,
        precisions=DEFAULT_BACKEND_PRECISIONS,
        workers=(1, 2),
        batch=1,
        description=(
            "autoregressive transformer-block decode: per-token "
            "latency on all backends (BENCH_llm.json)"
        ),
    )
)

#: The autotuner grid: both pure arrays, the hybrid-encoding gemm core,
#: and a mixed first/last-on-binary deployment, across the paper's
#: precisions and the geometries its evaluation names (nv_small's 8x8,
#: the P&R case study's 16x4, the 16x16 workhorse and a scaled-up
#: 32x32).
PARETO_SWEEP = register_sweep(
    SweepSpec(
        name="pareto",
        nets=("mobilenet_v2",),
        backends=("binary", "tempus", "tubgemm", "binary/tubgemm/binary"),
        precisions=("int8", "int4", "mixed"),
        geometries=("8x8", "16x4", "16x16", "32x32"),
        batch=1,
        description=(
            "design-space autotuner grid: backend x precision x "
            "geometry Pareto search (BENCH_pareto.json)"
        ),
    )
)

#: The paper's evaluation: every table and figure, each beside its
#: published values.  Its nets are Table I's eight CNNs, whose word
#: sparsity the ``table1`` experiment measures; the other experiments
#: fix their own models and arrays, as the paper does.
PAPER_SWEEP = register_sweep(
    SweepSpec(
        name="paper",
        nets=MODEL_NAMES,
        description=(
            "the paper's tables and figures beside its published "
            "values (BENCH_paper.json)"
        ),
        # The experiment drivers read only nets (and quick); each picks
        # its own cores, precisions and geometries.
        listed_axes=("nets",),
    )
)
