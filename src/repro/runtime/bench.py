"""Network-, serving- and precision-level inference benchmarks.

The drivers here are thin spec-builders: each one declares its sweep
as a :class:`~repro.tune.spec.SweepSpec` (nets x backends x precisions
x geometries) and executes it through the generic
:class:`~repro.tune.harness.SweepHarness`, which owns the presets,
runner caching, the warm-then-measure timing protocol, energy records
and artifact writing.  What stays in each driver is its
claim-specific logic:

* :func:`run_network_benchmark` — single-process batched inference on
  both convolution engines (``results/BENCH_networks.json``):
  bit-identity cross-checks, per-network cycles,
  images-per-million-cycles, cache hit rates, tempus-vs-binary and
  scheduling ratios.
* :func:`run_serving_benchmark` — the sharded multi-worker serving
  runtime (``results/BENCH_serving.json``): requests/sec and
  images-per-Mcycle vs worker count, with every worker count verified
  bit-identical to the single-process reference.
* :func:`run_precision_benchmark` — the precision sweep
  (``results/BENCH_precision.json``): every model on both engines at
  INT8 / INT4 / INT2 / mixed profiles, reproducing the paper-family
  claim that the tempus:binary cycle ratio improves monotonically as
  precision drops (binary cycle cost is precision-independent; tub
  bursts shorten with the weights), plus a sharded-serving
  bit-identity verification at a low-precision point.
* :func:`run_backend_benchmark` — the compute-backend sweep
  (``results/BENCH_backends.json``) across every registered MAC-unit
  design.
* :func:`run_llm_benchmark` — token-by-token autoregressive decode of
  the extension transformer block (``results/BENCH_llm.json``):
  growing-sequence GEMM shapes through the dynamic-token linear
  stages, per-token latency percentiles, and batched/per-image/sharded
  bit-identity at every backend x precision point.

Shared by ``python -m repro serve-bench [--workers N] [--precision P]``
and the ``benchmarks/bench_network_inference.py`` /
``bench_serving.py`` / ``bench_precision_sweep.py`` scripts.  The
design-space autotuner (``python -m repro tune``) drives the same
harness from :mod:`repro.tune.autotune`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.latency import (
    burst_map_cache_stats,
    burst_map_disk_cache_dir,
    cached_burst_cycle_map,
    configure_burst_map_disk_cache,
)
from repro.errors import DataflowError
from repro.eval.throughput import requests_per_second
from repro.nvdla.config import CoreConfig
from repro.profiling.energy import workload_energy
from repro.quant.profile import precision_profile
from repro.runtime.backends import get_backend
from repro.tune.harness import (
    FULL_PRESET,
    QUICK_PRESET,
    SweepHarness,
    engine_record,
    energy_record,
    measure,
    write_benchmark_artifact,
)
from repro.tune.spec import (
    DEFAULT_BACKEND_PRECISIONS,
    DEFAULT_BACKEND_SWEEP,
    DEFAULT_MODELS,
    DEFAULT_PRECISION_SWEEP,
    DEFAULT_SERVING_MODELS,
    DEFAULT_WORKER_COUNTS,
    SweepSpec,
)
from repro.utils.tables import Column, render_columns, yes_no

def run_network_benchmark(
    models: "tuple[str, ...] | list[str]" = DEFAULT_MODELS,
    batch: int = 4,
    quick: bool = False,
    scheduling: bool = True,
    config: CoreConfig | None = None,
    precision="int8",
    out_dir: "str | Path | None" = "results",
) -> dict:
    """Benchmark batched network inference on both engines.

    Args:
        models: zoo model names (>= 1; the artifact is meant to carry
            at least two for cross-model comparison).
        batch: images per network run (>= 1).
        quick: smaller width/resolution preset for smoke runs.
        scheduling: apply burst-aware tile scheduling.
        config: array geometry (defaults to 16x16 INT8).
        precision: per-layer precision profile (name, IntSpec or
            :class:`~repro.quant.profile.PrecisionProfile`).
        out_dir: where BENCH_networks.json is written (None = don't).

    Returns:
        the record written to the artifact.
    """
    profile = precision_profile(precision)
    spec = SweepSpec(
        name="networks",
        nets=tuple(models),
        backends=("binary", "tempus"),
        precisions=(profile,),
        batch=batch,
        quick=quick,
        scheduling=scheduling,
    )
    harness = SweepHarness(spec, config)
    runners = {
        engine: harness.runner(engine, profile)
        for engine in ("binary", "tempus")
    }
    unscheduled = harness.runner("tempus", profile, scheduling=False)

    model_records = []
    for name in spec.nets:
        # Warm both runners (compile + burst maps) before timing, so
        # wall_seconds measures steady state — the same protocol the
        # serving benchmark uses, keeping the numbers comparable.
        runners["binary"].run(name, 1)
        runners["tempus"].run(name, 1)
        binary, binary_seconds = measure(
            lambda: runners["binary"].run(name, batch)
        )
        tempus, tempus_seconds = measure(
            lambda: runners["tempus"].run(name, batch)
        )
        if not np.array_equal(binary.output, tempus.output):
            raise DataflowError(
                f"{name}: engines diverged — dataflow compliance "
                "violated"
            )
        # With scheduling off the tempus run IS the baseline — don't
        # pay a third forward pass for a ratio that is 1.0 by
        # construction.
        baseline = unscheduled.run(name, batch) if scheduling else tempus
        binary_energy = energy_record(runners["binary"], name, binary)
        tempus_energy = energy_record(runners["tempus"], name, tempus)
        record = {
            "model": name,
            "batch": int(batch),
            "stages": len(tempus.stages),
            "macs_per_image": int(
                tempus.macs // max(tempus.batch_size, 1)
            ),
            "outputs_bit_identical": True,
            "engines": {
                "binary": engine_record(
                    binary, binary_seconds, binary_energy
                ),
                "tempus": engine_record(
                    tempus, tempus_seconds, tempus_energy
                ),
            },
            "tempus_vs_binary_energy": float(
                tempus_energy["pj_per_image"]
                / max(binary_energy["pj_per_image"], 1e-12)
            ),
            # Cycle-for-cycle, the tub core trades latency for
            # area/power (the paper's Table 2 story); > means binary
            # finishes the batch in fewer cycles.
            "binary_vs_tempus_cycles": float(
                tempus.conv_cycles / max(binary.conv_cycles, 1)
            ),
            "tempus_vs_binary_throughput": float(
                binary.conv_cycles / max(tempus.conv_cycles, 1)
            ),
            "scheduling_speedup": float(
                baseline.conv_cycles / max(tempus.conv_cycles, 1)
            ),
        }
        model_records.append(record)

    cache = burst_map_cache_stats()
    config = runners["tempus"].config  # profile may widen the precision
    payload = {
        "benchmark": "network_inference",
        "config": {
            "k": config.k,
            "n": config.n,
            "precision": config.precision.name,
        },
        "precision_profile": profile.name,
        "precision_layers": profile.describe(),
        **harness.common_head(),
        "models": model_records,
        "burst_map_cache_totals": {
            "hits": cache["hits"],
            "misses": cache["misses"],
            "entries": cache["entries"],
        },
    }
    return write_benchmark_artifact(
        payload, "BENCH_networks.json", out_dir
    )


#: Nominal shard clock for converting simulated cycle makespans into
#: requests/sec — 1 GHz, the edge-DLA class frequency the paper's P&R
#: closes timing at.
SERVING_CLOCK_HZ = 1_000_000_000


def run_serving_benchmark(
    models: "tuple[str, ...] | list[str]" = DEFAULT_SERVING_MODELS,
    worker_counts: "tuple[int, ...] | list[int]" = DEFAULT_WORKER_COUNTS,
    requests: int = 32,
    quick: bool = False,
    scheduling: bool = True,
    config: CoreConfig | None = None,
    engine: str = "tempus",
    max_batch: int = 8,
    max_wait: float = 0.002,
    repeats: int = 3,
    precision="int8",
    fault_rate: float = 0.0,
    fault_seed: int = 110,
    job_deadline: "float | None" = None,
    transport: "str | None" = None,
    cache_dir: "str | Path | None" = None,
    out_dir: "str | Path | None" = "results",
) -> dict:
    """Benchmark the sharded serving runtime across worker counts.

    For every model the single-process :class:`NetworkRunner` run over
    the same request stream is the reference; every worker count is
    verified bit-identical (outputs and cycles) before its throughput
    is recorded.

    The primary throughput metric is **simulated**, like every other
    cycle-derived number in this repo: the shards model replicated
    compute units running in parallel, so the request stream completes
    after ``max(per-shard cycles)`` — the makespan — and
    ``requests_per_second = requests * clock_hz / makespan``.  This is
    deterministic and host-independent (a single-core CI box can't
    demonstrate process-level parallelism on the wall clock; the
    simulated clock can).  Host wall time is still recorded per point
    (``wall_seconds`` / ``host_images_per_second``), measured in steady
    state: the shard pool is started and warmed before timing, so
    fork/compile costs don't pollute it.

    Args:
        models: zoo model names (the artifact contract wants >= 3).
        worker_counts: shard-pool sizes to sweep (e.g. (1, 2, 4)).
        requests: single-image requests per timed run.
        quick: smaller width/resolution preset for smoke runs.
        scheduling: apply burst-aware tile scheduling when lowering.
        config: array geometry (defaults to 16x16 INT8).
        engine: compute backend served — any registered name
            ("binary", "tempus", "tugemm", "tubgemm", ...) or a
            "first/interior/last" mixed spec.
        max_batch / max_wait: dynamic-batching knobs.
        repeats: best-of-N wall-clock repeats per worker count.
        precision: per-layer precision profile served.
        fault_rate: probability a (job, attempt) draws an injected
            fault (crash / slow / transient error) — the chaos knob.
            Every point is still verified bit-identical to the
            single-process reference; the supervisor's recovery
            telemetry lands on each record.
        fault_seed: seed of the deterministic fault plan.
        job_deadline: hang/slow detection deadline in seconds
            (defaults to 2.0 when faults are injected).
        transport: how batch/result tensors cross the worker boundary
            — "shm" (shared-memory segments) or "pickle"; None picks
            the platform default (shm where available).
        cache_dir: persistent burst-map cache directory shared by the
            parent and all workers; the per-point cache records then
            carry disk hit/miss/write deltas (the cold-vs-warm CI leg
            reads them).
        out_dir: where BENCH_serving.json is written (None = don't).

    Returns:
        the record written to the artifact.
    """
    from repro.serve import FaultPlan, ShardedRunner

    fault_plan = None
    if fault_rate > 0.0:
        # Hangs are exercised by the dedicated fault-tolerance bench;
        # the serving sweep injects the cheap-to-recover kinds so the
        # timing numbers stay dominated by serving, not by deadlines.
        # Same kind tuple (and order) as the fault-tolerance bench:
        # the rate-based kind draw indexes into this tuple, so keeping
        # it identical means one fault seed names one schedule across
        # both drivers.
        fault_plan = FaultPlan.random(
            fault_seed,
            fault_rate,
            kinds=DEFAULT_FAULT_KINDS,
            slow_seconds=0.02,
        )
        if job_deadline is None:
            job_deadline = 2.0
    if requests < 1:
        raise DataflowError("requests must be >= 1")
    profile = precision_profile(precision)
    # The spec canonicalizes the backend spelling (validating the
    # name(s) up front, keeping the JSON payload a plain string) and
    # dedup-sorts the worker sweep smallest -> largest.
    spec = SweepSpec(
        name="serving",
        nets=tuple(models),
        backends=(engine,),
        precisions=(profile,),
        workers=tuple(worker_counts),
        quick=quick,
        scheduling=scheduling,
    )
    engine = spec.backends[0]
    worker_counts = spec.workers
    harness = SweepHarness(spec, config)
    scale, input_size = harness.scale, harness.input_size

    reference_runner = harness.runner(engine, profile)
    config = reference_runner.config  # profile may widen the precision

    # Point the parent at the persistent tier *before* the reference
    # runs: the parent's cold lookups then publish (or warm from) the
    # shared entries, so a repeat invocation over the same cache_dir
    # reports disk hits even when forked workers inherit the parent's
    # warm in-memory cache and never touch disk themselves.
    previous_cache_dir = burst_map_disk_cache_dir()
    if cache_dir is not None:
        configure_burst_map_disk_cache(cache_dir)
    disk_before = burst_map_cache_stats()

    model_records = []
    for name in spec.nets:
        reference = reference_runner.run(name, requests)
        # Energy is cycle-derived, so it is identical at every worker
        # count (the shards replicate compute, they don't change it).
        energy = energy_record(reference_runner, name, reference)
        sweep = []
        for workers in worker_counts:
            with ShardedRunner(
                workers=workers,
                config=config,
                engine=engine,
                scheduling=scheduling,
                scale=scale,
                input_size=input_size,
                max_batch=max_batch,
                max_wait=max_wait,
                precision=profile,
                fault_plan=fault_plan,
                job_deadline=job_deadline,
                transport=transport,
                cache_dir=cache_dir,
            ) as server:
                transport = server.transport  # resolved default
                server.start(name)
                # Warm up pool + caches (kept: its cache record is
                # where cold workers' disk traffic shows up).
                warmup = server.run(name, requests)
                result, seconds = measure(
                    lambda: server.run(name, requests), repeats
                )
            identical = bool(
                np.array_equal(result.output, reference.output)
                and result.conv_cycles == reference.conv_cycles
            )
            if not identical:
                raise DataflowError(
                    f"{name}: sharded run with {workers} worker(s) "
                    "diverged from the single-process reference"
                )
            record = engine_record(result, seconds, energy)
            # Persistent-tier deltas for this point, warmup stream
            # included — cold workers do their disk traffic while
            # warming, the measured stream runs all-hot.
            for key in ("disk_hits", "disk_misses", "disk_writes"):
                if key in result.cache:
                    record["cache"][key] = int(
                        result.cache[key]
                    ) + int(warmup.cache.get(key, 0))
            makespan = result.makespan_cycles
            record["workers"] = int(workers)
            record["jobs"] = int(result.jobs)
            record["shard_cycles"] = [
                int(cycles) for cycles in result.shard_cycles
            ]
            record["makespan_cycles"] = int(makespan)
            record["requests_per_second"] = float(
                requests_per_second(
                    requests, makespan / SERVING_CLOCK_HZ
                )
            )
            record["bit_identical_to_reference"] = identical
            # A single worker's makespan is the whole stream's cycle
            # total, so this baseline is exact even when the sweep
            # doesn't include a 1-worker point.
            record["speedup_vs_one_worker"] = float(
                result.conv_cycles / max(makespan, 1)
            )
            record["health"] = result.health
            sweep.append(record)
        model_records.append(
            {
                "model": name,
                "requests": int(requests),
                "reference_conv_cycles": int(reference.conv_cycles),
                "workers": sweep,
                "requests_per_second_monotonic": all(
                    later["requests_per_second"]
                    >= earlier["requests_per_second"]
                    for earlier, later in zip(sweep, sweep[1:])
                ),
            }
        )

    payload = {
        "benchmark": "sharded_serving",
        "engine": engine,
        "config": {
            "k": config.k,
            "n": config.n,
            "precision": config.precision.name,
        },
        "precision_profile": profile.name,
        "precision_layers": profile.describe(),
        **harness.common_head(),
        "max_batch": int(max_batch),
        "max_wait": float(max_wait),
        "repeats": int(repeats),
        "clock_hz": SERVING_CLOCK_HZ,
        "worker_counts": [int(count) for count in worker_counts],
        "fault_rate": float(fault_rate),
        "fault_seed": int(fault_seed) if fault_rate > 0.0 else None,
        "transport": transport,
        "cache_dir": None if cache_dir is None else str(cache_dir),
        "models": model_records,
    }
    if cache_dir is not None:
        disk_after = burst_map_cache_stats()
        worker_totals = {
            key: sum(
                sweep["cache"].get(key, 0)
                for record in model_records
                for sweep in record["workers"]
            )
            for key in ("disk_hits", "disk_misses", "disk_writes")
        }
        # Parent-side deltas (the reference runs' cold lookups publish
        # to / warm from the shared tier) plus the worker deltas above:
        # a cold cache_dir shows disk_writes > 0, a warm one
        # disk_hits > 0 — the cold-vs-warm CI leg asserts exactly that.
        payload["disk_cache_totals"] = {
            key: int(disk_after[key] - disk_before[key])
            + worker_totals[key]
            for key in ("disk_hits", "disk_misses", "disk_writes")
        }
    configure_burst_map_disk_cache(previous_cache_dir)
    return write_benchmark_artifact(
        payload, "BENCH_serving.json", out_dir
    )


def render_serving_benchmark(payload: dict) -> str:
    """Human-readable summary of a serving benchmark payload."""
    rows = [
        {**sweep, "model": record["model"],
         "requests": record["requests"]}
        for record in payload["models"]
        for sweep in record["workers"]
    ]
    columns = [
        Column("model", "model"),
        Column("workers", "workers"),
        Column("requests", "requests"),
        Column("makespan cycles", "makespan_cycles", format=","),
        Column("req/s (sim)", "requests_per_second", format=",.0f"),
        Column(
            "vs 1 worker",
            "speedup_vs_one_worker",
            format=".2f",
            suffix="x",
        ),
        Column(
            "img/Mcycle", "images_per_million_cycles", format=".3f"
        ),
        Column(
            "bit-identical",
            lambda row: yes_no(row["bit_identical_to_reference"]),
        ),
    ]
    config = payload["config"]
    table = render_columns(
        rows,
        columns,
        title=(
            f"sharded serving ({payload['engine']}) on "
            f"{config['k']}x{config['n']} "
            f"{payload.get('precision_layers', config['precision'])} "
            f"(scale {payload['scale']}, input {payload['input_size']}, "
            f"max_batch {payload['max_batch']}, "
            f"transport {payload.get('transport', 'pickle')})"
        ),
    )
    if payload.get("cache_dir"):
        totals = {"disk_hits": 0, "disk_misses": 0, "disk_writes": 0}
        for record in payload["models"]:
            for sweep in record["workers"]:
                for counter in totals:
                    totals[counter] += sweep["cache"].get(counter, 0)
        table += (
            f"\n\npersistent burst cache {payload['cache_dir']}: "
            + ", ".join(
                f"{counter}={count}"
                for counter, count in totals.items()
            )
        )
    if payload.get("fault_rate", 0.0) > 0.0:
        totals = {
            "restarts": 0,
            "redispatched": 0,
            "retries": 0,
            "degraded_jobs": 0,
        }
        for record in payload["models"]:
            for sweep in record["workers"]:
                for counter in totals:
                    totals[counter] += sweep["health"][counter]
        table += (
            f"\n\nfault injection: rate {payload['fault_rate']:g} "
            f"(seed {payload['fault_seed']}) — every point completed "
            "bit-identical; recovery totals: "
            + ", ".join(
                f"{counter}={count}"
                for counter, count in totals.items()
            )
        )
    return table


#: Fault-tolerance benchmark defaults: injected crash-dominated fault
#: rates swept at every worker count.  0.0 is the degradation
#: baseline; >= 0.10 satisfies the "sustained completion under >= 10%
#: crash rate" artifact contract.
DEFAULT_FAULT_RATES = (0.0, 0.1, 0.25)
DEFAULT_FAULT_KINDS = ("crash", "error", "slow")


def run_fault_tolerance_benchmark(
    models: "tuple[str, ...] | list[str]" = ("mobilenet_v2",),
    worker_counts: "tuple[int, ...] | list[int]" = DEFAULT_WORKER_COUNTS,
    fault_rates: "tuple[float, ...] | list[float]" = DEFAULT_FAULT_RATES,
    requests: int = 24,
    fault_seed: int = 110,
    kinds: "tuple[str, ...]" = DEFAULT_FAULT_KINDS,
    quick: bool = False,
    scheduling: bool = True,
    config: CoreConfig | None = None,
    engine: str = "tempus",
    max_batch: int = 4,
    precision="int8",
    job_deadline: float = 2.0,
    out_dir: "str | Path | None" = "results",
) -> dict:
    """Chaos benchmark: serving under injected faults
    (``results/BENCH_faults.json``).

    For every (model, worker count, fault rate) point a seeded
    deterministic :class:`~repro.serve.faults.FaultPlan` is injected
    into the shard workers and the stream is served to completion.
    Three things are recorded per point:

    * **correctness** — outputs and cycle totals verified bit-identical
      to the single-process :class:`NetworkRunner` reference (the
      stream is never aborted: crashes are redispatched, hung shards
      killed by deadline, a collapsed pool degrades in-process);
    * **degradation** — simulated makespan and host wall time relative
      to the same worker count's fault-free point (redispatching
      skews work onto surviving shards, so the makespan grows with
      the crash rate);
    * **recovery telemetry** — the supervisor's health counters
      (restarts, retries, redispatches, deadline misses, degraded
      jobs).

    Args:
        models: zoo model names.
        worker_counts: shard-pool sizes to sweep.
        fault_rates: injected fault probabilities per (job, attempt).
        requests: single-image requests per stream.
        fault_seed: seed of the deterministic fault plans.
        kinds: fault kinds the plans draw (hang is exercised by the
            chaos test suite; including it here multiplies wall time
            by the deadline per hang).
        quick: smaller width/resolution preset for smoke runs.
        scheduling: apply burst-aware tile scheduling when lowering.
        config: array geometry (defaults to 16x16 INT8).
        engine: compute backend served.
        max_batch: dynamic-batching coalescing limit.
        precision: per-layer precision profile served.
        job_deadline: hang/slow detection deadline in seconds.
        out_dir: where BENCH_faults.json is written (None = don't).

    Returns:
        the record written to the artifact.
    """
    from repro.serve import FaultPlan, ShardedRunner

    if requests < 1:
        raise DataflowError("requests must be >= 1")
    if any(rate < 0.0 or rate > 1.0 for rate in fault_rates):
        raise DataflowError("fault rates must be in [0, 1]")
    profile = precision_profile(precision)
    spec = SweepSpec(
        name="faults",
        nets=tuple(models),
        backends=(engine,),
        precisions=(profile,),
        workers=tuple(worker_counts),
        quick=quick,
        scheduling=scheduling,
    )
    engine = spec.backends[0]
    worker_counts = spec.workers
    harness = SweepHarness(spec, config)
    scale, input_size = harness.scale, harness.input_size

    reference_runner = harness.runner(engine, profile)
    config = reference_runner.config  # profile may widen the precision

    model_records = []
    for name in spec.nets:
        reference = reference_runner.run(name, requests)
        points = []
        baselines: dict = {}  # workers -> fault-free point
        for workers in worker_counts:
            for rate in fault_rates:
                plan = (
                    FaultPlan.random(
                        fault_seed,
                        rate,
                        kinds=kinds,
                        slow_seconds=0.02,
                    )
                    if rate > 0.0
                    else None
                )
                with ShardedRunner(
                    workers=workers,
                    config=config,
                    engine=engine,
                    scheduling=scheduling,
                    scale=scale,
                    input_size=input_size,
                    max_batch=max_batch,
                    precision=profile,
                    fault_plan=plan,
                    job_deadline=(
                        job_deadline if plan is not None else None
                    ),
                ) as server:
                    server.start(name)
                    # Warm pool + burst maps on a clean stream so the
                    # timed run measures recovery, not compilation.
                    server.run(name, max_batch)
                    result, seconds = measure(
                        lambda: server.run(name, requests)
                    )
                identical = bool(
                    np.array_equal(result.output, reference.output)
                    and result.conv_cycles == reference.conv_cycles
                )
                if not identical:
                    raise DataflowError(
                        f"{name}: sharded run with {workers} "
                        f"worker(s) at fault rate {rate} diverged "
                        "from the single-process reference"
                    )
                health = result.health
                makespan = max(
                    result.makespan_cycles,
                    health.get("degraded_cycles", 0),
                )
                point = {
                    "workers": int(workers),
                    "fault_rate": float(rate),
                    "completed": True,
                    "bit_identical_to_reference": identical,
                    "conv_cycles": int(result.conv_cycles),
                    "jobs": int(result.jobs),
                    "makespan_cycles": int(makespan),
                    "requests_per_second": float(
                        requests_per_second(
                            requests, makespan / SERVING_CLOCK_HZ
                        )
                    ),
                    "wall_seconds": float(seconds),
                    "host_images_per_second": float(
                        requests_per_second(requests, seconds)
                    ),
                    "health": health,
                }
                baseline = baselines.get(workers)
                if rate == 0.0 and baseline is None:
                    baselines[workers] = point
                elif baseline is not None:
                    # > 1.0 means faults stretched the metric.
                    point["makespan_degradation"] = float(
                        makespan / max(baseline["makespan_cycles"], 1)
                    )
                    point["wall_degradation"] = float(
                        seconds / max(baseline["wall_seconds"], 1e-9)
                    )
                points.append(point)
        model_records.append(
            {
                "model": name,
                "requests": int(requests),
                "reference_conv_cycles": int(reference.conv_cycles),
                "points": points,
                "all_streams_completed": all(
                    point["completed"] for point in points
                ),
            }
        )

    payload = {
        "benchmark": "fault_tolerance",
        "engine": engine,
        "config": {
            "k": config.k,
            "n": config.n,
            "precision": config.precision.name,
        },
        "precision_profile": profile.name,
        **harness.common_head(),
        "max_batch": int(max_batch),
        "job_deadline": float(job_deadline),
        "fault_seed": int(fault_seed),
        "fault_kinds": list(kinds),
        "fault_rates": [float(rate) for rate in fault_rates],
        "clock_hz": SERVING_CLOCK_HZ,
        "worker_counts": [int(count) for count in worker_counts],
        "models": model_records,
    }
    return write_benchmark_artifact(
        payload, "BENCH_faults.json", out_dir
    )


def render_fault_tolerance_benchmark(payload: dict) -> str:
    """Human-readable summary of a fault-tolerance payload."""
    rows = [
        {**point, "model": record["model"]}
        for record in payload["models"]
        for point in record["points"]
    ]
    columns = [
        Column("model", "model"),
        Column("workers", "workers"),
        Column("fault rate", "fault_rate", format=".2f"),
        Column("makespan cycles", "makespan_cycles", format=","),
        Column(
            "vs fault-free",
            lambda row: row.get("makespan_degradation", 1.0),
            format=".2f",
            suffix="x",
        ),
        Column("restarts", lambda row: row["health"]["restarts"]),
        Column("redisp", lambda row: row["health"]["redispatched"]),
        Column("retries", lambda row: row["health"]["retries"]),
        Column("degraded", lambda row: row["health"]["degraded_jobs"]),
        Column(
            "bit-identical",
            lambda row: yes_no(row["bit_identical_to_reference"]),
        ),
    ]
    config = payload["config"]
    return render_columns(
        rows,
        columns,
        title=(
            f"fault tolerance ({payload['engine']}) on "
            f"{config['k']}x{config['n']} {config['precision']} "
            f"(seed {payload['fault_seed']}, "
            f"kinds {'/'.join(payload['fault_kinds'])}, "
            f"deadline {payload['job_deadline']}s)"
        ),
    )


#: Precision-sweep defaults: three structurally dissimilar nets, the
#: three uniform paper precisions plus the standard mixed edge recipe.
DEFAULT_PRECISION_MODELS = DEFAULT_SERVING_MODELS


def run_precision_benchmark(
    models: "tuple[str, ...] | list[str]" = DEFAULT_PRECISION_MODELS,
    precisions: "tuple | list" = DEFAULT_PRECISION_SWEEP,
    batch: int = 4,
    quick: bool = False,
    scheduling: bool = True,
    config: CoreConfig | None = None,
    verify_sharded: "str | None" = "int4",
    sharded_workers: int = 2,
    out_dir: "str | Path | None" = "results",
) -> dict:
    """Sweep precision profiles on both engines — the paper's scaling
    axis (``results/BENCH_precision.json``).

    For every (model, profile) point both engines run the same batch;
    outputs are verified bit-identical across engines before the
    tempus:binary cycle ratio is recorded.  The binary CMAC's cycle
    cost is precision-independent (one atom per cycle regardless of
    operand width), while a tub burst lasts as long as its tile's
    largest magnitude — so the ratio must *improve monotonically* as
    precision drops (worst-case burst: 64 cycles at INT8, 4 at INT4,
    1 at INT2).  The per-model ``ratio_improves_monotonically`` flag
    pins that claim over the uniform profiles in the sweep.

    Args:
        models: zoo model names (the artifact contract wants >= 3).
        precisions: profile names/specs to sweep (uniform profiles are
            compared for monotonicity in descending width order; mixed
            profiles are recorded alongside).
        batch: images per network run (>= 1).
        quick: smaller width/resolution preset for smoke runs.
        scheduling: apply burst-aware tile scheduling when lowering.
        config: array geometry (k/n; each profile provisions its own
            precision).
        verify_sharded: profile at which sharded serving is verified
            bit-identical (outputs *and* cycles) to the single-process
            ``NetworkRunner.run`` — None skips the check.
        sharded_workers: worker count for that verification.
        out_dir: where BENCH_precision.json is written (None = don't).

    Returns:
        the record written to the artifact.
    """
    from repro.serve import ShardedRunner

    spec = SweepSpec(
        name="precision",
        nets=tuple(models),
        backends=("tempus", "binary"),
        precisions=tuple(precisions),
        batch=batch,
        quick=quick,
        scheduling=scheduling,
    )
    harness = SweepHarness(spec, config)
    config = harness.base_config
    profiles = [precision_profile(entry) for entry in precisions]

    model_records = []
    for name in spec.nets:
        sweep = []
        for profile in profiles:
            tempus_runner = harness.runner("tempus", profile)
            binary_runner = harness.runner("binary", profile)
            tempus_runner.run(name, 1)  # warm compile + burst maps
            binary_runner.run(name, 1)
            tempus, tempus_seconds = measure(
                lambda: tempus_runner.run(name, batch)
            )
            binary, binary_seconds = measure(
                lambda: binary_runner.run(name, batch)
            )
            if not np.array_equal(tempus.output, binary.output):
                raise DataflowError(
                    f"{name} @ {profile.name}: engines diverged — "
                    "dataflow compliance violated"
                )
            sweep.append(
                {
                    "precision": profile.name,
                    "layers": profile.describe(),
                    "uniform": profile.is_uniform,
                    "widest_width": profile.widest.width,
                    "worst_case_burst_cycles": (
                        profile.widest.worst_case_tub_cycles
                    ),
                    "outputs_bit_identical": True,
                    "engines": {
                        "tempus": engine_record(
                            tempus,
                            tempus_seconds,
                            energy_record(tempus_runner, name, tempus),
                        ),
                        "binary": engine_record(
                            binary,
                            binary_seconds,
                            energy_record(binary_runner, name, binary),
                        ),
                    },
                    "tempus_vs_binary_cycle_ratio": float(
                        tempus.conv_cycles / max(binary.conv_cycles, 1)
                    ),
                }
            )
        # The claim reads over uniform profiles, widest format first:
        # dropping precision must never make the ratio worse.
        uniform = sorted(
            (entry for entry in sweep if entry["uniform"]),
            key=lambda entry: -entry["widest_width"],
        )
        model_records.append(
            {
                "model": name,
                "batch": int(batch),
                "precisions": sweep,
                "ratio_improves_monotonically": all(
                    later["tempus_vs_binary_cycle_ratio"]
                    < earlier["tempus_vs_binary_cycle_ratio"]
                    for earlier, later in zip(uniform, uniform[1:])
                ),
            }
        )

    payload = {
        "benchmark": "precision_sweep",
        "config": {"k": config.k, "n": config.n},
        **harness.common_head(),
        "precisions": [profile.name for profile in profiles],
        "models": model_records,
    }

    if verify_sharded is not None:
        profile = precision_profile(verify_sharded)
        verify_model = spec.nets[0]
        # The verification profile need not be part of the sweep —
        # the harness builds (and caches) its runner on demand.
        reference_runner = harness.runner("tempus", profile)
        reference = reference_runner.run(verify_model, batch)
        with ShardedRunner(
            workers=sharded_workers,
            config=config,
            engine="tempus",
            scheduling=scheduling,
            scale=harness.scale,
            input_size=harness.input_size,
            precision=profile,
        ) as server:
            sharded = server.run(verify_model, batch)
        identical = bool(
            np.array_equal(sharded.output, reference.output)
            and sharded.conv_cycles == reference.conv_cycles
        )
        if not identical:
            raise DataflowError(
                f"sharded serving @ {profile.name} diverged from the "
                "single-process reference"
            )
        payload["sharded_verification"] = {
            "model": verify_model,
            "precision": profile.name,
            "workers": int(sharded_workers),
            "requests": int(batch),
            "bit_identical_outputs_and_cycles": identical,
        }

    return write_benchmark_artifact(
        payload, "BENCH_precision.json", out_dir
    )


def render_precision_benchmark(payload: dict) -> str:
    """Human-readable summary of a precision-sweep payload."""
    rows = [
        {
            **entry,
            "model": record["model"],
            "monotonic": record["ratio_improves_monotonically"],
        }
        for record in payload["models"]
        for entry in record["precisions"]
    ]
    columns = [
        Column("model", "model"),
        Column("precision", "layers"),
        Column(
            "tempus cycles",
            lambda row: row["engines"]["tempus"]["conv_cycles"],
            format=",",
        ),
        Column(
            "binary cycles",
            lambda row: row["engines"]["binary"]["conv_cycles"],
            format=",",
        ),
        Column(
            "tempus:binary",
            "tempus_vs_binary_cycle_ratio",
            format=".3f",
        ),
        Column(
            "img/Mcycle (tempus)",
            lambda row: (
                row["engines"]["tempus"]["images_per_million_cycles"]
            ),
            format=".3f",
        ),
        Column("monotonic", lambda row: yes_no(row["monotonic"])),
    ]
    config = payload["config"]
    lines = [
        render_columns(
            rows,
            columns,
            title=(
                f"precision sweep on {config['k']}x{config['n']} "
                f"(scale {payload['scale']}, "
                f"input {payload['input_size']})"
            ),
        )
    ]
    verification = payload.get("sharded_verification")
    if verification is not None:
        lines.append(
            f"sharded serving @ {verification['precision']} "
            f"({verification['workers']} workers, "
            f"{verification['model']}): bit-identical to "
            f"single-process run = "
            f"{yes_no(verification['bit_identical_outputs_and_cycles'])}"
        )
    return "\n\n".join(lines)


#: Backend-sweep default workload: three structurally dissimilar nets.
DEFAULT_BACKEND_MODELS = DEFAULT_SERVING_MODELS


def _mean_burst_cycles(net) -> float:
    """Mean burst length across a compiled network's weight tiles —
    the Fig. 7 statistic, at the network's own per-stage configs."""
    total = 0
    tiles = 0
    for stage in net.stages:
        for weights in stage.weights:
            bursts = cached_burst_cycle_map(
                weights, stage.config, net.code
            )
            total += int(bursts.sum())
            tiles += int(bursts.size)
    return total / max(tiles, 1)


def run_backend_benchmark(
    models: "tuple[str, ...] | list[str]" = DEFAULT_BACKEND_MODELS,
    backends: "tuple[str, ...] | list[str]" = DEFAULT_BACKEND_SWEEP,
    precisions: "tuple | list" = DEFAULT_BACKEND_PRECISIONS,
    batch: int = 4,
    quick: bool = False,
    scheduling: bool = True,
    config: CoreConfig | None = None,
    out_dir: "str | Path | None" = "results",
) -> dict:
    """Sweep compute backends x precision profiles
    (``results/BENCH_backends.json``).

    For every (model, precision) point each registered backend runs the
    same batch; outputs are verified bit-identical across *all*
    backends, and each backend's reference core (the real conv cores;
    the actual GemmEngine via im2col for the gemm backends) is driven
    on a probe image and pinned to the batched path in outputs *and*
    cycles, before cycles and per-image energy are recorded (only the
    cycle/energy accounting may differ — every backend computes the
    exact integer convolution).  Two claims are pinned per point:

    * tubGEMM's value-aware cycle count is strictly below tuGEMM's at
      equal precision (the hybrid-encoding win — 2s-unary weight
      streaming vs the pure-unary replay);
    * the temporal:binary cycle ratio of every temporal backend
      improves as precision drops, while binary cycles stay flat.

    Energy: every backend record carries ``pj_per_image`` from the
    deployed-array power model (:func:`~repro.profiling.energy
    .network_energy`), and each (model, precision) point carries the
    paper's Sec. V-C per-burst comparison
    (:func:`~repro.profiling.energy.workload_energy`) at the model's
    mean burst length.

    Args:
        models: zoo model names (the artifact contract wants >= 3).
        backends: registered backend names to sweep.
        precisions: precision profiles to sweep.
        batch: images per network run (>= 1).
        quick: smaller width/resolution preset for smoke runs.
        scheduling: apply burst-aware tile scheduling when lowering.
        config: array geometry (k/n).
        out_dir: where BENCH_backends.json is written (None = don't).

    Returns:
        the record written to the artifact.
    """
    spec = SweepSpec(
        name="backends",
        nets=tuple(models),
        backends=tuple(backends),
        precisions=tuple(precisions),
        batch=batch,
        quick=quick,
        scheduling=scheduling,
    )
    # This sweep's records carry per-backend engine metadata, so mixed
    # "first/interior/last" profiles don't belong here — get_backend
    # rejects them like the pre-spec driver did.
    backend_names = tuple(
        get_backend(name).name for name in spec.backends
    )
    harness = SweepHarness(spec, config)
    config = harness.base_config
    profiles = [precision_profile(entry) for entry in precisions]

    model_records = []
    for model in spec.nets:
        sweep = []
        for profile in profiles:
            results = {}
            records = {}
            for name in backend_names:
                runner = harness.runner(name, profile)
                runner.run(model, 1)  # warm compile + burst maps
                result, seconds = measure(
                    lambda: runner.run(model, batch)
                )
                results[name] = result
                records[name] = engine_record(
                    result,
                    seconds,
                    energy_record(runner, model, result),
                )
                records[name]["temporal"] = get_backend(name).temporal
                # The batched path computes outputs through the shared
                # golden kernels regardless of backend, so comparing
                # batched outputs alone would be vacuous.  Drive each
                # backend's *reference* core (real conv cores; the
                # actual GemmEngine via im2col for tugemm/tubgemm) on
                # one image and pin outputs AND cycles to the batched
                # run — this is where a broken engine would surface.
                probe = runner.synthesize_batch(model, 1)
                batched_probe = runner.run(model, probe)
                reference_probe = runner.run_per_image(model, probe)
                if not (
                    np.array_equal(
                        batched_probe.output, reference_probe.output
                    )
                    and batched_probe.conv_cycles
                    == reference_probe.conv_cycles
                ):
                    raise DataflowError(
                        f"{model} @ {profile.name}: backend {name!r} "
                        "reference core diverged from the batched path"
                    )
                records[name]["reference_path_verified"] = True
            reference_name = backend_names[0]
            reference = results[reference_name]
            for name, result in results.items():
                if not np.array_equal(result.output, reference.output):
                    raise DataflowError(
                        f"{model} @ {profile.name}: backend {name!r} "
                        f"diverged from {reference_name!r} — outputs "
                        "must be bit-identical across backends"
                    )
            entry = {
                "net": model,
                "precision": profile.name,
                "layers": profile.describe(),
                "outputs_bit_identical": True,
                "backends": records,
            }
            if "binary" in results:
                binary = results["binary"]
                entry["vs_binary_cycles"] = {
                    name: float(
                        results[name].conv_cycles
                        / max(binary.conv_cycles, 1)
                    )
                    for name in backend_names
                    if name != "binary"
                }
                if "tempus" in results:
                    entry["tempus_vs_binary_cycle_ratio"] = entry[
                        "vs_binary_cycles"
                    ]["tempus"]
                entry["vs_binary_energy"] = {
                    name: float(
                        records[name]["energy"]["pj_per_image"]
                        / max(
                            records["binary"]["energy"]["pj_per_image"],
                            1e-12,
                        )
                    )
                    for name in backend_names
                    if name != "binary"
                }
            if "tugemm" in results and "tubgemm" in results:
                below = bool(
                    results["tubgemm"].conv_cycles
                    < results["tugemm"].conv_cycles
                )
                if not below:
                    raise DataflowError(
                        f"{model} @ {profile.name}: tubGEMM cycles "
                        f"({results['tubgemm'].conv_cycles}) not below "
                        f"tuGEMM's ({results['tugemm'].conv_cycles}) — "
                        "the hybrid-encoding claim is violated"
                    )
                entry["tubgemm_below_tugemm"] = below
            # The paper's Sec. V-C per-burst comparison at this
            # model/precision point (deployed INT8 arrays, the model's
            # mean burst length).
            net = harness.runner(backend_names[0], profile).compile(
                model
            )
            comparison = workload_energy(
                model, config, _mean_burst_cycles(net)
            )
            entry["burst_energy"] = {
                "mean_burst_cycles": comparison.burst_cycles,
                "binary_pj": comparison.binary_energy_pj,
                "tub_pj": comparison.tub_energy_pj,
                "energy_gap": comparison.energy_gap,
            }
            sweep.append(entry)
        model_records.append({"model": model, "precisions": sweep})

    payload = {
        "benchmark": "backend_sweep",
        "config": {"k": config.k, "n": config.n},
        **harness.common_head(),
        "batch": spec.batch,
        "backends": list(backend_names),
        "precisions": [profile.name for profile in profiles],
        "models": model_records,
    }
    return write_benchmark_artifact(
        payload, "BENCH_backends.json", out_dir
    )


def render_backend_benchmark(payload: dict) -> str:
    """Human-readable summary of a backend-sweep payload."""
    rows = [
        {
            "net": entry["net"],
            "layers": entry["layers"],
            "backend": name,
            "stats": entry["backends"][name],
            "vs_binary": entry.get("vs_binary_cycles", {}).get(
                name, 1.0
            ),
            "bit_identical": entry["outputs_bit_identical"],
        }
        for record in payload["models"]
        for entry in record["precisions"]
        for name in payload["backends"]
    ]
    columns = [
        Column("net", "net"),
        Column("precision", "layers"),
        Column("backend", "backend"),
        Column(
            "cycles",
            lambda row: row["stats"]["conv_cycles"],
            format=",",
        ),
        Column(
            "pJ/image",
            lambda row: row["stats"]["energy"]["pj_per_image"],
            format=",.0f",
        ),
        Column("cycles vs binary", "vs_binary", format=".3f"),
        Column(
            "bit-identical",
            lambda row: yes_no(row["bit_identical"]),
        ),
    ]
    config = payload["config"]
    return render_columns(
        rows,
        columns,
        title=(
            f"compute-backend sweep on {config['k']}x{config['n']} "
            f"(scale {payload['scale']}, input {payload['input_size']}, "
            f"batch {payload['batch']})"
        ),
    )


#: LLM decode benchmark defaults: the extension transformer block
#: served token-by-token on every registered backend at the paper's
#: three uniform precisions, with sharded re-verification at these
#: worker counts.
DEFAULT_LLM_MODEL = "tiny_llm"
DEFAULT_LLM_WORKERS = (1, 2)


def _linear_stage_parity(net, stage_index: int, backend_name: str,
                         tokens: int) -> bool:
    """Cross-check the executor's value-aware accounting of one linear
    stage against the standalone :class:`~repro.gemm.llm.TubMatVec`
    GEMV engine (the Sec. VI future-work model the op-graph IR lowers).

    A linear stage is a per-token GEMV, so the executor's cycles must
    be the engine's per-token count scaled by the token axis plus the
    backend's fixed pipeline terms:

    * binary: ``binary_cycles * tokens + pipeline_latency``
    * tempus: ``tempus_cycles * tokens + pipeline_latency + 1``
    * gemm baselines: ``tempus_cycles * tokens`` (flat accounting,
      with tuGEMM's replayed-unary cycle law substituted).
    """
    from repro.gemm.llm import project_linear_stage

    stage = net.stages[stage_index]
    backend = get_backend(backend_name)
    got = sum(
        backend.layer_cycles(
            stage, weights, net.code, out_pixels=tokens
        )
        for weights in stage.weights
    )
    cycle_code = getattr(backend, "cycle_code", None)
    engine = project_linear_stage(
        stage,
        code=cycle_code(stage.config) if cycle_code else net.code,
    )
    latency = stage.config.pipeline_latency
    if backend_name == "binary":
        expect = engine.binary_cycles * tokens + latency
    elif backend_name == "tempus":
        expect = engine.tempus_cycles * tokens + latency + 1
    else:
        expect = engine.tempus_cycles * tokens
    return got == expect


def run_llm_benchmark(
    backends: "tuple[str, ...] | list[str]" = DEFAULT_BACKEND_SWEEP,
    precisions: "tuple | list" = DEFAULT_BACKEND_PRECISIONS,
    tokens: "int | None" = None,
    quick: bool = False,
    scheduling: bool = True,
    config: CoreConfig | None = None,
    sharded_workers: "tuple[int, ...] | list[int]" = DEFAULT_LLM_WORKERS,
    out_dir: "str | Path | None" = "results",
) -> dict:
    """Token-by-token autoregressive decode of the extension
    transformer block (``results/BENCH_llm.json``).

    The ``tiny_llm`` zoo model lowers the op-graph IR end-to-end: six
    linear projections (attention q/k/v/o and the MLP pair) plus the
    folded residual adds and requant norms.  Linear stages compile
    with ``dynamic_hw``, so one compiled network serves every prefix
    length — decode step ``t`` runs the growing (d_out x d_in) x t
    GEMM over the first ``t`` tokens of a fixed synthesized stream,
    exactly the growing-sequence shape profile of KV-cache-less
    autoregressive serving.

    Per (backend, precision) point, every decode step is verified
    bit-identical (outputs AND cycles, total and per stage) between the
    batched executor and the per-image reference path, sharded serving
    is re-verified at several prefix checkpoints for every worker
    count, and the first projection's cycle accounting is pinned to
    the standalone :class:`~repro.gemm.llm.TubMatVec` GEMV engine.
    Recorded per point: the per-step cycle series, per-token latency
    percentiles (p50/p90/p99 in cycles and microseconds at the serving
    clock) and steady-state host decode throughput.

    Args:
        backends: registered backend names to sweep.
        precisions: uniform precision profiles to sweep.
        tokens: decode length (defaults to the preset input size — 64
            full, 32 quick).
        quick: smaller width/resolution preset for smoke runs.
        scheduling: apply burst-aware tile scheduling when lowering.
        config: array geometry (k/n).
        sharded_workers: shard-pool sizes re-verified per point.
        out_dir: where BENCH_llm.json is written (None = don't).

    Returns:
        the record written to the artifact.
    """
    from repro.models.layers import LinearSpec
    from repro.serve import ShardedRunner
    from repro.utils.rng import make_rng

    model = DEFAULT_LLM_MODEL
    spec = SweepSpec(
        name="llm",
        nets=(model,),
        backends=tuple(backends),
        precisions=tuple(precisions),
        workers=tuple(sharded_workers),
        batch=1,
        quick=quick,
        scheduling=scheduling,
    )
    backend_names = tuple(
        get_backend(name).name for name in spec.backends
    )
    harness = SweepHarness(spec, config)
    config = harness.base_config
    profiles = [precision_profile(entry) for entry in precisions]
    tokens = harness.input_size if tokens is None else int(tokens)
    if tokens < 1:
        raise DataflowError("decode length must be >= 1 token")
    # Sharded serving re-verification checkpoints: short, mid and full
    # prefixes (deduplicated for tiny decode lengths).
    checkpoints = sorted(
        {1, max(1, tokens // 4), max(1, tokens // 2), tokens}
    )
    cache_before = burst_map_cache_stats()

    records = []
    block = None
    for profile in profiles:
        for name in backend_names:
            runner = harness.runner(name, profile)
            net = runner.compile(model)
            if block is None:
                block = [
                    {
                        "name": stage.name,
                        "d_out": int(stage.layer.out_features),
                        "d_in": int(stage.layer.in_features),
                        "residual": stage.residual_from is not None,
                    }
                    for stage in net.stages
                    if isinstance(stage.layer, LinearSpec)
                ]
            executor = runner.executor(model)
            # One fixed stream per decode length; every backend and
            # precision decodes prefixes of the same token sequence
            # (clipped per profile by the activation format itself).
            rng = make_rng("llm-decode", model, int(tokens))
            stream = np.asarray(
                net.precision.random_array(
                    rng, (1, net.input_shape[0], tokens, 1)
                ),
                dtype=np.int64,
            )
            per_token = []
            reference_at: dict = {}
            for step in range(1, tokens + 1):
                prefix = stream[:, :, :step, :]
                job = executor.run_job(prefix)
                reference = runner.run_per_image(model, prefix)
                identical = bool(
                    np.array_equal(job["output"], reference.output)
                    and job["conv_cycles"] == reference.conv_cycles
                    and job["stage_cycles"]
                    == tuple(
                        record.conv_cycles
                        for record in reference.stages
                    )
                )
                if not identical:
                    raise DataflowError(
                        f"{model} @ {name}/{profile.name}: decode "
                        f"step {step} diverged between the batched "
                        "and per-image paths"
                    )
                per_token.append(
                    {
                        "token": step,
                        "conv_cycles": int(job["conv_cycles"]),
                    }
                )
                if step in checkpoints:
                    reference_at[step] = job
            sharded_ok = True
            for workers in spec.workers:
                with ShardedRunner(
                    workers=workers,
                    config=runner.config,
                    engine=name,
                    scheduling=scheduling,
                    scale=harness.scale,
                    input_size=harness.input_size,
                    precision=profile,
                ) as server:
                    server.start(model)
                    for step in checkpoints:
                        sharded = server.run(
                            model, stream[:, :, :step, :]
                        )
                        job = reference_at[step]
                        if not (
                            np.array_equal(
                                sharded.output, job["output"]
                            )
                            and sharded.conv_cycles
                            == job["conv_cycles"]
                        ):
                            raise DataflowError(
                                f"{model} @ {name}/{profile.name}: "
                                f"sharded decode ({workers} workers, "
                                f"{step} tokens) diverged from the "
                                "single-process reference"
                            )
            parity = _linear_stage_parity(net, 0, name, tokens)
            if not parity:
                raise DataflowError(
                    f"{model} @ {name}/{profile.name}: linear-stage "
                    "cycle accounting diverged from the TubMatVec "
                    "GEMV engine"
                )
            # Steady state by construction: the decode loop above
            # already compiled the net and warmed every burst map.
            _, seconds = measure(
                lambda: [
                    executor.run_job(stream[:, :, :step, :])
                    for step in range(1, tokens + 1)
                ]
            )
            cycles = np.asarray(
                [entry["conv_cycles"] for entry in per_token],
                dtype=np.int64,
            )
            p50, p90, p99 = (
                float(value)
                for value in np.percentile(cycles, (50, 90, 99))
            )
            records.append(
                {
                    "net": model,
                    "backend": name,
                    "precision": profile.name,
                    "layers": profile.describe(),
                    "tokens": int(tokens),
                    "conv_cycles": int(cycles[-1]),
                    "per_token": per_token,
                    "latency_cycles": {
                        "p50": p50,
                        "p90": p90,
                        "p99": p99,
                        "mean": float(cycles.mean()),
                    },
                    "latency_us": {
                        "p50": p50 * 1e6 / SERVING_CLOCK_HZ,
                        "p90": p90 * 1e6 / SERVING_CLOCK_HZ,
                        "p99": p99 * 1e6 / SERVING_CLOCK_HZ,
                    },
                    "cycles_monotone_nondecreasing": bool(
                        np.all(np.diff(cycles) >= 0)
                    ),
                    "bit_identical": True,
                    "sharded_bit_identical": sharded_ok,
                    "matvec_parity": parity,
                    "wall_seconds": float(seconds),
                    "host_tokens_per_second": float(
                        tokens / max(seconds, 1e-12)
                    ),
                }
            )

    cache_after = burst_map_cache_stats()
    payload = {
        "benchmark": "llm_decode",
        "model": model,
        "config": {"k": config.k, "n": config.n},
        **harness.common_head(),
        "tokens": int(tokens),
        "clock_hz": SERVING_CLOCK_HZ,
        "backends": list(backend_names),
        "precisions": [profile.name for profile in profiles],
        "worker_counts": [int(count) for count in spec.workers],
        "sharded_checkpoints": [int(step) for step in checkpoints],
        "block": block,
        "records": records,
        # Growing-sequence shapes must not churn the burst-map cache:
        # maps key on weight content, not output pixels, so the whole
        # sweep adds one entry per (weight tensor, geometry) pair.
        "burst_map_cache_totals": {
            "entries": cache_after["entries"],
            "entries_added": (
                cache_after["entries"] - cache_before["entries"]
            ),
            "hits": cache_after["hits"] - cache_before["hits"],
            "misses": cache_after["misses"] - cache_before["misses"],
        },
    }
    return write_benchmark_artifact(payload, "BENCH_llm.json", out_dir)


def render_llm_benchmark(payload: dict) -> str:
    """Human-readable summary of an LLM decode payload."""
    columns = [
        Column("backend", "backend"),
        Column("precision", "layers"),
        Column("tokens", "tokens"),
        Column("total cycles", "conv_cycles", format=","),
        Column(
            "p50 cyc/tok",
            lambda row: row["latency_cycles"]["p50"],
            format=",.0f",
        ),
        Column(
            "p99 cyc/tok",
            lambda row: row["latency_cycles"]["p99"],
            format=",.0f",
        ),
        Column(
            "host tok/s",
            "host_tokens_per_second",
            format=",.0f",
        ),
        Column(
            "bit-identical",
            lambda row: yes_no(
                row["bit_identical"]
                and row["sharded_bit_identical"]
            ),
        ),
    ]
    config = payload["config"]
    dims = " + ".join(
        f"{stage['d_in']}x{stage['d_out']}"
        for stage in payload.get("block", [])
    )
    return render_columns(
        payload["records"],
        columns,
        title=(
            f"autoregressive decode ({payload['model']}: {dims}) on "
            f"{config['k']}x{config['n']} "
            f"(scale {payload['scale']}, {payload['tokens']} tokens, "
            f"workers {payload['worker_counts']})"
        ),
    )


def _hit_rate(cache: dict) -> str:
    """A cache record's hit rate, or "-" when the run made no
    burst-map lookups."""
    rate = cache["hit_rate"]
    return "-" if rate is None else f"{rate:.2f}"


def render_benchmark(payload: dict) -> str:
    """Human-readable summary of a benchmark payload."""
    columns = [
        Column("model", "model"),
        Column("batch", "batch"),
        Column(
            "tempus cycles",
            lambda row: row["engines"]["tempus"]["conv_cycles"],
            format=",",
        ),
        Column(
            "binary cycles",
            lambda row: row["engines"]["binary"]["conv_cycles"],
            format=",",
        ),
        Column(
            "img/Mcycle (tempus)",
            lambda row: (
                row["engines"]["tempus"]["images_per_million_cycles"]
            ),
            format=".3f",
        ),
        Column(
            "cache hit",
            lambda row: _hit_rate(row["engines"]["tempus"]["cache"]),
        ),
        Column(
            "sched gain",
            "scheduling_speedup",
            format=".3f",
            suffix="x",
        ),
    ]
    config = payload["config"]
    table = render_columns(
        payload["models"],
        columns,
        title=(
            f"batched network inference on {config['k']}x{config['n']} "
            f"{payload.get('precision_layers', config['precision'])} "
            f"(scale {payload['scale']}, input {payload['input_size']})"
        ),
    )
    return table
