"""The benchmark drivers behind ``python -m repro bench <spec>``.

Each driver takes one registered :class:`~repro.tune.spec.SweepSpec`
(nets x backends x precisions x geometries, plus worker counts for the
serving sweep), executes it through the generic
:class:`~repro.tune.harness.SweepHarness` (presets, runner caching,
energy records, artifact writing) and keeps only its claim-specific
logic.  Every field a driver writes is a function of its spec —
cycles, pJ, identity and liveness flags — so an artifact regenerated
from the same spec is the same file; host speed is measured by
perfbench alone.

* :func:`run_serving_benchmark` — ``serving``: the sharded
  multi-worker serving runtime (``results/BENCH_serving.json``):
  simulated requests/sec and images-per-Mcycle vs worker count, and the
  same streams under seeded injected faults, with every point verified
  bit-identical to the single-process reference.
* :func:`run_backend_benchmark` — ``backends``: the one CNN sweep
  (``results/BENCH_backends.json``): every registered MAC-unit design
  at INT8 / INT4 / INT2 / mixed on three nets, with per-point
  bit-identity, the tempus scheduling gain and the paper's precision
  scaling claim (temporal:binary cycle ratios fall as precision
  drops while binary cycles stay flat).
* :func:`run_llm_benchmark` — ``llm``: token-by-token autoregressive
  decode of the extension transformer block
  (``results/BENCH_llm.json``): growing-sequence GEMM shapes through
  the dynamic-token linear stages, per-token latency percentiles, and
  batched/per-image/sharded bit-identity at every backend x precision
  point.
* :func:`~repro.tune.autotune.run_pareto_tune` — ``pareto``: the
  design-space autotuner's Pareto frontier over backend x precision x
  geometry (``results/BENCH_pareto.json``).
* :func:`~repro.eval.experiments.run_paper_benchmark` — ``paper``:
  every table and figure of the paper's evaluation, each beside its
  published values (``results/BENCH_paper.json``).

:data:`BENCHMARKS` maps each spec name to its driver and renderer.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.latency import burst_cycle_map
from repro.errors import DataflowError
from repro.eval.experiments import render_paper_benchmark, \
    run_paper_benchmark
from repro.eval.throughput import requests_per_second
from repro.profiling.energy import workload_energy
from repro.quant.profile import precision_profile
from repro.runtime.backends import get_backend
from repro.tune.autotune import render_pareto_tune, run_pareto_tune
from repro.tune.harness import (
    SweepHarness,
    engine_record,
    energy_record,
    single,
    write_benchmark_artifact,
)
from repro.tune.spec import (
    BACKENDS_SWEEP,
    LLM_SWEEP,
    SERVING_SWEEP,
    SweepSpec,
)
from repro.utils.tables import Column, render_columns, yes_no


#: Nominal shard clock for converting simulated cycle makespans into
#: requests/sec — 1 GHz, the edge-DLA class frequency the paper's P&R
#: closes timing at.
SERVING_CLOCK_HZ = 1_000_000_000


#: Dynamic-batching limits of the serving sweep.  Batch split cannot
#: change outputs or cycles, so these are constants, not knobs.  The
#: hold window is long enough that only a full batch or the end of the
#: stream ships one, so the job split — and with it ``jobs``,
#: ``shard_cycles`` and the seeded fault schedule — depends on the
#: request count alone, never on thread timing.  It stays finite
#: because ``Condition.wait`` rejects ``inf``.
MAX_BATCH = 8
MAX_WAIT = 3600.0

#: The chaos axis: crash-dominated fault rates swept at every worker
#: count (0.0 is the fault-free serving point), drawn from one seeded
#: plan.  Seed 110 faults job 1 (error) and job 2 (crash) at both
#: rates, so every faulted stream of more than one job must recover.
FAULT_RATES = (0.0, 0.1, 0.25)
FAULT_KINDS = ("crash", "error", "slow")
FAULT_SEED = 110
FAULT_JOB_DEADLINE = 2.0


def run_serving_benchmark(
    spec: SweepSpec = SERVING_SWEEP,
    out_dir: "str | Path | None" = "results",
) -> dict:
    """Benchmark the sharded serving runtime across worker counts and
    injected fault rates (``results/BENCH_serving.json``).

    For every model the single-process :class:`NetworkRunner` run over
    the same request stream is the reference; every (workers, fault
    rate) point is verified bit-identical (outputs and cycles) before
    it is recorded.

    The throughput metric is **simulated**, like every other
    cycle-derived number in this repo: the shards model replicated
    compute units running in parallel, so a fault-free stream completes
    after ``max(per-shard cycles)`` — the makespan — and
    ``requests_per_second = requests * clock_hz / makespan``.  This is
    host-independent (a single-core CI box can't demonstrate
    process-level parallelism on the wall clock; the simulated clock
    can).  Tensors cross the worker boundary on the platform's default
    transport (shm where available).

    At every fault rate above 0 a seeded
    :class:`~repro.serve.faults.FaultPlan` crashes, fails and slows
    shard workers, and the stream must still complete bit-identical
    with at least one restart, redispatch or retry.  Which jobs are in
    flight on a shard when it crashes is a race, so the faulted
    makespans and recovery counters are left to
    ``ShardedResult.health``; a faulted record holds only its
    deterministic fields.

    Args:
        spec: the sweep — its nets, one backend (a registered name or a
            "first/interior/last" mix), one precision profile, one
            geometry, the worker counts, and ``batch`` single-image
            requests per stream.
        out_dir: where BENCH_serving.json is written (None = don't).

    Returns:
        the record written to the artifact.
    """
    from repro.serve import FaultPlan, ShardedRunner

    if not spec.workers:
        raise DataflowError("the serving benchmark needs >= 1 worker count")
    if spec.batch <= MAX_BATCH:
        raise DataflowError(
            f"the serving benchmark needs more than {MAX_BATCH} "
            "requests, so its seeded faults fire"
        )
    engine = single(spec, "backends")
    profile = precision_profile(single(spec, "precisions"))
    single(spec, "geometries")
    harness = SweepHarness(spec)
    reference_runner = harness.runner(engine, profile)
    requests = spec.batch
    config = reference_runner.config  # profile may widen the precision

    def serve(name, workers, rate):
        plan = None
        if rate > 0.0:
            plan = FaultPlan.random(
                FAULT_SEED, rate, kinds=FAULT_KINDS, slow_seconds=0.02
            )
        with ShardedRunner(
            workers=workers,
            config=config,
            engine=engine,
            scale=harness.scale,
            input_size=harness.input_size,
            max_batch=MAX_BATCH,
            max_wait=MAX_WAIT,
            precision=profile,
            fault_plan=plan,
            job_deadline=FAULT_JOB_DEADLINE if plan else None,
        ) as server:
            return server.transport, server.run(name, requests)

    model_records = []
    for name in spec.nets:
        reference = reference_runner.run(name, requests)
        # Energy is cycle-derived, so it is identical at every worker
        # count (the shards replicate compute, they don't change it).
        energy = energy_record(reference_runner, name, reference)
        sweep, faulted = [], []
        for workers in spec.workers:
            for rate in FAULT_RATES:
                transport, result = serve(name, workers, rate)
                if not (
                    np.array_equal(result.output, reference.output)
                    and result.conv_cycles == reference.conv_cycles
                ):
                    raise DataflowError(
                        f"{name}: sharded run with {workers} worker(s) "
                        f"at fault rate {rate} diverged from the "
                        "single-process reference"
                    )
                if rate > 0.0:
                    if not any(
                        result.health[counter]
                        for counter in ("restarts", "redispatched", "retries")
                    ):
                        raise DataflowError(
                            f"{name}: no restart, redispatch or retry "
                            f"with {workers} worker(s) at fault rate "
                            f"{rate}"
                        )
                    faulted.append(
                        {
                            "workers": int(workers),
                            "fault_rate": float(rate),
                            "jobs": int(result.jobs),
                            "conv_cycles": int(result.conv_cycles),
                            "completed": True,
                            "bit_identical_to_reference": True,
                            "recovered": True,
                        }
                    )
                    continue
                makespan = result.makespan_cycles
                sweep.append(
                    {
                        **engine_record(result, energy),
                        "workers": int(workers),
                        "jobs": int(result.jobs),
                        "shard_cycles": [
                            int(cycles) for cycles in result.shard_cycles
                        ],
                        "makespan_cycles": int(makespan),
                        "requests_per_second": float(
                            requests_per_second(
                                requests, makespan / SERVING_CLOCK_HZ
                            )
                        ),
                        "bit_identical_to_reference": True,
                        # A single worker's makespan is the whole
                        # stream's cycle total, so this baseline is
                        # exact even when the sweep doesn't include a
                        # 1-worker point.
                        "speedup_vs_one_worker": float(
                            result.conv_cycles / max(makespan, 1)
                        ),
                    }
                )
        model_records.append(
            {
                "model": name,
                "requests": int(requests),
                "reference_conv_cycles": int(reference.conv_cycles),
                "workers": sweep,
                "faulted": faulted,
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
        "max_batch": MAX_BATCH,
        "max_wait": MAX_WAIT,
        "clock_hz": SERVING_CLOCK_HZ,
        "worker_counts": list(spec.workers),
        "fault_rates": list(FAULT_RATES),
        "fault_kinds": list(FAULT_KINDS),
        "fault_seed": FAULT_SEED,
        "job_deadline": FAULT_JOB_DEADLINE,
        "transport": transport,
        "models": model_records,
    }
    return write_benchmark_artifact(
        payload, "BENCH_serving.json", out_dir
    )


def render_serving_benchmark(payload: dict) -> str:
    """Human-readable summary of a serving benchmark payload: the
    fault-free scaling table, then the faulted points."""
    def rows(key):
        return [
            {**point, "model": record["model"]}
            for record in payload["models"]
            for point in record[key]
        ]

    identical = Column(
        "bit-identical",
        lambda row: yes_no(row["bit_identical_to_reference"]),
    )
    config = payload["config"]
    scaling = render_columns(
        rows("workers"),
        [
            Column("model", "model"),
            Column("workers", "workers"),
            Column("makespan cycles", "makespan_cycles", format=","),
            Column(
                "req/s (sim)", "requests_per_second", format=",.0f"
            ),
            Column(
                "vs 1 worker",
                "speedup_vs_one_worker",
                format=".2f",
                suffix="x",
            ),
            Column(
                "img/Mcycle", "images_per_million_cycles", format=".3f"
            ),
            identical,
        ],
        title=(
            f"sharded serving ({payload['engine']}) on "
            f"{config['k']}x{config['n']} {payload['precision_layers']} "
            f"(scale {payload['scale']}, input {payload['input_size']}, "
            f"max_batch {payload['max_batch']}, "
            f"transport {payload['transport']})"
        ),
    )
    chaos = render_columns(
        rows("faulted"),
        [
            Column("model", "model"),
            Column("workers", "workers"),
            Column("fault rate", "fault_rate", format=".2f"),
            Column("jobs", "jobs"),
            Column("conv cycles", "conv_cycles", format=","),
            Column("recovered", lambda row: yes_no(row["recovered"])),
            identical,
        ],
        title=(
            f"under injected faults (seed {payload['fault_seed']}, "
            f"kinds {'/'.join(payload['fault_kinds'])}, "
            f"deadline {payload['job_deadline']}s)"
        ),
    )
    return f"{scaling}\n\n{chaos}"


def _mean_burst_cycles(net) -> float:
    """Mean burst length across a compiled network's weight tiles —
    the Fig. 7 statistic, at the network's own per-stage configs."""
    total = 0
    tiles = 0
    for stage in net.stages:
        bursts = burst_cycle_map(
            stage.scheduled_weights(), stage.config, net.code
        )
        total += int(bursts.sum())
        tiles += int(bursts.size)
    return total / max(tiles, 1)


def run_backend_benchmark(
    spec: SweepSpec = BACKENDS_SWEEP,
    out_dir: "str | Path | None" = "results",
) -> dict:
    """The CNN sweep: compute backends x precision profiles
    (``results/BENCH_backends.json``).

    For every (model, precision) point each registered backend runs the
    same batch; outputs are verified bit-identical across *all*
    backends, and each backend's reference core (the real conv cores;
    the actual GemmEngine via im2col for the gemm backends) is driven
    on a probe image and pinned to the batched path in outputs *and*
    cycles, before cycles and per-image energy are recorded (only the
    cycle/energy accounting may differ — every backend computes the
    exact integer convolution).  When tempus is swept, one unscheduled
    tempus run per point records ``scheduling_speedup`` (baseline
    cycles over scheduled cycles).  The claims, checked by
    ``check-results``:

    * tubGEMM's value-aware cycle count is strictly below tuGEMM's at
      equal precision (the hybrid-encoding win — 2s-unary weight
      streaming vs the pure-unary replay; also enforced here);
    * the temporal:binary cycle ratio of every temporal backend falls
      strictly from INT8 to INT4 to INT2 (a tub burst lasts as long as
      its tile's largest magnitude: 64 cycles worst case at INT8, 4 at
      INT4, 1 at INT2), while binary cycles stay flat at every
      profile, mixed included;
    * burst-aware tile scheduling never costs tempus cycles.

    Energy: every backend record carries ``pj_per_image`` from the
    deployed-array power model (:func:`~repro.profiling.energy
    .network_energy`), and each (model, precision) point carries the
    paper's Sec. V-C per-burst comparison
    (:func:`~repro.profiling.energy.workload_energy`) at the model's
    mean burst length.

    Args:
        spec: the sweep — its nets, registered backends (no mixed
            profiles: records carry per-backend metadata), precision
            profiles, one geometry, batch and preset.
        out_dir: where BENCH_backends.json is written (None = don't).

    Returns:
        the record written to the artifact.
    """
    backend_names = tuple(
        get_backend(name).name for name in spec.backends
    )
    single(spec, "geometries")
    batch = spec.batch
    harness = SweepHarness(spec)
    config = harness.config_for()
    profiles = [precision_profile(entry) for entry in spec.precisions]

    model_records = []
    for model in spec.nets:
        sweep = []
        for profile in profiles:
            results = {}
            records = {}
            for name in backend_names:
                runner = harness.runner(name, profile)
                result = runner.run(model, batch)
                results[name] = result
                records[name] = engine_record(
                    result, energy_record(runner, model, result)
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
            if "tempus" in results:
                baseline = harness.runner(
                    "tempus", profile, scheduling=False
                ).run(model, batch)
                entry["scheduling_speedup"] = float(
                    baseline.conv_cycles
                    / max(results["tempus"].conv_cycles, 1)
                )
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
    got = backend.layer_cycles(
        stage, stage.scheduled_weights(), net.code, out_pixels=tokens
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
    spec: SweepSpec = LLM_SWEEP,
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
    Recorded per point: the per-step cycle series and per-token
    latency percentiles (p50/p90/p99 in cycles and microseconds at the
    serving clock).

    Args:
        spec: the sweep — one net (the transformer block), registered
            backends, uniform precision profiles, one geometry, the
            shard-pool sizes re-verified per point and preset.  The
            decode length is the preset input size
            (64 tokens full, 32 quick).
        out_dir: where BENCH_llm.json is written (None = don't).

    Returns:
        the record written to the artifact.
    """
    from repro.models.layers import LinearSpec
    from repro.serve import ShardedRunner
    from repro.utils.rng import make_rng

    model = single(spec, "nets")
    single(spec, "geometries")
    backend_names = tuple(
        get_backend(name).name for name in spec.backends
    )
    harness = SweepHarness(spec)
    config = harness.config_for()
    profiles = [precision_profile(entry) for entry in spec.precisions]
    tokens = harness.input_size
    # Sharded serving re-verification checkpoints: short, mid and full
    # prefixes (deduplicated for tiny decode lengths).
    checkpoints = sorted(
        {1, max(1, tokens // 4), max(1, tokens // 2), tokens}
    )
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
                }
            )

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


#: ``python -m repro bench <spec>``: registered spec name -> (driver,
#: renderer).
BENCHMARKS = {
    "serving": (run_serving_benchmark, render_serving_benchmark),
    "backends": (run_backend_benchmark, render_backend_benchmark),
    "llm": (run_llm_benchmark, render_llm_benchmark),
    "pareto": (run_pareto_tune, render_pareto_tune),
    "paper": (run_paper_benchmark, render_paper_benchmark),
}
