"""Command-line entry point.

Usage::

    python -m repro list                     # available experiments
    python -m repro run fig7                 # one experiment, full scale
    python -m repro run table2 --quick       # reduced parameters
    python -m repro run all --out results/   # every experiment
    python -m repro serve-bench --quick      # batched network inference
    python -m repro serve-bench --workers 4  # sharded serving sweep
    python -m repro serve-bench --precision int4 --workers 2
                                             # low-precision serving
    python -m repro serve-bench --backend tubgemm --precision int4 --workers 2
                                             # serve on another backend
    python -m repro serve-bench --backend tugemm
                                             # binary-vs-backend sweep
    python -m repro serve-bench --workers 2 --fault-rate 0.15
                                             # chaos serving (seeded
                                             # deterministic faults)
    python -m repro serve-bench --llm --tokens 64
                                             # autoregressive LLM
                                             # decode: per-token
                                             # latency on all backends
    python -m repro tune --net mobilenet_v2  # design-space autotuner:
                                             # Pareto frontier over
                                             # backend x precision x
                                             # geometry
    python -m repro tune --slo-pj 2e6 --geometries 8x8 16x16
                                             # tune against an energy
                                             # SLO on a custom grid
    python -m repro check-results results/   # validate BENCH artifacts
"""

from __future__ import annotations

import argparse
import sys

from repro.eval.experiments import EXPERIMENTS, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Tempus Core reproduction: regenerate the paper's tables and "
            "figures"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser(
        "list",
        help="list available experiments and registered sweep specs",
    )
    runner = commands.add_parser("run", help="run one experiment (or all)")
    runner.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(sorted(EXPERIMENTS))}) or 'all'",
    )
    runner.add_argument(
        "--quick",
        action="store_true",
        help="reduced parameters (scaled models, fewer sweep points)",
    )
    runner.add_argument(
        "--out",
        default="results",
        help="artifact directory (default: results/)",
    )
    server = commands.add_parser(
        "serve-bench",
        help=(
            "batched full-network inference benchmark "
            "(writes BENCH_networks.json)"
        ),
    )
    server.add_argument(
        "--models",
        nargs="+",
        default=None,
        help="zoo model names (default: mobilenet_v2 resnet18)",
    )
    server.add_argument(
        "--batch",
        type=int,
        default=None,
        help=(
            "images per network run (default: 4; single-process "
            "benchmark only — with --workers use --requests)"
        ),
    )
    server.add_argument(
        "--quick",
        action="store_true",
        help="smaller width/resolution preset",
    )
    server.add_argument(
        "--no-schedule",
        action="store_true",
        help="disable burst-aware tile scheduling",
    )
    server.add_argument(
        "--precision",
        default="int8",
        metavar="PROFILE",
        help=(
            "per-layer precision profile: int8, int4, int2, mixed "
            "(INT8 first/last, INT4 interior), mixed_int2 "
            "(default: int8)"
        ),
    )
    server.add_argument(
        "--backend",
        default="tempus",
        metavar="NAME",
        help=(
            "compute backend: any registered name (binary, tempus, "
            "tugemm, tubgemm, ...) or a first/interior/last mix like "
            "binary/tubgemm/binary (mixes require --workers).  With "
            "--workers the serving sweep runs on it; without, a "
            "non-default name benchmarks it against the binary "
            "baseline (writes BENCH_backends.json). (default: tempus)"
        ),
    )
    server.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "benchmark the sharded serving runtime instead: sweep "
            "worker counts up to N (writes BENCH_serving.json)"
        ),
    )
    server.add_argument(
        "--requests",
        type=int,
        default=32,
        help=(
            "single-image requests per timed serving run "
            "(default: 32; only with --workers)"
        ),
    )
    server.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help=(
            "dynamic-batching coalescing limit "
            "(default: 8; only with --workers)"
        ),
    )
    server.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        metavar="P",
        help=(
            "inject deterministic faults (crash/slow/transient error) "
            "into the shard workers with this per-(job, attempt) "
            "probability; every point is still verified bit-identical "
            "to the single-process reference (default: 0; only with "
            "--workers)"
        ),
    )
    server.add_argument(
        "--fault-seed",
        type=int,
        default=110,
        metavar="SEED",
        help=(
            "seed of the deterministic fault plan, so chaos runs "
            "replay exactly (default: 110; only with "
            "--fault-rate)"
        ),
    )
    server.add_argument(
        "--transport",
        choices=("shm", "pickle"),
        default=None,
        help=(
            "how batch/result tensors cross the worker boundary: "
            "shared-memory segments or pickled queue messages "
            "(default: shm where available; only with --workers)"
        ),
    )
    server.add_argument(
        "--llm",
        action="store_true",
        help=(
            "benchmark token-by-token autoregressive decode of the "
            "extension transformer block instead: growing-sequence "
            "GEMM shapes on every registered backend x int8/int4/int2 "
            "with per-token latency percentiles (writes "
            "BENCH_llm.json; --workers caps the sharded "
            "re-verification pool)"
        ),
    )
    server.add_argument(
        "--tokens",
        type=int,
        default=None,
        metavar="T",
        help=(
            "decode length for --llm (default: the preset input size "
            "— 64 full, 32 quick)"
        ),
    )
    server.add_argument(
        "--out",
        default="results",
        help="artifact directory (default: results/)",
    )
    tuner = commands.add_parser(
        "tune",
        help=(
            "design-space autotuner: Pareto search over backend x "
            "precision x array geometry against a cycle/energy SLO "
            "(writes BENCH_pareto.json)"
        ),
    )
    tuner.add_argument(
        "--net",
        default="mobilenet_v2",
        help="zoo model to tune for (default: mobilenet_v2)",
    )
    tuner.add_argument(
        "--backends",
        nargs="+",
        default=None,
        metavar="NAME",
        help=(
            "backend names / first-interior-last mixes to consider "
            "(default: binary tempus tubgemm binary/tubgemm/binary)"
        ),
    )
    tuner.add_argument(
        "--precisions",
        nargs="+",
        default=None,
        metavar="PROFILE",
        help=(
            "precision profiles to consider "
            "(default: int8 int4 mixed)"
        ),
    )
    tuner.add_argument(
        "--geometries",
        nargs="+",
        default=None,
        metavar="KxN",
        help=(
            "array geometries to consider, e.g. 8x8 16x4 16x16 32x32 "
            "(default: that grid)"
        ),
    )
    tuner.add_argument(
        "--slo-cycles",
        type=float,
        default=None,
        metavar="CYCLES",
        help="cycles-per-image budget a design must meet",
    )
    tuner.add_argument(
        "--slo-pj",
        type=float,
        default=None,
        metavar="PJ",
        help="pJ-per-image budget a design must meet",
    )
    tuner.add_argument(
        "--batch",
        type=int,
        default=1,
        help="images per evaluation run (default: 1)",
    )
    tuner.add_argument(
        "--quick",
        action="store_true",
        help="smaller width/resolution preset",
    )
    tuner.add_argument(
        "--no-schedule",
        action="store_true",
        help="disable burst-aware tile scheduling",
    )
    tuner.add_argument(
        "--out",
        default="results",
        help="artifact directory (default: results/)",
    )
    checker = commands.add_parser(
        "check-results",
        help=(
            "validate every results/BENCH_*.json artifact parses and "
            "carries the common record fields (net, backend, "
            "precision, cycles)"
        ),
    )
    checker.add_argument(
        "results_dir",
        nargs="?",
        default="results",
        help="artifact directory (default: results/)",
    )
    return parser


def _worker_sweep(limit: int) -> tuple:
    """Powers of two up to the requested pool size: 4 -> (1, 2, 4)."""
    counts = []
    count = 1
    while count < limit:
        counts.append(count)
        count *= 2
    counts.append(limit)
    return tuple(dict.fromkeys(counts))


def _serve_bench(args) -> int:
    # Imported here: the runtime pulls in the model zoo + scheduling
    # stack, which `repro list` does not need.
    from repro.errors import ReproError
    from repro.runtime.bench import (
        DEFAULT_LLM_WORKERS,
        DEFAULT_MODELS,
        DEFAULT_SERVING_MODELS,
        render_backend_benchmark,
        render_benchmark,
        render_llm_benchmark,
        render_serving_benchmark,
        run_backend_benchmark,
        run_llm_benchmark,
        run_network_benchmark,
        run_serving_benchmark,
    )

    try:
        # Canonicalize the backend spec once (case-insensitive names,
        # "first/interior/last" mixes) so dispatch below compares
        # canonical names, not raw CLI spellings.
        from repro.runtime.backends import backend_profile

        backend = backend_profile(args.backend)
        fault_rate = args.fault_rate if args.fault_rate is not None else 0.0
        if not 0.0 <= fault_rate <= 1.0:
            print(
                "serve-bench failed: --fault-rate must be in [0, 1]",
                file=sys.stderr,
            )
            return 2
        if fault_rate > 0.0 and args.workers is None:
            print(
                "serve-bench failed: --fault-rate injects faults into "
                "the sharded serving runtime; add --workers N",
                file=sys.stderr,
            )
            return 2
        if args.workers is None and args.transport:
            print(
                "serve-bench failed: --transport configures the "
                "sharded serving runtime; add --workers N",
                file=sys.stderr,
            )
            return 2
        if args.tokens is not None and not args.llm:
            print(
                "serve-bench failed: --tokens sizes the autoregressive "
                "decode; add --llm",
                file=sys.stderr,
            )
            return 2
        if args.llm:
            unsupported = [
                flag
                for flag, value in (
                    ("--models", args.models),
                    ("--batch", args.batch),
                    ("--fault-rate", args.fault_rate or None),
                    ("--transport", args.transport),
                )
                if value
            ]
            if unsupported:
                print(
                    "serve-bench failed: "
                    f"{'/'.join(unsupported)} do(es) not apply to the "
                    "--llm decode scenario",
                    file=sys.stderr,
                )
                return 2
            if not backend.is_uniform:
                print(
                    "serve-bench failed: --llm sweeps every registered "
                    "backend; drop the mixed --backend profile",
                    file=sys.stderr,
                )
                return 2
            if args.tokens is not None and args.tokens < 1:
                print(
                    "serve-bench failed: --tokens must be >= 1",
                    file=sys.stderr,
                )
                return 2
            if args.workers is not None and args.workers < 1:
                print(
                    "serve-bench failed: --workers must be >= 1",
                    file=sys.stderr,
                )
                return 2
            payload = run_llm_benchmark(
                tokens=args.tokens,
                quick=args.quick,
                scheduling=not args.no_schedule,
                sharded_workers=(
                    _worker_sweep(args.workers)
                    if args.workers is not None
                    else DEFAULT_LLM_WORKERS
                ),
                out_dir=args.out,
            )
            rendered = render_llm_benchmark(payload)
            print(rendered)
            if "artifact" in payload:
                print(f"\nwrote {payload['artifact']}")
            return 0
        if args.workers is not None:
            if args.workers < 1:
                print(
                    "serve-bench failed: --workers must be >= 1",
                    file=sys.stderr,
                )
                return 2
            if args.batch is not None:
                print(
                    "serve-bench failed: --batch applies to the "
                    "single-process benchmark; with --workers size "
                    "the request stream via --requests",
                    file=sys.stderr,
                )
                return 2
            models = (
                tuple(args.models)
                if args.models
                else DEFAULT_SERVING_MODELS
            )
            payload = run_serving_benchmark(
                models=models,
                worker_counts=_worker_sweep(args.workers),
                requests=args.requests,
                quick=args.quick,
                scheduling=not args.no_schedule,
                max_batch=args.max_batch,
                precision=args.precision,
                engine=backend.describe(),
                fault_rate=fault_rate,
                fault_seed=args.fault_seed,
                transport=args.transport,
                out_dir=args.out,
            )
            rendered = render_serving_benchmark(payload)
        elif not backend.is_uniform:
            print(
                "serve-bench failed: the single-process backend "
                f"comparison sweeps registered backends; benchmark a "
                f"mixed profile like {backend.describe()!r} through "
                "the serving driver (add --workers N)",
                file=sys.stderr,
            )
            return 2
        elif backend.describe() != "tempus":
            # A non-default backend choice benchmarks that backend
            # against the binary baseline at the requested precision.
            models = (
                tuple(args.models)
                if args.models
                else DEFAULT_SERVING_MODELS
            )
            name = backend.describe()
            backends = (
                ("binary",) if name == "binary" else ("binary", name)
            )
            payload = run_backend_benchmark(
                models=models,
                backends=backends,
                precisions=(args.precision,),
                batch=args.batch if args.batch is not None else 4,
                quick=args.quick,
                scheduling=not args.no_schedule,
                out_dir=args.out,
            )
            rendered = render_backend_benchmark(payload)
        else:
            models = tuple(args.models) if args.models else DEFAULT_MODELS
            payload = run_network_benchmark(
                models=models,
                batch=args.batch if args.batch is not None else 4,
                quick=args.quick,
                scheduling=not args.no_schedule,
                precision=args.precision,
                out_dir=args.out,
            )
            rendered = render_benchmark(payload)
    except ReproError as error:
        print(f"serve-bench failed: {error}", file=sys.stderr)
        return 2
    print(rendered)
    if "artifact" in payload:
        print(f"\nwrote {payload['artifact']}")
    return 0


def _tune(args) -> int:
    from repro.errors import ReproError
    from repro.tune.autotune import Slo, render_pareto_tune, \
        run_pareto_tune
    from repro.tune.spec import (
        DEFAULT_TUNE_BACKENDS,
        DEFAULT_TUNE_GEOMETRIES,
        DEFAULT_TUNE_PRECISIONS,
    )

    try:
        payload = run_pareto_tune(
            net=args.net,
            backends=(
                tuple(args.backends)
                if args.backends
                else DEFAULT_TUNE_BACKENDS
            ),
            precisions=(
                tuple(args.precisions)
                if args.precisions
                else DEFAULT_TUNE_PRECISIONS
            ),
            geometries=(
                tuple(args.geometries)
                if args.geometries
                else DEFAULT_TUNE_GEOMETRIES
            ),
            slo=Slo(
                max_cycles_per_image=args.slo_cycles,
                max_pj_per_image=args.slo_pj,
            ),
            batch=args.batch,
            quick=args.quick,
            scheduling=not args.no_schedule,
            out_dir=args.out,
        )
    except ReproError as error:
        print(f"tune failed: {error}", file=sys.stderr)
        return 2
    print(render_pareto_tune(payload))
    if "artifact" in payload:
        print(f"\nwrote {payload['artifact']}")
    return 0


def _check_results(args) -> int:
    from repro.errors import ReproError
    from repro.eval.results_schema import check_results_dir, render_check

    try:
        checked = check_results_dir(args.results_dir)
    except ReproError as error:
        print(f"check-results failed: {error}", file=sys.stderr)
        return 2
    print(render_check(checked))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "serve-bench":
        return _serve_bench(args)
    if args.command == "check-results":
        return _check_results(args)
    if args.command == "tune":
        return _tune(args)
    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            driver = EXPERIMENTS[experiment_id]
            summary = (driver.__doc__ or "").strip().splitlines()[0]
            print(f"{experiment_id:12s} {summary}")
        # Registered declarative sweeps (the benchmark drivers' and
        # the autotuner's default grids) ride along under their own
        # heading.
        from repro.tune.spec import registered_sweeps

        print()
        print("sweep specs (serve-bench / tune):")
        for spec in registered_sweeps():
            print(f"{spec.name:12s} {spec.description}")
            print(f"{'':12s}   {spec.describe_axes()}")
        return 0

    ids = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for experiment_id in ids:
        if experiment_id not in EXPERIMENTS:
            print(
                f"unknown experiment {experiment_id!r}; try "
                f"'python -m repro list'",
                file=sys.stderr,
            )
            return 2
        result = run_experiment(
            experiment_id, quick=args.quick, artifact_dir=args.out
        )
        print(result.render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
