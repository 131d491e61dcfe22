"""Command-line entry point.

Usage::

    python -m repro list                     # available experiments
    python -m repro run fig7                 # one experiment, full scale
    python -m repro run table2 --quick       # reduced parameters
    python -m repro run all --out results/   # every experiment
    python -m repro bench networks           # one registered benchmark
    python -m repro bench serving --quick    # spec -> BENCH_<spec>.json
                                             # (networks, serving,
                                             # faults, precision,
                                             # backends, llm)
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
from dataclasses import replace

from repro.errors import ReproError
from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.runtime.bench import BENCHMARKS
from repro.tune.spec import get_sweep, registered_sweeps


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
    bench = commands.add_parser(
        "bench",
        help=(
            "run one registered benchmark spec through its driver and "
            "write its results/BENCH_<spec>.json artifact"
        ),
    )
    bench.add_argument(
        "spec", help=f"benchmark spec ({', '.join(BENCHMARKS)})"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smaller width/resolution preset",
    )
    bench.add_argument(
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
            "validate every results/BENCH_*.json artifact parses, "
            "carries the common record fields (net, backend, "
            "precision, cycles) and holds its claims"
        ),
    )
    checker.add_argument(
        "results_dir",
        nargs="?",
        default="results",
        help="artifact directory (default: results/)",
    )
    return parser


def _bench(args) -> int:
    if args.spec not in BENCHMARKS:
        print(
            f"unknown benchmark spec {args.spec!r}; registered: "
            f"{', '.join(BENCHMARKS)}",
            file=sys.stderr,
        )
        return 2
    driver, render = BENCHMARKS[args.spec]
    spec = replace(get_sweep(args.spec), quick=args.quick)
    try:
        payload = driver(spec, out_dir=args.out)
    except ReproError as error:
        print(f"bench {args.spec} failed: {error}", file=sys.stderr)
        return 2
    print(render(payload))
    print(f"\nwrote {payload['artifact']}")
    return 0


def _tune(args) -> int:
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
    if args.command == "bench":
        return _bench(args)
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
        # headings.
        for command in ("bench", "tune"):
            print(f"\nsweep specs ({command}):")
            for spec in registered_sweeps():
                if (spec.name in BENCHMARKS) == (command == "bench"):
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
