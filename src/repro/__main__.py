"""Command-line entry point.

Usage::

    python -m repro list                     # available experiments
    python -m repro run fig7                 # one experiment, full scale
    python -m repro run table2 --quick       # reduced parameters
    python -m repro run all --out results/   # every experiment
    python -m repro bench backends           # one registered benchmark
    python -m repro bench serving --quick    # spec -> BENCH_<spec>.json
                                             # (serving, backends,
                                             # llm, pareto)
    python -m repro bench pareto             # design-space autotuner:
                                             # Pareto frontier over
                                             # backend x precision x
                                             # geometry
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
    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            driver = EXPERIMENTS[experiment_id]
            summary = (driver.__doc__ or "").strip().splitlines()[0]
            print(f"{experiment_id:12s} {summary}")
        # Every registered sweep is a `bench` spec.
        print("\nsweep specs (bench):")
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
