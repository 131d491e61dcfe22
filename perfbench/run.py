"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload cnn-offline --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``cnn-offline``, ``llm-decode`` and ``cnn-serve`` (see
:mod:`perfbench.workloads`).  The program is imported from ``src/`` of
the same checkout; without it the benchmark exits with code 2 before
printing a result.

Standard output is a human-readable report followed, on its last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``.  With ``--trace 1`` the window is split: the first
half runs untraced, the second with spans around each layer's public
entry points, and the metrics are the per-layer ones; the spans, their
self-time reduction and the per-layer metrics are also written to
``perfbench/out/<workload>-seed<seed>-trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
# Import the benchmark as the ``perfbench`` package; its modules must
# not shadow top-level names from this script's own directory.
sys.path[:] = [entry for entry in sys.path
               if Path(entry or ".").resolve() != ROOT / "perfbench"]
sys.path.insert(0, str(ROOT))

from perfbench import host  # noqa: E402
from perfbench.refunit import NOMINAL_SECONDS, \
    ReferenceUnit  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.stats import (  # noqa: E402
    describe, in_ref_units, nearest_rank, ratio_of_medians, spread, tail,
)
from perfbench.stats import items_per_ref as bracketed_ratio  # noqa: E402

ENGINE_LINE = "tempus, 16x16 array, scale 0.25, 64x64 input, fused"

#: Gated end-to-end metrics and their units (BENCHMARK.json order).
END_TO_END = {
    "setup_s": "s",
    "items_per_ref": "items/ref",
    "slo_attain_frac": "ratio",
    "sim_cycles_per_item": "cycles",
    "sim_pj_per_item": "pJ",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units (BENCHMARK.json order).
PER_LAYER = {
    "lowering.compile_s": "s",
    "lowering.stages": "count",
    "executor.ms_per_item": "ms",
    "executor.macs_per_s": "MAC/s",
    "executor.batch_mean": "count",
    "backends.layer_cycles_calls": "count",
    "backends.layer_cycles_ms_per_item": "ms",
    "latency.burst_hits": "count",
    "latency.burst_misses": "count",
    "latency.burst_hit_rate": "ratio",
    "latency.burst_map_ms_per_item": "ms",
    "queue.wait_p50_ms": "ms",
    "queue.depth_hwm": "count",
    "queue.rejected": "count",
    "queue.shed": "count",
    "gateway.dispatch_p50_ms": "ms",
    "gateway.compute_p50_ms": "ms",
    "gateway.reassembly_p50_ms": "ms",
    "gateway.unattributed_p50_ms": "ms",
    "supervisor.restarts": "count",
    "supervisor.retries": "count",
    "supervisor.redispatched": "count",
    "supervisor.degraded_jobs": "count",
    "supervisor.worker_errors": "count",
    "serve.latency_tail_ms": "ms",
    "serve.latency_tail_pct": "%",
    "serve.latency_samples": "count",
    "loadgen.late_tail_ms": "ms",
    "host.items_per_s": "1/s",
    "host.latency_p50_ms": "ms",
    "ref.unit_ms": "ms",
    "ref.unit_ms_min": "ms",
    "ref.unit_ms_max": "ms",
    "trace.items_per_ref_untraced": "items/ref",
    "trace.items_per_ref_traced": "items/ref",
    "trace.overhead_frac": "ratio",
    "check.output_live_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src/`` only."""
    # The disk tier of the burst-map cache is configured from the
    # environment at import time; every run starts without it.
    os.environ.pop("REPRO_BURST_CACHE_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not src/")
    from perfbench import workloads

    return workloads


def p50_ms(values) -> float:
    return nearest_rank(values, 50.0) * 1e3 if values else 0.0


def paper_error(config) -> str:
    """The power model against the paper's Fig. 4 (16x16 INT8 arrays
    at 250 MHz).  Printed, never gated."""
    from repro.eval.paper import CLOCK_MHZ, FIG4_ARRAY_16X16
    from repro.profiling.energy import array_power_mw

    paper = FIG4_ARRAY_16X16["INT8"]
    binary = array_power_mw("binary", config.k, config.n, 8, CLOCK_MHZ)
    tub = array_power_mw("tub", config.k, config.n, 8, CLOCK_MHZ)
    cut = 100.0 * (1.0 - tub / binary)
    paper_binary = paper["binary_power_mw"]
    paper_tub = paper["tub_power_mw"]
    paper_cut = paper["power_reduction_pct"]
    return (
        f"model vs paper Fig. 4 ({config.k}x{config.n} INT8 @ "
        f"{CLOCK_MHZ:g} MHz): binary {binary:.2f} mW (paper "
        f"{paper_binary} mW, x{binary / paper_binary:.2f}), tub "
        f"{tub:.2f} mW (paper {paper_tub} mW, x{tub / paper_tub:.2f}), "
        f"reduction {cut:.1f}% (paper {paper_cut:g}%, "
        f"{cut - paper_cut:+.1f} pts)"
    )


def per_layer(workload, window, untraced, setup_trace, window_trace):
    """Per-layer metrics from the traced set-up and traced window."""
    setup_spans = setup_trace.summary()
    spans = window_trace.summary()

    def span(name, field):
        return spans.get(name, {}).get(field, 0.0)

    items = max(window.items, 1)
    if workload.in_process:
        busy = span("executor.run_batch", "total_s")
        ms_per_item = span("executor.run_batch", "self_s") / items * 1e3
    else:
        # Worker-side executor time, from each response's breakdown.
        busy = window.busy
        ms_per_item = window.busy / items * 1e3
    hits = workload.setup_cache["hits"] + window.cache["hits"]
    misses = workload.setup_cache["misses"] + window.cache["misses"]
    latency_tail = tail([value * 1e3 for value in window.latencies])
    late = ([value * 1e3 for value in window.late]
            if window.late else [0.0])
    refs = [value * 1e3 for value in untraced.ref_seconds
            + window.ref_seconds]
    phases = window.phases
    return {
        "lowering.compile_s": setup_spans.get(
            "runner.compile", {}).get("total_s", 0.0),
        "lowering.stages": len(workload.net.stages),
        "executor.ms_per_item": ms_per_item,
        "executor.macs_per_s": (
            workload.macs(window.items) / busy if busy else 0.0
        ),
        "executor.batch_mean": window.items / max(window.batches, 1),
        "backends.layer_cycles_calls": span(
            "backends.layer_cycles", "calls"),
        "backends.layer_cycles_ms_per_item": span(
            "backends.layer_cycles", "self_s") / items * 1e3,
        "latency.burst_hits": hits,
        "latency.burst_misses": misses,
        "latency.burst_hit_rate": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "latency.burst_map_ms_per_item": span(
            "latency.cached_burst_cycle_map", "self_s") / items * 1e3,
        "queue.wait_p50_ms": p50_ms(phases["queue_wait"]),
        "queue.depth_hwm": window.queue.get("depth_high_watermark", 0),
        "queue.rejected": window.queue.get("rejected", 0),
        "queue.shed": window.queue.get("shed", 0),
        "gateway.dispatch_p50_ms": p50_ms(phases["dispatch"]),
        "gateway.compute_p50_ms": p50_ms(phases["compute"]),
        "gateway.reassembly_p50_ms": p50_ms(phases["reassembly"]),
        "gateway.unattributed_p50_ms": p50_ms(phases["unattributed"]),
        "supervisor.restarts": window.health.get("restarts", 0),
        "supervisor.retries": window.health.get("retries", 0),
        "supervisor.redispatched": window.health.get("redispatched", 0),
        "supervisor.degraded_jobs": window.health.get(
            "degraded_jobs", 0),
        "supervisor.worker_errors": window.health.get(
            "worker_errors", 0),
        "serve.latency_tail_ms": latency_tail["value"],
        "serve.latency_tail_pct": latency_tail["pct"],
        "serve.latency_samples": latency_tail["count"],
        "loadgen.late_tail_ms": tail(late)["value"],
        "host.items_per_s": window.items / window.wall,
        "host.latency_p50_ms": p50_ms(window.latencies),
        "ref.unit_ms": statistics.median(refs),
        "ref.unit_ms_min": min(refs),
        "ref.unit_ms_max": max(refs),
        "trace.items_per_ref_untraced": items_per_ref(untraced),
        "trace.items_per_ref_traced": items_per_ref(window),
        "trace.overhead_frac": 1.0 - items_per_ref(window)
        / items_per_ref(untraced),
        "check.output_live_frac": workload.live_frac(),
    }


def items_per_ref(window) -> float:
    return bracketed_ratio(window.brackets)


def report(workload, window, setup_times, fingerprint, args, sim,
           end_to_end, extra_lines) -> list:
    """The human-readable report."""
    refs = [value * 1e3 for value in window.ref_seconds]
    sent = max(window.sent, 1)
    lines = [
        f"workload {workload.name}: {workload.model}, {workload.noun}s, "
        f"{workload.precision.upper()}, {ENGINE_LINE}",
        "host " + " ".join(f"{key}={value}"
                           for key, value in fingerprint.items()),
        f"seed {args.seed} (workload inputs and arrivals), "
        f"seconds {args.seconds:g}, trace {args.trace}",
        f"reference unit: {describe(refs, unit='ms')}, min "
        f"{min(refs):.3f}ms max {max(refs):.3f}ms, IQR/median "
        f"{spread(refs) if len(refs) > 1 else 0.0:.4f}",
        f"set-up: wall median {statistics.median(setup_times):.4f}s of "
        f"{len(setup_times)} ("
        + " ".join(f"{value:.4f}" for value in setup_times)
        + f"); setup_s = median set-up / bracketing reference unit x "
        f"{NOMINAL_SECONDS:g}s nominal",
    ]
    lines.append("end-to-end metrics (gated ones marked *):")
    printed = dict(end_to_end)
    printed["throughput_per_s"] = window.items / window.wall
    printed["latency_p50_ms"] = p50_ms(window.latencies)
    printed["output_live_frac"] = workload.live_frac()
    units = dict(END_TO_END, throughput_per_s="1/s",
                 latency_p50_ms="ms", output_live_frac="ratio")
    for key in ("setup_s", "items_per_ref", "throughput_per_s",
                "latency_p50_ms", "slo_attain_frac",
                "sim_cycles_per_item", "sim_pj_per_item",
                "output_live_frac", "ok_frac", "peak_rss_mb"):
        mark = "*" if key in END_TO_END else " "
        lines.append(f"  {mark} {key:<20} {printed[key]:.6g} {units[key]}")
    lines.append(
        f"    {workload.noun} latency: "
        f"{describe(window.latencies, 1e3, 'ms')}; slo "
        f"{workload.slo_ms:g}ms met by {window.within_slo}/{sent}"
    )
    lines.append(
        f"    host.items_per_s {window.items / window.wall:.4f} raw "
        f"beside items_per_ref {end_to_end['items_per_ref']:.4f} "
        f"({len(window.brackets)} bracketed units; unpaired ratio of "
        f"medians "
        f"{ratio_of_medians(window.ref_seconds, window.item_seconds):.4f})"
    )
    if workload.name == "cnn-serve":
        lines.append(
            f"    generator lateness: "
            f"{describe(window.late, 1e3, 'ms')}"
        )
        for phase, values in window.phases.items():
            lines.append(f"    {phase}: {describe(values, 1e3, 'ms')}")
        lines.append(
            f"    batches {window.batches}, queue depth high-water "
            f"{window.queue.get('depth_high_watermark', 0)}"
        )
        if workload.leaked or workload.unclean:
            lines.append(f"    UNCLEAN STOP: {workload.unclean} workers,"
                         f" leaked {workload.leaked}")
    lines.append(
        f"    simulated: {sim['cycles']:.6g} cycles and "
        f"{sim['pj']:.6g} pJ per {workload.noun}; output_live_frac "
        f"{workload.live_frac():.4f} beside ok_frac "
        f"{end_to_end['ok_frac']:.4f}"
        + (" (identity checked over all-zero outputs)"
           if workload.live_frac() == 0.0 else "")
    )
    lines.extend(extra_lines)
    return lines


def run(args) -> dict:
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r} (have: "
            f"{', '.join(workloads.WORKLOADS)})"
        )
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    ref = ReferenceUnit()
    for _ in range(3):
        ref.run()
    workload = workloads.WORKLOADS[args.workload](args.seed, ref)
    setup_trace = Tracer()
    setup_times = []
    setup_brackets = []
    try:
        # One untimed set-up first: lazy imports inside the program
        # are not set-up work.
        workload.setup()
        before = ref.run()
        for index in range(workload.setups):
            traced = args.trace and index == workload.setups - 1
            seconds = workload.setup(setup_trace if traced else None)
            after = ref.run()
            setup_times.append(seconds)
            setup_brackets.append((before, after, seconds))
            before = after
        if args.trace:
            # Untraced first half for the end-to-end numbers, traced
            # second half for the per-layer ones.
            timed = workload.measure(args.seconds / 2)
            window_trace = Tracer()
            window = workload.measure(args.seconds / 2, window_trace)
        else:
            timed = window = workload.measure(args.seconds)
        workload.verify()
    finally:
        workload.close()
    sim = workload.sim()
    end_to_end = {
        # Set-up time at the reference unit's nominal speed: each
        # set-up is bracketed by reference units like the timed units,
        # so host drift between runs cancels out of the gated figure.
        "setup_s": in_ref_units(setup_brackets) * NOMINAL_SECONDS,
        "items_per_ref": items_per_ref(timed),
        "slo_attain_frac": timed.within_slo / max(timed.sent, 1),
        "sim_cycles_per_item": sim["cycles"],
        "sim_pj_per_item": sim["pj"],
        "ok_frac": workload.tally.ok_frac,
        "peak_rss_mb": host.peak_rss_mb(
            include_children=not workload.in_process
        ),
    }
    fingerprint = host.fingerprint(ROOT)
    extra = [paper_error(workload.net.config)]
    if args.trace:
        layers = per_layer(workload, window, timed, setup_trace,
                           window_trace)
        extra.append("per-layer metrics (traced window):")
        extra.extend(f"    {key:<36} {value:.6g} {PER_LAYER[key]}"
                     for key, value in layers.items())
        path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace.json"
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "host": fingerprint,
            "per_layer": layers,
            "span_summary": {
                "setup": setup_trace.summary(),
                "window": window_trace.summary(),
            },
            "spans": {
                "setup": setup_trace.export(),
                "window": window_trace.export(),
            },
        }, indent=1))
        extra.append(f"spans written to {path.relative_to(ROOT)}")
        metrics = {key: {"value": float(layers[key]), "unit": unit}
                   for key, unit in PER_LAYER.items()}
    else:
        metrics = {key: {"value": float(end_to_end[key]), "unit": unit}
                   for key, unit in END_TO_END.items()}
    for line in report(workload, timed, setup_times, fingerprint, args,
                       sim, end_to_end, extra):
        print(line)
    tally = workload.tally
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        result = run(args)
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2
    print(f"run took {time.perf_counter() - started:.1f}s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
