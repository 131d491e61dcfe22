"""The benchmark's three workloads, driven through the program's public
API.

* ``cnn-offline`` — resnet18 closed loop: ``NetworkRunner.run`` on one
  seeded batch of 8, over and over, in one process.
* ``llm-decode`` — tiny_llm at INT4: 64-token autoregressive decode at
  batch 1, one ``NetworkRunner.run`` per step.
* ``cnn-serve`` — mobilenet_v2 behind ``ServingGateway`` over a
  one-worker ``ShardedRunner``: open-loop Poisson arrivals at a fixed
  rate, submitted from this process's single generator thread.

Every workload sets up from a cleared burst-map cache with the disk
tier off, brackets each timed unit of work with reference units run
outside the timed interval (see :func:`perfbench.stats.items_per_ref`),
and checks every output against a reference path outside the timed
interval.
"""

from __future__ import annotations

import bisect
import threading
import time
from multiprocessing import resource_tracker

import numpy as np

from perfbench import host
from perfbench.stats import Tally, live_fraction
from repro.core import scheduling as core_scheduling
from repro.core.latency import burst_map_cache_stats, \
    clear_burst_map_cache, configure_burst_map_disk_cache
from repro.nvdla.config import CoreConfig
from repro.profiling.energy import network_energy
from repro.runtime import backends as runtime_backends
from repro.runtime.backends import ComputeBackend, get_backend
from repro.runtime.executor import BatchExecutor
from repro.runtime.runner import NetworkRunner
from repro.serve import ShardedRunner
from repro.serve.gateway import ServingGateway
from repro.serve.queue import RequestQueue

#: The FULL sweep preset: zoo width multiplier and input resolution.
SCALE = 0.25
INPUT_SIZE = 64
ENGINE = "tempus"

#: Gateway latency phases, plus what they leave unattributed.
PHASES = ("queue_wait", "dispatch", "compute", "reassembly",
          "unattributed")

#: Supervisor health counters reported per stream.
HEALTH = ("restarts", "retries", "redispatched", "degraded_jobs",
          "worker_errors")


def trace_layers(tracer, compile_only: bool = False) -> None:
    """Install spans around the layers' public entry points."""
    tracer.wrap(NetworkRunner, "compile", "runner.compile")
    if compile_only:
        return
    tracer.wrap(BatchExecutor, "run_batch", "executor.run_batch")
    tracer.wrap(ComputeBackend, "layer_cycles", "backends.layer_cycles")
    # Imported by name into both callers, so wrap it in each.
    for module in (runtime_backends, core_scheduling):
        tracer.wrap(
            module,
            "cached_burst_cycle_map",
            "latency.cached_burst_cycle_map",
        )


def burst_counts() -> dict:
    stats = burst_map_cache_stats()
    return {"hits": stats["hits"], "misses": stats["misses"]}


class Window:
    """What one measured window observed."""

    def __init__(self) -> None:
        self.item_seconds: "list[float]" = []
        self.ref_seconds: "list[float]" = []
        # (reference unit before, reference unit after, item time) per
        # timed unit: see perfbench.stats.items_per_ref.
        self.brackets: "list[tuple]" = []
        self.latencies: "list[float]" = []
        self.items = 0
        self.sent = 0
        self.within_slo = 0
        self.busy = 0.0
        self.wall = 0.0
        self.batches = 0
        self.cache = {"hits": 0, "misses": 0}
        self.late: "list[float]" = []
        self.phases: "dict[str, list]" = {key: [] for key in PHASES}
        self.queue: dict = {}
        self.health: dict = {}


class Workload:
    """Common set-up, checking and simulated-plane reporting."""

    name = ""
    model = ""
    noun = "item"
    precision = "int8"
    #: Latency limit an item must meet to count towards
    #: ``slo_attain_frac``, in ms.
    slo_ms = 0.0
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5
    #: False when the executor runs in another process, where this
    #: process cannot record spans.
    in_process = True

    def __init__(self, seed: int, ref) -> None:
        self.seed = int(seed)
        self.ref = ref
        self.tally = Tally()
        self.outputs: "list[np.ndarray]" = []
        self.config = CoreConfig()
        self.setup_cache = {"hits": 0, "misses": 0}

    def new_runner(self, fused: bool = True) -> NetworkRunner:
        return NetworkRunner(
            self.config,
            engine=ENGINE,
            scale=SCALE,
            input_size=INPUT_SIZE,
            precision=self.precision,
            fused=fused,
        )

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    # -- phases --------------------------------------------------------
    def setup(self, tracer=None) -> float:
        """Clear the in-memory burst-map cache (disk tier off), then
        build until ready for the first timed item; returns seconds."""
        configure_burst_map_disk_cache(None)
        clear_burst_map_cache()
        if tracer is not None:
            trace_layers(tracer, compile_only=not self.in_process)
        try:
            started = time.perf_counter()
            self._build()
            elapsed = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.restore()
        self.setup_cache = self._setup_cache()
        return elapsed

    def _setup_cache(self) -> dict:
        return burst_counts()

    def measure(self, seconds: float, tracer=None) -> Window:
        if tracer is not None and self.in_process:
            trace_layers(tracer)
        before = burst_counts()
        try:
            window = self._measure(seconds, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        if self.in_process:
            after = burst_counts()
            window.cache = {key: after[key] - before[key]
                            for key in before}
        return window

    def verify(self) -> None:
        """Checks run once per run, outside the timed window."""

    def close(self) -> None:
        """Release what the workload holds."""

    # -- simulated plane -----------------------------------------------
    def sim(self) -> dict:
        """Simulated cycles and energy per item (exact)."""
        cycles = self.cycles_per_item()
        array = get_backend(ENGINE).array
        energy = network_energy(array, cycles, self.net.config)
        return {"cycles": cycles, "pj": energy["pj_per_image"]}

    def macs(self, items: int) -> float:
        return float(self.net.macs_per_image) * items

    def live_frac(self) -> float:
        return live_fraction(self.outputs)


class CnnOffline(Workload):
    name = "cnn-offline"
    model = "resnet18"
    noun = "image"
    batch = 8
    slo_ms = 2000.0
    setups = 7

    def _build(self) -> None:
        self.runner = self.new_runner()
        net = self.net = self.runner.compile(self.model)
        self.images = net.precision.random_array(
            self.rng(1), (self.batch,) + tuple(net.input_shape)
        )
        # The first batch is both the warm-up and the result every
        # timed batch is checked against.
        self.first = self.runner.run(self.model, self.images)
        self.outputs = [self.first.output]

    def _measure(self, seconds: float, tracer) -> Window:
        window = Window()
        window.ref_seconds.append(self.ref.run())
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            begin = time.perf_counter()
            result = self.runner.run(self.model, self.images)
            elapsed = time.perf_counter() - begin
            window.ref_seconds.append(self.ref.run())
            window.brackets.append(
                (*window.ref_seconds[-2:], elapsed / self.batch)
            )
            ok = bool(
                np.array_equal(result.output, self.first.output)
                and result.conv_cycles == self.first.conv_cycles
            )
            self.tally.record(ok, self.batch)
            window.items += self.batch
            window.sent += self.batch
            window.batches += 1
            window.busy += elapsed
            window.item_seconds.append(elapsed / self.batch)
            window.latencies.extend([elapsed] * self.batch)
            if ok and elapsed * 1e3 <= self.slo_ms:
                window.within_slo += self.batch
        window.wall = window.busy
        return window

    def verify(self) -> None:
        """One batch through the real cores; a mismatch fails every
        image, since every timed batch was checked against it."""
        oracle = self.runner.run_per_image(self.model, self.images)
        ok = bool(
            np.array_equal(oracle.output, self.first.output)
            and oracle.conv_cycles == self.first.conv_cycles
        )
        if not ok:
            self.tally.ok = 0
        self.tally.record(ok, self.batch)

    def cycles_per_item(self) -> float:
        return self.first.conv_cycles / self.batch


class LlmDecode(Workload):
    name = "llm-decode"
    model = "tiny_llm"
    noun = "token"
    precision = "int4"
    tokens = 64
    slo_ms = 50.0
    setups = 7

    def _build(self) -> None:
        self.runner = self.new_runner()
        net = self.net = self.runner.compile(self.model)
        self.stream = net.precision.random_array(
            self.rng(2), (1, net.input_shape[0], self.tokens, 1)
        )
        # The first decode is both the warm-up and the result every
        # timed decode is checked against, step by step.
        self.reference, _ = self._decode()
        self.outputs = [result.output for result in self.reference]

    def _decode(self) -> "tuple[list, list]":
        results = []
        step_seconds = []
        for step in range(1, self.tokens + 1):
            begin = time.perf_counter()
            result = self.runner.run(
                self.model, self.stream[:, :, :step, :]
            )
            step_seconds.append(time.perf_counter() - begin)
            results.append(result)
        return results, step_seconds

    def _measure(self, seconds: float, tracer) -> Window:
        window = Window()
        window.ref_seconds.append(self.ref.run())
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            results, step_seconds = self._decode()
            decode = sum(step_seconds)
            window.ref_seconds.append(self.ref.run())
            window.brackets.append(
                (*window.ref_seconds[-2:], decode / self.tokens)
            )
            for mine, result, elapsed in zip(
                self.reference, results, step_seconds
            ):
                ok = bool(
                    np.array_equal(result.output, mine.output)
                    and result.conv_cycles == mine.conv_cycles
                )
                self.tally.record(ok)
                if ok and elapsed * 1e3 <= self.slo_ms:
                    window.within_slo += 1
            window.items += self.tokens
            window.sent += self.tokens
            window.batches += self.tokens
            window.busy += decode
            window.item_seconds.append(decode / self.tokens)
            window.latencies.extend(step_seconds)
        window.wall = window.busy
        return window

    def checkpoints(self) -> tuple:
        return tuple(sorted(
            {1, self.tokens // 4, self.tokens // 2, self.tokens}
        ))

    def verify(self) -> None:
        """The first decode's steps at the first token and the 1/4,
        1/2 and full prefixes, against the real cores.  A mismatch
        fails every step, since every step was checked against the
        first decode."""
        all_ok = True
        for step in self.checkpoints():
            oracle = self.runner.run_per_image(
                self.model, self.stream[:, :, :step, :]
            )
            mine = self.reference[step - 1]
            ok = bool(
                np.array_equal(oracle.output, mine.output)
                and oracle.conv_cycles == mine.conv_cycles
            )
            all_ok &= ok
            self.tally.record(ok)
        if not all_ok:
            self.tally.ok = 0

    def cycles_per_item(self) -> float:
        total = sum(result.conv_cycles for result in self.reference)
        return total / self.tokens

    def macs(self, items: int) -> float:
        per_token = sum(
            stage.layer.out_features * stage.layer.in_features
            for stage in self.net.stages
        )
        # Step t recomputes the whole t-token prefix.
        per_decode = per_token * self.tokens * (self.tokens + 1) / 2
        return per_decode * items / self.tokens


class CnnServe(Workload):
    name = "cnn-serve"
    model = "mobilenet_v2"
    noun = "request"
    slo_ms = 50.0
    #: Offered rate, requests per second.
    rate = 25.0
    #: Distinct seeded images the requests draw from.
    pool = 32
    setups = 5
    in_process = False

    def __init__(self, seed: int, ref) -> None:
        super().__init__(seed, ref)
        self.runner: "ShardedRunner | None" = None
        self.shm_before = host.shm_segments()
        self.leaked: "list[str]" = []
        self.unclean = 0
        self.expected = None
        self.streams = 0

    def setup(self, tracer=None) -> float:
        self._stop()
        return super().setup(tracer)

    def _build(self) -> None:
        self.runner = ShardedRunner(
            workers=1,
            config=self.config,
            engine=ENGINE,
            scale=SCALE,
            input_size=INPUT_SIZE,
            precision=self.precision,
            fused=True,
        )
        net = self.net = self.runner.compile(self.model)
        self.images = net.precision.random_array(
            self.rng(3), (self.pool,) + tuple(net.input_shape)
        )
        # Start the worker and push one request through a warm-up
        # stream; the runner stays warm for the measured streams.
        gateway = ServingGateway(self.runner, self.model)
        gateway.submit(self.images[0]).result(timeout=60)
        self.warm = gateway.finish()

    def _setup_cache(self) -> dict:
        counts = burst_counts()
        return {key: counts[key] + self.warm.cache.get(key, 0)
                for key in counts}

    def _stop(self) -> None:
        """Stop the pool.  A worker that did not exit with code 0, or
        a segment left in /dev/shm, is one failed operation."""
        runner = self.runner
        if runner is None:
            return
        self.runner = None
        supervisor = runner.supervisor
        processes = [] if supervisor is None else supervisor.processes
        runner.stop()
        clean = all(
            not process.is_alive() and process.exitcode == 0
            for process in processes
        )
        leaked = host.shm_segments() - self.shm_before
        self.leaked = sorted(set(self.leaked) | leaked)
        self.unclean += int(not clean)
        self.tally.record(clean and not leaked)

    def close(self) -> None:
        self._stop()
        # The shm transport starts multiprocessing's resource tracker;
        # stop it and wait for it, so no process outlives the run.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    def schedule(self, seconds: float, stream: int):
        """Poisson arrivals conditioned on their count: ``rate x
        seconds`` uniform due times, sorted, each with a seeded pool
        image."""
        rng = self.rng(4, stream)
        count = max(int(round(self.rate * seconds)), 1)
        due = np.sort(rng.uniform(0.0, seconds, count))
        picks = rng.integers(0, self.pool, count)
        return due, picks

    def _measure(self, seconds: float, tracer) -> Window:
        self.streams += 1
        due, picks = self.schedule(seconds, self.streams)
        window = Window()
        # (start, end) of every reference unit, in order.
        ref_spans: "list[tuple]" = []

        def run_ref() -> None:
            started = time.perf_counter()
            window.ref_seconds.append(self.ref.run())
            ref_spans.append((started, time.perf_counter()))

        for _ in range(3):
            run_ref()
        # Reference units run only when one surely fits before the
        # next arrival, so they never make the generator late.
        budget = 2.0 * max(window.ref_seconds)
        if tracer is not None:
            tracer.wrap(RequestQueue, "next_batch", "queue.next_batch")
        gateway = ServingGateway(self.runner, self.model)
        done_at: "dict[int, float]" = {}
        lock = threading.Lock()
        idle = threading.Event()
        idle.set()
        in_flight = [0]

        def on_done(index):
            def callback(_ticket):
                done_at[index] = time.perf_counter()
                with lock:
                    in_flight[0] -= 1
                    if in_flight[0] == 0:
                        idle.set()
            return callback

        tickets = []
        start = time.perf_counter() + 0.05
        for index, offset in enumerate(due):
            target = start + float(offset)
            while True:
                remaining = target - time.perf_counter()
                if remaining <= 0:
                    break
                if not idle.is_set():
                    idle.wait(timeout=remaining)
                elif remaining >= budget:
                    # Nothing in flight and the next arrival is far
                    # enough away: time one reference unit.
                    run_ref()
                else:
                    time.sleep(remaining)
            with lock:
                in_flight[0] += 1
                idle.clear()
            ticket = gateway.submit(self.images[picks[index]])
            window.late.append(time.perf_counter() - target)
            ticket.add_done_callback(on_done(index))
            tickets.append(ticket)
        responses = []
        for ticket in tickets:
            try:
                responses.append(ticket.result(timeout=30))
            except Exception:  # a failed or refused request misses
                responses.append(None)
        result = gateway.finish()
        if tracer is not None:
            tracer.restore()
            for index, offset in enumerate(due):
                if index in done_at:
                    tracer.record("gateway.request",
                                  start + float(offset),
                                  done_at[index], request=index)
        # Close the stream with reference units too, so the last
        # requests are bracketed.
        for _ in range(3):
            run_ref()
        targets = [start + float(offset) for offset in due]
        compute = self._check(window, result, responses, picks,
                              targets, done_at)
        window.brackets = self._bracket(
            window.ref_seconds, ref_spans, targets, done_at, compute
        )
        return window

    @staticmethod
    def _bracket(ref_seconds, ref_spans, targets, done_at, compute):
        """Bracket each completed request by the last reference unit
        that ended before it was due and the first that started after
        it completed."""
        ends = [end for _, end in ref_spans]
        starts = [begin for begin, _ in ref_spans]
        brackets = []
        for index, seconds in compute.items():
            before = bisect.bisect_right(ends, targets[index]) - 1
            after = bisect.bisect_left(starts, done_at[index])
            if before >= 0 and after < len(starts):
                brackets.append(
                    (ref_seconds[before], ref_seconds[after], seconds)
                )
        return brackets

    def _check(self, window, result, responses, picks, targets,
               done_at) -> dict:
        """Every response row against ``NetworkRunner.run`` on the same
        images, and the stream's cycles against its per-image cycles.
        Returns each completed request's compute time per item."""
        if self.expected is None:
            self.expected = self.new_runner(fused=False).run(
                self.model, self.images
            )
            self.outputs = [self.expected.output]
        expected = self.expected
        per_image, remainder = divmod(expected.conv_cycles, self.pool)
        jobs: "dict[int, int]" = {}
        for response in responses:
            if response is not None:
                jobs[response.job] = jobs.get(response.job, 0) + 1
        window.sent = len(responses)
        compute: "dict[int, float]" = {}
        for index, response in enumerate(responses):
            ok = response is not None and bool(np.array_equal(
                response.output, expected.output[picks[index]]
            ))
            self.tally.record(ok)
            if response is None:
                continue
            latency = done_at[index] - targets[index]
            window.items += 1
            window.latencies.append(latency)
            if ok and latency * 1e3 <= self.slo_ms:
                window.within_slo += 1
            split = response.latency
            compute[index] = split.compute / jobs[response.job]
            window.item_seconds.append(compute[index])
            window.busy += compute[index]
            parts = (split.queue_wait, split.dispatch, split.compute,
                     split.reassembly)
            for key, value in zip(PHASES, parts):
                window.phases[key].append(value)
            window.phases["unattributed"].append(
                split.total - sum(parts)
            )
        self.tally.record(
            remainder == 0
            and result.conv_cycles == per_image * result.requests
        )
        window.batches = len(jobs)
        window.wall = (
            max(done_at.values()) - targets[0] if done_at else 0.0
        )
        window.cache = {key: result.cache.get(key, 0)
                        for key in ("hits", "misses")}
        window.queue = dict(result.health.get("queue", {}))
        window.health = {key: result.health.get(key, 0)
                         for key in HEALTH}
        self.conv_cycles = result.conv_cycles
        self.requests = result.requests
        return compute

    def cycles_per_item(self) -> float:
        return self.conv_cycles / self.requests


WORKLOADS = {cls.name: cls for cls in (CnnOffline, LlmDecode, CnnServe)}
