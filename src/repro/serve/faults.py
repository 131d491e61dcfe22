"""Deterministic fault injection for the sharded serving tier.

At the scale the ROADMAP targets ("heavy traffic from millions of
users") shard workers *will* crash, hang, and slow down.  The paper's
own scaling story — replicate many small Tempus cores instead of
growing one — only pays off if the replication layer survives the loss
of replicas.  This module is the chaos half of that contract: a
:class:`FaultPlan` is a **pure function** from ``(shard, job, attempt)``
to an optional :class:`FaultSpec`, derived entirely from a seed, so a
chaos run is exactly reproducible — re-running with the same seed
injects the same crash on the same job at the same attempt.

Fault kinds (``FAULT_KINDS``):

``crash``
    The worker process exits hard (``os._exit``) *before* reporting the
    job's result — models OOM kills, native crashes, preemption.
``hang``
    The worker sleeps without ever reporting the job — models a
    deadlocked or live-locked shard.  Only the supervisor's job
    deadline can recover from this.
``slow``
    The worker sleeps ``seconds`` before reporting normally — models a
    degraded host.  If the sleep exceeds the job deadline, the
    supervisor redispatches and the late duplicate is discarded.
``error``
    The worker reports a transient failure instead of a result but
    stays alive — models flaky I/O.  A retry (same shard pool, next
    attempt) succeeds.

Liveness guarantee: rate-based plans never fault an attempt at or past
``clean_after`` (default 2), so every job has a guaranteed live
execution path and the chaos-differential suite can require the served
stream to complete bit-identical to the single-process reference.
Explicitly scheduled :class:`FaultSpec` entries may override this (the
degradation tests do, to force a pool collapse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataflowError

#: Every fault kind a plan may schedule.
FAULT_KINDS = ("crash", "hang", "slow", "error")

#: Default kinds drawn by rate-based plans.  All four: the supervisor
#: must survive each of them.
DEFAULT_KINDS = FAULT_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        job: job id the fault fires on, or None for every job (used
            by the degradation tests to collapse the pool).
        attempt: dispatch attempt the fault fires on (0 = first), or
            None for every attempt.
        shard: shard index the fault is pinned to, or None for any
            shard (the job faults wherever it lands).
        seconds: sleep length for ``hang``/``slow`` faults.
    """

    kind: str
    job: "int | None"
    attempt: "int | None" = 0
    shard: "int | None" = None
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise DataflowError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}"
            )
        if self.job is not None and self.job < 0:
            raise DataflowError("fault job must be >= 0 (or None)")
        if self.attempt is not None and self.attempt < 0:
            raise DataflowError("fault attempt must be >= 0 (or None)")
        if self.seconds < 0:
            raise DataflowError("fault seconds must be >= 0")

    def matches(self, shard: int, job: int, attempt: int) -> bool:
        return (
            (self.job is None or self.job == job)
            and (self.attempt is None or self.attempt == attempt)
            and (self.shard is None or self.shard == shard)
        )


class FaultPlan:
    """A deterministic schedule of injected faults.

    The plan is consulted by every shard worker before executing a job
    (:func:`repro.serve.sharded._worker_main`): ``fault_for(shard,
    job, attempt)`` either returns the fault to act out or None.  The
    decision is a pure function of the constructor arguments — no
    wall-clock, no process state — so it is identical in every worker
    and on every rerun, which is what makes chaos runs replayable from
    a seed.

    Args:
        faults: explicitly scheduled :class:`FaultSpec` entries
            (checked first; exact ``(job, attempt)`` match, and shard
            match when the spec pins one).
        seed: base seed for rate-based injection.
        rate: probability in [0, 1] that a given ``(job, attempt)``
            draws a fault (attempts below ``clean_after`` only).
        kinds: fault kinds the rate-based draw chooses between.
        clean_after: first attempt index that is guaranteed clean —
            the liveness floor for rate-based plans.
        hang_seconds: sleep length injected for ``hang`` faults.
        slow_seconds: sleep length injected for ``slow`` faults.
    """

    def __init__(
        self,
        faults: "tuple[FaultSpec, ...] | list[FaultSpec]" = (),
        seed: int = 0,
        rate: float = 0.0,
        kinds: "tuple[str, ...]" = DEFAULT_KINDS,
        clean_after: int = 2,
        hang_seconds: float = 30.0,
        slow_seconds: float = 0.05,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise DataflowError("fault rate must be in [0, 1]")
        if clean_after < 1:
            raise DataflowError(
                "clean_after must be >= 1 (every job needs a live "
                "execution path)"
            )
        unknown = [kind for kind in kinds if kind not in FAULT_KINDS]
        if unknown:
            raise DataflowError(
                f"unknown fault kind(s) {', '.join(unknown)}; "
                f"known: {', '.join(FAULT_KINDS)}"
            )
        if rate > 0.0 and not kinds:
            raise DataflowError("rate-based plan needs >= 1 fault kind")
        self.faults = tuple(faults)
        self.seed = int(seed)
        self.rate = float(rate)
        self.kinds = tuple(kinds)
        self.clean_after = int(clean_after)
        self.hang_seconds = float(hang_seconds)
        self.slow_seconds = float(slow_seconds)

    @classmethod
    def random(
        cls,
        seed: int,
        rate: float,
        kinds: "tuple[str, ...]" = DEFAULT_KINDS,
        **kwargs,
    ) -> "FaultPlan":
        """A purely rate-based plan — what ``python -m repro bench
        serving`` injects at each swept fault rate."""
        return cls(seed=seed, rate=rate, kinds=kinds, **kwargs)

    def __bool__(self) -> bool:
        return bool(self.faults) or self.rate > 0.0

    def _seconds(self, kind: str) -> float:
        return self.hang_seconds if kind == "hang" else self.slow_seconds

    def fault_for(
        self, shard: int, job: int, attempt: int
    ) -> "FaultSpec | None":
        """The fault (if any) scheduled for this dispatch.

        Explicit specs win over the rate-based draw; rate-based draws
        never fault attempts at or past ``clean_after``.
        """
        for spec in self.faults:
            if spec.matches(shard, job, attempt):
                return spec
        if self.rate <= 0.0 or attempt >= self.clean_after:
            return None
        # Keyed on (job, attempt) only — not the shard — so a job's
        # fate is independent of which shard it happens to land on
        # after earlier recoveries: the schedule replays exactly.
        rng = np.random.default_rng(
            [self.seed & 0xFFFFFFFFFFFFFFFF, int(job), int(attempt)]
        )
        if rng.random() >= self.rate:
            return None
        kind = self.kinds[int(rng.integers(len(self.kinds)))]
        return FaultSpec(
            kind=kind,
            job=job,
            attempt=attempt,
            seconds=self._seconds(kind),
        )

    def describe(self) -> str:
        """One-line summary for telemetry and bench artifacts."""
        parts = []
        if self.rate > 0.0:
            parts.append(
                f"rate={self.rate:g} seed={self.seed} "
                f"kinds={'/'.join(self.kinds)}"
            )
        if self.faults:
            parts.append(f"{len(self.faults)} scheduled")
        return "; ".join(parts) if parts else "no faults"
