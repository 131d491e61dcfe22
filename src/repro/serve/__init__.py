"""Sharded multi-worker serving on top of :mod:`repro.runtime`.

- :class:`~repro.serve.queue.RequestQueue` — dynamic-batching
  front-end (max-batch / max-wait coalescing, submission-order seqs,
  bounded depth with block/reject/shed admission control, eager
  dispatch for idle pools).
- :class:`~repro.serve.sharded.ShardedRunner` — compile once, fork N
  shard workers, and serve a whole batch through one coalescing
  gateway stream with bit-identical results.
- :class:`~repro.serve.supervisor.ShardSupervisor` — worker
  supervision: dead/hung-shard detection (on its own probe thread),
  capped-backoff respawn, retry/redispatch with deadlines and
  duplicate discard, graceful degradation to in-process execution.
- :class:`~repro.serve.gateway.ServingGateway` — request validation
  at submit, pipelined dispatch/collection threads over the
  supervised pool (with an optional asyncio wrapper) and a
  per-response latency decomposition (queue wait / dispatch / compute
  / reassembly).
- :class:`~repro.serve.faults.FaultPlan` — seeded, deterministic
  fault injection (crash / hang / slow / transient error) so chaos
  runs replay exactly.
"""

from repro.serve.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.serve.gateway import (
    LATENCY_PHASES,
    GatewayResponse,
    GatewayResult,
    LatencyBreakdown,
    ServingGateway,
)
from repro.serve.queue import ADMISSION_POLICIES, Request, RequestQueue
from repro.serve.sharded import ShardedResult, ShardedRunner
from repro.serve.supervisor import ShardSupervisor

__all__ = [
    "ADMISSION_POLICIES",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "GatewayResponse",
    "GatewayResult",
    "LATENCY_PHASES",
    "LatencyBreakdown",
    "Request",
    "RequestQueue",
    "ServingGateway",
    "ShardedResult",
    "ShardedRunner",
    "ShardSupervisor",
]
