"""Shared-memory transport tests: lifecycle, leaks and chaos.

The transport contract: ``transport="shm"`` moves batch and result
tensors through ``multiprocessing.shared_memory`` segments instead of
pickled queue messages, bit-identically and without ever leaking a
``/dev/shm`` entry — across clean shutdown, stream failures, chaos
(crashed/respawned workers), pool collapse into degraded mode and the
``spawn`` start method.
"""

import glob

import numpy as np
import pytest

from repro.nvdla.config import CoreConfig
from repro.runtime import NetworkRunner
from repro.serve import FaultPlan, FaultSpec, ShardedRunner
from repro.serve.shm import (
    ShmArena,
    ShmRef,
    arena_base,
    default_transport,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no multiprocessing.shared_memory"
)

TINY = dict(scale=0.06, input_size=16)


def _shm_entries():
    """Every live ``/dev/shm`` entry created by this runtime."""
    return sorted(glob.glob("/dev/shm/repro-shm-*"))


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module must leave ``/dev/shm`` clean."""
    before = _shm_entries()
    yield
    leaked = [e for e in _shm_entries() if e not in before]
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


class TestShmArena:
    def test_place_take_roundtrip(self, fuzz_rng):
        arena = ShmArena(arena_base("arena-rt"))
        try:
            tensor = fuzz_rng.integers(-128, 128, (3, 4, 5))
            ref = arena.place(tensor)
            assert isinstance(ref, ShmRef)
            out = ShmArena.take(ref)
            assert np.array_equal(out, tensor)
            assert out.dtype == tensor.dtype
        finally:
            arena.close()

    def test_slots_are_recycled_after_release(self, fuzz_rng):
        arena = ShmArena(arena_base("arena-rc"), max_slots=2)
        try:
            for _ in range(8):  # far more placements than slots
                ref = arena.place(fuzz_rng.integers(0, 9, (16,)))
                arena.release(ref)
            assert len(arena._slots) <= 2
        finally:
            arena.close()

    def test_flagged_slot_recycled_by_take(self, fuzz_rng):
        arena = ShmArena(arena_base("arena-fl"), flagged=True)
        try:
            for _ in range(8):
                ref = arena.place(fuzz_rng.integers(0, 9, (16,)))
                ShmArena.take(ref)  # clearing the flag frees the slot
            assert len(arena._slots) == 1
        finally:
            arena.close()

    def test_taken_copy_outlives_the_segment(self, fuzz_rng):
        arena = ShmArena(arena_base("arena-cp"))
        tensor = fuzz_rng.integers(-128, 128, (7, 7))
        ref = arena.place(tensor)
        out = ShmArena.take(ref)
        arena.close()  # segment unlinked
        assert np.array_equal(out, tensor)

    def test_close_is_idempotent(self):
        arena = ShmArena(arena_base("arena-cl"))
        arena.place(np.zeros((4,), np.int64))
        arena.close()
        arena.close()  # exactly-once unlink: second close is a no-op

    def test_place_after_close_rejected(self):
        arena = ShmArena(arena_base("arena-pc"))
        arena.close()
        with pytest.raises(Exception):
            arena.place(np.zeros((4,), np.int64))

    def test_unlink_prefix_sweeps_orphans(self):
        """A crashed owner's segments are reclaimed by name; missing
        names and an already-swept range are fine."""
        prefix = arena_base("arena-or")
        arena = ShmArena(prefix, flagged=True)
        arena.place(np.zeros((8,), np.int64))
        arena.place(np.zeros((2048,), np.int64))
        # Simulate a crash: drop the arena without close().
        arena._slots.clear()
        assert ShmArena.unlink_prefix(prefix) == 2
        assert ShmArena.unlink_prefix(prefix) == 0


class TestShmServing:
    def test_default_transport_is_shm_here(self):
        assert default_transport() == "shm"
        server = ShardedRunner(
            workers=1, config=CoreConfig(k=4, n=4), **TINY
        )
        assert server.transport == "shm"

    def test_clean_stream_bit_identical_and_clean(self):
        config = CoreConfig(k=4, n=4)
        reference = NetworkRunner(config, engine="tempus", **TINY).run(
            "resnet18", 6
        )
        with ShardedRunner(
            workers=2,
            config=config,
            engine="tempus",
            transport="shm",
            max_batch=2,
            **TINY,
        ) as server:
            result = server.run("resnet18", 6)
        assert np.array_equal(result.output, reference.output)
        assert result.conv_cycles == reference.conv_cycles
        assert result.health["transport"] == "shm"

    def test_chaos_run_releases_every_segment(self, fuzz_rng):
        """Crashed incarnations never run their cleanup — the
        supervisor's respawn/stop sweeps must reclaim their arenas.
        The module fixture asserts /dev/shm is clean afterwards."""
        seed = int(fuzz_rng.integers(2**31))
        plan = FaultPlan.random(
            seed,
            rate=0.4,
            kinds=("crash", "error", "slow"),
            slow_seconds=0.02,
        )
        config = CoreConfig(k=4, n=4)
        reference = NetworkRunner(config, engine="tempus", **TINY).run(
            "resnet18", 8
        )
        with ShardedRunner(
            workers=2,
            config=config,
            engine="tempus",
            transport="shm",
            fault_plan=plan,
            job_deadline=5.0,
            max_restarts=8,
            max_batch=2,
            **TINY,
        ) as server:
            result = server.run("resnet18", 8)
        context = f"fault seed {seed}"
        assert np.array_equal(
            result.output, reference.output
        ), context
        assert result.conv_cycles == reference.conv_cycles, context

    def test_pool_collapse_still_releases_segments(self):
        """Degrading to in-process execution tears down every arena
        exactly once (stop + the module leak fixture)."""
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash", job=None, attempt=None),)
        )
        config = CoreConfig(k=4, n=4)
        reference = NetworkRunner(config, engine="tempus", **TINY).run(
            "resnet18", 6
        )
        with ShardedRunner(
            workers=2,
            config=config,
            engine="tempus",
            transport="shm",
            fault_plan=plan,
            max_restarts=0,
            max_batch=2,
            **TINY,
        ) as server:
            result = server.run("resnet18", 6)
        assert np.array_equal(result.output, reference.output)
        assert result.health["degraded_jobs"] >= 1

    def test_failed_stream_releases_segments(self):
        server = ShardedRunner(
            workers=2,
            config=CoreConfig(k=4, n=4),
            transport="shm",
            **TINY,
        )
        with pytest.raises(Exception):
            server.run("resnet18", np.zeros((2, 5, 4, 4), np.int64))
        assert server.supervisor is None

    def test_stop_releases_exactly_once(self):
        server = ShardedRunner(
            workers=2,
            config=CoreConfig(k=4, n=4),
            transport="shm",
            **TINY,
        )
        server.run("resnet18", 4)  # leaves the pool (and arenas) warm
        assert _shm_entries()  # segments exist while the pool is up
        server.stop()
        assert _shm_entries() == []
        server.stop()  # second stop must not double-unlink

    def test_spawn_mode_shm_bit_identical(self):
        config = CoreConfig(k=4, n=4)
        reference = NetworkRunner(config, engine="tempus", **TINY).run(
            "resnet18", 4
        )
        with ShardedRunner(
            workers=2,
            config=config,
            engine="tempus",
            transport="shm",
            start_method="spawn",
            max_batch=2,
            **TINY,
        ) as server:
            result = server.run("resnet18", 4)
        assert np.array_equal(result.output, reference.output)
        assert result.conv_cycles == reference.conv_cycles
