"""Shared-memory tensor transport for the sharded serving runtime.

Job batches and result tensors used to cross the parent/worker
boundary by pickling through ``multiprocessing.Queue`` pipes — an
O(bytes) serialize + copy + deserialize per hop charged straight to
host throughput.  This module
moves the bulk tensor bytes through ``multiprocessing.shared_memory``
segments instead: the queues now carry only a tiny :class:`ShmRef`
(segment name + array geometry), and each side reads/writes the pixels
exactly once.

Design:

* **Arena** — an :class:`ShmArena` owns a ring of reusable segments
  under one name prefix (``{prefix}-0``, ``{prefix}-1``, ...).  Slots
  are recycled by capacity, so a steady-state stream allocates a few
  segments total regardless of job count.
* **Job path (parent-owned)** — the supervisor places each dispatched
  batch in its arena and frees the slot exactly once when the job
  finishes (completed, degraded or stream-stopped).  Redispatched
  attempts reuse the same slot — the input never changes across
  attempts.  Workers only ever *read* job slots.
* **Result path (worker-owned)** — each worker incarnation owns a
  *flagged* arena: byte 0 of every slot is a handoff flag (0 = free,
  1 = carries an unread result).  The worker writes the output tensor
  and sets the flag; the parent copies it out and clears the flag,
  recycling the slot.  Stale results (a redispatched job's late
  answer) are discarded by the supervisor's attempt dedup *without*
  touching the segment, so a dead incarnation's slots can always be
  unlinked safely.
* **Lifecycle** — creators unlink their own segments on clean
  shutdown; the supervisor additionally sweeps every worker
  incarnation's deterministic name range on respawn/retire/stop, so a
  crashed worker (which never runs its ``finally``) cannot leak
  ``/dev/shm`` entries past the supervisor's lifetime.  The
  fault-tolerance suite asserts exactly that: no ``repro-shm-*``
  entries survive a chaos run.

CPython ≤ 3.12 registers every attached segment with the process's
``resource_tracker``, which would unlink segments still in use when
*any* attaching process exits (there is no ``track=False`` until
3.13).  Every create/attach here is immediately unregistered and the
lifecycle above is authoritative instead.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import DataflowError

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exotic platforms
    shared_memory = None
    resource_tracker = None

try:  # POSIX shm syscalls (what shared_memory itself uses)
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX fallback
    _posixshmem = None


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` exists on this host."""
    return shared_memory is not None


def _untrack(shm) -> None:
    """Detach one segment from the resource tracker (see module notes:
    the arena lifecycle owns unlinking, the tracker must not)."""
    if resource_tracker is None:  # pragma: no cover
        return
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker not running
        pass


def _unlink(shm) -> None:
    """Unlink a segment without touching the resource tracker.

    ``SharedMemory.unlink()`` also *unregisters* — but every segment
    here was already unregistered at create/attach time, so the stock
    call makes the tracker process log a KeyError.  Going through the
    same syscall the stdlib uses keeps the tracker out of it entirely.

    Raises:
        FileNotFoundError: the segment is already gone.
    """
    if _posixshmem is not None:
        _posixshmem.shm_unlink(shm._name)
    else:  # pragma: no cover - non-POSIX fallback
        shm.unlink()


@dataclass(frozen=True)
class ShmRef:
    """A queue-sized handle to a tensor parked in a shared segment.

    Attributes:
        name: shared-memory segment name.
        shape / dtype: array geometry to reconstruct the view.
        flagged: True when byte 0 of the segment is a handoff flag the
            consumer must clear (result path); False when the slot is
            recycled by its owning arena (job path).
    """

    name: str
    shape: tuple
    dtype: str
    flagged: bool


class _Slot:
    __slots__ = ("shm", "capacity", "busy")

    def __init__(self, shm, capacity: int) -> None:
        self.shm = shm
        self.capacity = capacity
        self.busy = False


class ShmArena:
    """A ring of reusable shared-memory slots under one name prefix.

    Args:
        prefix: segment name prefix; slot ``i`` is ``{prefix}-{i}``.
        flagged: result-path mode — slots carry a 1-byte handoff flag
            and are recycled when the consumer clears it.  Unflagged
            (job-path) slots are recycled by :meth:`release`.
        max_slots: ring bound; :meth:`place` waits for a recycled slot
            once reached (``None`` = grow on demand).  Bounded arenas
            can be swept by name with :meth:`unlink_prefix` after the
            owner died without cleanup.
    """

    #: Default ring bound for worker (flagged) arenas — also the range
    #: :meth:`unlink_prefix` sweeps, so the two must stay in sync.
    MAX_SLOTS = 64
    #: Minimum segment size; tiny tensors share one rounded-up slot
    #: class instead of fragmenting the ring.
    MIN_BYTES = 4096

    def __init__(
        self,
        prefix: str,
        flagged: bool = False,
        max_slots: "int | None" = MAX_SLOTS,
    ) -> None:
        if shared_memory is None:  # pragma: no cover
            raise DataflowError(
                "multiprocessing.shared_memory is unavailable; use "
                "transport='pickle'"
            )
        self.prefix = prefix
        self.flagged = flagged
        self.max_slots = max_slots
        self._slots: list[_Slot] = []
        self._closed = False

    # -- producer side -------------------------------------------------
    def _slot_free(self, slot: _Slot) -> bool:
        if self.flagged:
            return slot.shm.buf[0] == 0
        return not slot.busy

    def _acquire(self, need: int) -> _Slot:
        while True:
            for slot in self._slots:
                if slot.capacity >= need and self._slot_free(slot):
                    return slot
            if (
                self.max_slots is None
                or len(self._slots) < self.max_slots
            ):
                size = max(need, self.MIN_BYTES)
                shm = shared_memory.SharedMemory(
                    name=f"{self.prefix}-{len(self._slots)}",
                    create=True,
                    size=size,
                )
                _untrack(shm)
                if self.flagged:
                    shm.buf[0] = 0  # fresh slot starts free
                slot = _Slot(shm, size)
                self._slots.append(slot)
                return slot
            # Ring full: wait for the consumer to recycle a slot (the
            # parent drains results continuously, so this is brief).
            time.sleep(0.0005)

    def place(self, array: np.ndarray) -> ShmRef:
        """Park one tensor in a (possibly recycled) slot and return
        the queue-sized handle for it."""
        if self._closed:
            raise DataflowError(
                f"shm arena {self.prefix!r} is closed"
            )
        array = np.ascontiguousarray(array)
        offset = 1 if self.flagged else 0
        slot = self._acquire(array.nbytes + offset)
        view = np.frombuffer(
            slot.shm.buf,
            dtype=array.dtype,
            count=array.size,
            offset=offset,
        )
        try:
            view[:] = array.reshape(-1)
        finally:
            del view
        if self.flagged:
            slot.shm.buf[0] = 1
        else:
            slot.busy = True
        return ShmRef(
            slot.shm.name,
            tuple(array.shape),
            str(array.dtype),
            self.flagged,
        )

    def release(self, ref: ShmRef) -> None:
        """Recycle one unflagged slot (idempotent: releasing a slot
        that is already free, or after :meth:`close`, is a no-op)."""
        for slot in self._slots:
            if slot.shm.name == ref.name:
                slot.busy = False
                return

    def close(self) -> None:
        """Close and unlink every slot.  Idempotent — the exactly-once
        release guarantee for ``ShardedRunner.stop()`` / degraded
        teardown paths lives here."""
        if self._closed:
            return
        self._closed = True
        slots, self._slots = self._slots, []
        for slot in slots:
            try:
                slot.shm.close()
            except Exception:  # pragma: no cover - best effort
                pass
            try:
                _unlink(slot.shm)
            except FileNotFoundError:
                pass  # already swept by the supervisor
            except Exception:  # pragma: no cover - best effort
                pass

    # -- consumer side -------------------------------------------------
    @staticmethod
    def take(ref: ShmRef) -> np.ndarray:
        """Copy a referenced tensor out of shared memory.

        Flagged refs (worker results) have their slot recycled by
        clearing the handoff flag; unflagged refs (job inputs) leave
        the slot untouched — the owning arena recycles it when the job
        finishes.  The returned array is always a private copy, so it
        stays valid after the segment is recycled or unlinked.
        """
        shm = shared_memory.SharedMemory(name=ref.name)
        _untrack(shm)
        try:
            offset = 1 if ref.flagged else 0
            count = math.prod(ref.shape) if ref.shape else 1
            view = np.frombuffer(
                shm.buf,
                dtype=np.dtype(ref.dtype),
                count=count,
                offset=offset,
            )
            try:
                array = np.array(view).reshape(ref.shape)
            finally:
                del view
            if ref.flagged:
                shm.buf[0] = 0
        finally:
            shm.close()
        return array

    # -- crash cleanup -------------------------------------------------
    @staticmethod
    def unlink_prefix(prefix: str, cap: int = MAX_SLOTS) -> int:
        """Unlink every segment a (possibly crashed) bounded arena may
        have created under ``prefix``.  Missing names are fine — slots
        are allocated densely from 0, and clean shutdown unlinks them
        first.  Returns how many segments were actually reclaimed."""
        if shared_memory is None:  # pragma: no cover
            return 0
        reclaimed = 0
        for index in range(cap):
            try:
                shm = shared_memory.SharedMemory(
                    name=f"{prefix}-{index}"
                )
            except FileNotFoundError:
                continue
            except OSError:  # pragma: no cover - permission races
                continue
            _untrack(shm)
            try:
                shm.close()
                _unlink(shm)
                reclaimed += 1
            except FileNotFoundError:
                pass
            except Exception:  # pragma: no cover - best effort
                pass
        return reclaimed


def default_transport() -> str:
    """The serving default: shared memory where the host supports it."""
    return "shm" if shm_available() else "pickle"


def arena_base(token: "str | None" = None) -> str:
    """A collision-safe arena name base for one runner instance."""
    token = token or os.urandom(4).hex()
    return f"repro-shm-{os.getpid()}-{token}"
