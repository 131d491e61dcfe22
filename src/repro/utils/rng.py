"""Deterministic random number generation.

Every stochastic element of the reproduction (synthetic weights, random test
tensors, placement annealing) draws from a generator produced here so that
all tables and figures are bit-reproducible run to run.
"""

from __future__ import annotations

import numpy as np

GLOBAL_SEED = 0xDA7E2025  # "DATE 2025"

#: The seed every stream derives from.  Defaults to the paper seed so
#: all tables/figures are bit-reproducible; the test suite may point it
#: at ``PYTEST_SEED`` (see ``tests/conftest.py``) so randomized
#: differential suites can be fuzzed with a chosen seed and replayed.
_active_seed = GLOBAL_SEED


def set_global_seed(seed: int) -> int:
    """Redirect every :func:`make_rng` stream to a new base seed.

    Returns the previous seed so callers can restore it.  Changing the
    seed changes every synthesized tensor (weights, inputs, biases) —
    it is meant for randomized test runs, not for regenerating the
    paper's artifacts.
    """
    global _active_seed
    previous = _active_seed
    _active_seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return previous


def stable_hash(text: str) -> int:
    """Stable 64-bit FNV-1a hash of a string (Python's ``hash()`` is
    salted per run, so it can't derive reproducible seeds)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def make_rng(*stream: "int | str") -> np.random.Generator:
    """Create a seeded generator for a named stream.

    Args:
        *stream: any mix of ints/strings identifying the consumer, e.g.
            ``make_rng("weights", "mobilenet_v2", layer_index)``.  The same
            arguments always yield the same generator (for the active
            global seed).
    """
    seed_parts: list[int] = [_active_seed]
    for part in stream:
        if isinstance(part, str):
            seed_parts.append(stable_hash(part))
        else:
            seed_parts.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(seed_parts)
