"""Statistics the benchmark reports: nearest-rank percentiles with the
sample-count rule, reference-unit normalization and the correctness
fractions.  Pure Python; imports nothing from the program under test.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the highest percentile the sample supports is.
MIN_BEYOND = 10

#: Percentiles tried, highest first, when a requested one is not
#: supported by the sample.
PERCENTILE_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest observed value with at
    least ``pct`` percent of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    rank = math.ceil(pct / 100.0 * len(ordered))
    return float(ordered[rank - 1])


def beyond_count(count: int, pct: float) -> int:
    """Samples ranked strictly above the nearest-rank ``pct``
    percentile of a sample of ``count``."""
    return count - math.ceil(pct / 100.0 * count)


def supported(count: int, pct: float) -> bool:
    """True when at least :data:`MIN_BEYOND` samples lie beyond the
    ``pct`` percentile (the median is always supported)."""
    return count > 0 and (
        pct <= 50.0 or beyond_count(count, pct) >= MIN_BEYOND
    )


def tail(values, pct: float = 99.0) -> dict:
    """The requested percentile if the sample supports it, else the
    highest supported rung of :data:`PERCENTILE_LADDER`.

    Returns ``{"pct", "value", "count", "beyond"}``.
    """
    values = list(values)
    count = len(values)
    if count == 0:
        raise ValueError("percentile of an empty sample")
    rungs = [pct] + [rung for rung in PERCENTILE_LADDER if rung < pct]
    chosen = next(
        (rung for rung in rungs if supported(count, rung)), 50.0
    )
    return {
        "pct": chosen,
        "value": nearest_rank(values, chosen),
        "count": count,
        "beyond": beyond_count(count, chosen),
    }


def describe(values, scale: float = 1.0, unit: str = "") -> str:
    """``p50=… p99=… (n=…)`` with the tail rung the sample supports."""
    values = [value * scale for value in values]
    if not values:
        return "n=0"
    top = tail(values)
    median = f"p50={nearest_rank(values, 50.0):.3f}{unit}"
    if top["pct"] <= 50.0:
        return f"{median} (too few samples for a tail, n={top['count']})"
    return (
        f"{median} p{top['pct']:g}={top['value']:.3f}{unit} "
        f"({top['beyond']} beyond, n={top['count']})"
    )


def _ref_units(brackets) -> list:
    """``item_seconds / mean(ref_before, ref_after)`` per bracket."""
    units = []
    for before, after, item in brackets:
        if min(before, after, item) <= 0.0:
            raise ValueError("times must be positive")
        units.append(item / ((before + after) / 2.0))
    if not units:
        raise ValueError("no bracketed units")
    return units


def items_per_ref(brackets) -> float:
    """Items the program completes in the time one reference unit
    takes.  Each timed unit is bracketed by the reference units run
    just before and just after it: ``brackets`` holds ``(ref_before,
    ref_after, item_seconds)`` per unit, and the result is the median
    over units of ``mean(ref_before, ref_after) / item_seconds``.
    Contention on a shared host comes and goes within seconds; a
    bracket sees the same contention as the unit inside it."""
    return statistics.median(1.0 / unit for unit in _ref_units(brackets))


def in_ref_units(brackets) -> float:
    """Median over bracketed units of ``item_seconds / mean(ref_before,
    ref_after)``: how many reference units one unit of work takes."""
    return statistics.median(_ref_units(brackets))


def ratio_of_medians(ref_seconds, item_seconds) -> float:
    """Median reference-unit time over median item time (unpaired;
    printed beside :func:`items_per_ref` to show what bracketing
    buys)."""
    return statistics.median(ref_seconds) / statistics.median(
        item_seconds
    )


def spread(values) -> float:
    """Interquartile range over the median (``statistics.quantiles``
    with n=4, its default exclusive method)."""
    values = list(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def live_fraction(arrays) -> float:
    """Nonzero share of every element of the given outputs: 0.0 means
    an identity check over them compared zeros with zeros."""
    total = 0
    live = 0
    for array in arrays:
        total += array.size
        live += int((array != 0).sum())
    return live / total if total else 0.0


class Tally:
    """Operations attempted and verified correct."""

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0

    def record(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if ok:
            self.ok += count

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def ok_frac(self) -> float:
        return self.ok / self.attempted if self.attempted else 0.0
