import numpy as np
import pytest

from perfbench.stats import Tally, describe, in_ref_units, \
    items_per_ref, live_fraction, nearest_rank, ratio_of_medians, \
    spread, supported, tail


def test_items_per_ref_brackets_each_unit_with_two_reference_units():
    # Reference units took 20, 40 and 30 ms around two units whose
    # items took 10 ms each: (20+40)/2/10 = 3 and (40+30)/2/10 = 3.5.
    brackets = [(0.020, 0.040, 0.010), (0.040, 0.030, 0.010)]
    assert items_per_ref(brackets) == pytest.approx(3.25)
    assert items_per_ref([(0.020, 0.020, 0.005)] * 3) == pytest.approx(
        4.0
    )


def test_items_per_ref_cancels_drift_that_hits_both_sides():
    steady = [(0.020, 0.020, 0.005)] * 5
    # The host runs some units three times as slow; the reference
    # units around them slow down with them.
    drift = [1.0, 3.0, 3.0, 1.0, 1.0]
    slowed = [
        (before * d, after * d, item * d)
        for (before, after, item), d in zip(steady, drift)
    ]
    assert items_per_ref(slowed) == pytest.approx(items_per_ref(steady))
    # Slow units alone (the host recovered before the reference ran)
    # lower the figure: the program really was slower.
    slower_items = [(0.020, 0.020, 0.010)] * 3 + steady[:2]
    assert items_per_ref(slower_items) == pytest.approx(2.0)


def test_in_ref_units_is_work_per_bracketing_reference_unit():
    # A 300 ms set-up between reference units of 10 and 20 ms is 20
    # reference units; a host twice as slow leaves it at 20.
    assert in_ref_units([(0.010, 0.020, 0.300)]) == pytest.approx(20.0)
    assert in_ref_units([(0.020, 0.040, 0.600)]) == pytest.approx(20.0)
    assert in_ref_units(
        [(0.010, 0.010, 0.1), (0.010, 0.010, 0.2), (0.010, 0.010, 0.9)]
    ) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        in_ref_units([])


def test_items_per_ref_rejects_empty_or_non_positive_samples():
    with pytest.raises(ValueError):
        items_per_ref([])
    with pytest.raises(ValueError):
        items_per_ref([(0.01, 0.01, 0.0)])
    assert ratio_of_medians([0.02, 0.04], [0.01, 0.01]) == pytest.approx(
        3.0
    )


def test_nearest_rank_percentiles():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7.0], 99) == 7.0
    assert nearest_rank([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_tail_needs_ten_samples_beyond_it():
    # 100 samples: one lies beyond p99, ten beyond p90.
    assert not supported(100, 99)
    assert supported(100, 90)
    report = tail(range(1, 101), 99)
    assert report == {"pct": 90.0, "value": 90.0, "count": 100,
                      "beyond": 10}
    # 1000 samples support p99 exactly: ten lie beyond it.
    report = tail(range(1, 1001), 99)
    assert report["pct"] == 99.0
    assert report["beyond"] == 10
    assert report["value"] == 990.0
    # Too few for any tail: the median is all the sample supports.
    assert tail([1.0, 2.0, 3.0])["pct"] == 50.0


def test_describe_prints_sample_count():
    text = describe([0.001 * i for i in range(1, 1001)], 1e3, "ms")
    assert "p99=990.000ms" in text and "n=1000" in text
    assert "10 beyond" in text
    text = describe([0.001, 0.002], 1e3, "ms")
    assert "too few samples for a tail, n=2" in text


def test_spread_is_iqr_over_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5
    )


def test_all_zero_outputs_are_not_live():
    assert live_fraction([np.zeros((2, 10, 1, 1), np.int64)]) == 0.0
    half = np.array([0, 3, 0, -1])
    assert live_fraction([half, np.zeros(4, np.int64)]) == 0.25


def test_tally_counts_failures():
    tally = Tally()
    tally.record(True, 8)
    tally.record(False, 8)
    tally.record(True)
    assert tally.attempted == 17
    assert tally.failed == 8
    assert tally.ok_frac == pytest.approx(9 / 17)
