"""Integration: every experiment of the paper runs end to end through
``python -m repro bench paper --quick``.

One session run (the ``paper_quick`` fixture) writes
``BENCH_paper.json``; each experiment's record must be present, carry
its table, render its report and pass the artifact's claim checks —
the guarantee that every table and figure of the paper stays
regenerable, and gated, as the library evolves.
"""

import pytest

from repro.eval.experiments import EXPERIMENTS, render_record
from repro.eval.results_schema import check_results_dir


def _record(payload, experiment_id):
    (record,) = [
        entry for entry in payload["experiments"]
        if entry["id"] == experiment_id
    ]
    return record


@pytest.mark.slow
@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_runs_and_renders(experiment_id, paper_quick):
    assert paper_quick.code == 0
    assert paper_quick.payload["quick"] is True
    record = _record(paper_quick.payload, experiment_id)
    assert record["rows"], f"{experiment_id} produced no rows"
    assert all(len(row) == len(record["headers"]) for row in record["rows"])
    report = render_record(record)
    assert record["title"] in report
    assert report in paper_quick.stdout
    records = check_results_dir(paper_quick.out_dir)["BENCH_paper.json"]
    assert {"net": experiment_id, "backend": "paper", "precision": "-",
            "cycles": 0} in records


@pytest.mark.slow
def test_every_comparison_has_a_direction(paper_quick):
    """Paper-vs-measured comparisons must be numeric and positive — a
    regression here means a driver silently lost its measurement."""
    for experiment_id in ("table2", "fig4", "secVD"):
        record = _record(paper_quick.payload, experiment_id)
        assert record["comparisons"]
        for comparison in record["comparisons"]:
            assert comparison["measured"] > 0, comparison["metric"]
