"""Fig. 9 — iso-area throughput vs multiplier count for a single PE cell,
with the n=65536 projection (paper: 26x INT8 / 18x INT4; our structural
model yields a flatter trend — the fig9 experiment's notes say why)."""


def test_fig9_iso_area_scaling(paper_experiment):
    result = paper_experiment("fig9")
    measured = [row for row in result.rows if row[3] != "projected"]
    projected = [row for row in result.rows if row[3] == "projected"]
    assert len(projected) == 2
    # improvement above 1x everywhere (tub always denser)
    for row in measured:
        assert row[2] > 1.0
    # INT8 improvements dominate INT4 at every n
    by_n_int8 = {r[1]: r[2] for r in measured if r[0] == "INT8"}
    by_n_int4 = {r[1]: r[2] for r in measured if r[0] == "INT4"}
    for n, improvement in by_n_int8.items():
        assert improvement > by_n_int4[n]
    # projections stay above 1x (the direction of the paper's claim)
    for row in projected:
        assert row[2] > 1.0
