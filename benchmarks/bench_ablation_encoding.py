"""Ablation — 2s-unary vs pure unary burst latency and PCU burst-overhead
sensitivity."""


def test_ablation_encoding(paper_experiment):
    result = paper_experiment("ablation")
    by_config = {row[0]: row[1] for row in result.rows}
    pure = by_config["pure unary"]
    twos = by_config["2s-unary"]
    # the 2s-unary halving (the tubGEMM -> Tempus latency lever)
    assert 1.8 < pure / twos < 2.2
    # overhead rows increase monotonically
    overhead_rows = [
        row[1] for row in result.rows if "overhead" in row[0]
    ]
    assert overhead_rows == sorted(overhead_rows)
