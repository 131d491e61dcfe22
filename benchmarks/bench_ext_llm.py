"""Extension benchmark — the Sec. VI ultra-low-precision projection of
the transformer block's GEMV slowdown (the decode artifact
``BENCH_llm.json`` is ``python -m repro bench llm``)."""


def test_ext_llm_projection(paper_experiment):
    result = paper_experiment("llm")
    by_precision = {row[0]: row for row in result.rows}
    int8 = by_precision["INT8 weights"]
    int4 = by_precision["INT4 weights"]
    int2 = by_precision["INT2 weights"]
    # slowdown collapses with precision: INT2 reaches parity
    assert int2[2] == int2[1]
    assert int4[2] < int8[2]
    assert int4[2] <= int4[1] * 4
