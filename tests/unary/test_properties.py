"""Property-based tests for the unary encoding substrate."""

from hypothesis import given, strategies as st

from repro.unary.encoder import TemporalEncoder
from repro.unary.encoding import PureUnaryCode, TwosUnaryCode
from tests.oracles import drain, signed_pulses

int8_values = st.integers(min_value=-128, max_value=127)
any_values = st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)


@given(value=any_values)
def test_twos_unary_roundtrip(value):
    code = TwosUnaryCode()
    assert code.decode(code.encode(value)) == value


@given(value=any_values)
def test_pure_unary_roundtrip(value):
    code = PureUnaryCode()
    assert code.decode(code.encode(value)) == value


@given(value=any_values)
def test_twos_unary_halves_latency(value):
    """2s-unary streams are exactly ceil(m/2) — never longer than pure
    unary and at most half plus one."""
    twos = TwosUnaryCode().cycles_for(value)
    pure = PureUnaryCode().cycles_for(value)
    assert twos == (abs(value) + 1) // 2
    assert twos <= pure


@given(value=any_values)
def test_pulse_composition(value):
    """floor(m/2) two-valued pulses plus one 1-pulse iff odd."""
    stream = TwosUnaryCode().encode(value)
    twos = sum(1 for p in stream.pulses if p == 2)
    ones = sum(1 for p in stream.pulses if p == 1)
    assert twos == abs(value) // 2
    assert ones == abs(value) % 2


@given(value=int8_values)
def test_encoder_stream_matches_code(value):
    """The cycle-level encoder emits exactly the code's pulse train
    (signed)."""
    encoder = TemporalEncoder()
    encoder.load(value)
    pulses = drain(encoder)
    expected = list(signed_pulses(TwosUnaryCode().encode(value)))
    assert pulses == expected


@given(value=int8_values, operand=int8_values)
def test_encode_accumulate_is_multiplication(value, operand):
    """Accumulating each encoder pulse times the operand is exact
    integer multiplication."""
    encoder = TemporalEncoder()
    encoder.load(value)
    total = 0
    while encoder.busy:
        total += encoder.tick() * operand
    assert total == value * operand
