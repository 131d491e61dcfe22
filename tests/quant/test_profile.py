"""Tests for per-layer precision profiles."""

import pytest

from repro.errors import PrecisionError
from repro.quant.profile import (
    MIXED_EDGE,
    MIXED_INT2,
    PROFILES,
    UNIFORM_INT2,
    UNIFORM_INT4,
    UNIFORM_INT8,
    PrecisionProfile,
    precision_profile,
    uniform_profile,
)
from repro.utils.intrange import INT2, INT4, INT8


def layer_specs(profile, count):
    """The profile's per-layer formats for a ``count``-layer network."""
    return tuple(profile.spec_for(index, count) for index in range(count))


class TestRegistry:
    def test_named_profiles_present(self):
        assert set(PROFILES) == {
            "int8",
            "int4",
            "int2",
            "mixed",
            "mixed_int2",
        }

    def test_uniform_members(self):
        assert UNIFORM_INT8.interior is INT8
        assert UNIFORM_INT8.is_uniform
        assert UNIFORM_INT2.widest is INT2

    def test_mixed_edge_recipe(self):
        """The standard edge recipe: INT8 first/last, INT4 interior."""
        assert MIXED_EDGE.first is INT8
        assert MIXED_EDGE.last is INT8
        assert MIXED_EDGE.interior is INT4
        assert not MIXED_EDGE.is_uniform
        assert MIXED_EDGE.widest is INT8

    def test_mixed_int2_recipe(self):
        assert MIXED_INT2.interior is INT2
        assert MIXED_INT2.widest is INT8


class TestResolution:
    def test_profile_passthrough(self):
        assert precision_profile(MIXED_EDGE) is MIXED_EDGE

    def test_registry_name(self):
        assert precision_profile("mixed") is MIXED_EDGE
        assert precision_profile("MIXED") is MIXED_EDGE
        assert precision_profile("int4") is UNIFORM_INT4

    def test_uniform_from_spec_width_and_name(self):
        assert precision_profile(INT4) == UNIFORM_INT4
        assert precision_profile(8) == UNIFORM_INT8
        assert precision_profile("INT2") == UNIFORM_INT2

    def test_nonstandard_uniform_width(self):
        profile = precision_profile(6)
        assert profile.is_uniform
        assert profile.interior.width == 6

    def test_unknown_name_raises(self):
        with pytest.raises(PrecisionError):
            precision_profile("FP16")

    def test_uniform_profile_reuses_registry(self):
        assert uniform_profile(INT8) is UNIFORM_INT8


class TestLayerSpecs:
    def test_uniform_everywhere(self):
        assert layer_specs(UNIFORM_INT4, 4) == (INT4,) * 4

    def test_mixed_first_last_override(self):
        assert layer_specs(MIXED_EDGE, 5) == (
            INT8,
            INT4,
            INT4,
            INT4,
            INT8,
        )

    def test_two_layer_network_is_all_edges(self):
        assert layer_specs(MIXED_EDGE, 2) == (INT8, INT8)

    def test_single_layer_network(self):
        assert layer_specs(MIXED_EDGE, 1) == (INT8,)

    def test_bad_index_and_count_raise(self):
        with pytest.raises(PrecisionError):
            MIXED_EDGE.spec_for(0, 0)
        with pytest.raises(PrecisionError):
            MIXED_EDGE.spec_for(3, 3)
        with pytest.raises(PrecisionError):
            MIXED_EDGE.spec_for(-1, 3)


class TestNormalisationAndDescribe:
    def test_redundant_overrides_normalise_to_uniform(self):
        profile = PrecisionProfile("custom", INT4, first=INT4, last="INT4")
        assert profile.is_uniform
        assert profile.first is None and profile.last is None

    def test_describe(self):
        assert UNIFORM_INT4.describe() == "INT4"
        assert MIXED_EDGE.describe() == "INT8/INT4/INT8"
        assert MIXED_INT2.describe() == "INT8/INT2/INT8"

    def test_specs_resolved_from_names(self):
        profile = PrecisionProfile("custom", "INT2", first=8)
        assert profile.interior is INT2
        assert profile.first is INT8

    def test_empty_name_rejected(self):
        with pytest.raises(PrecisionError):
            PrecisionProfile("", INT8)

    def test_widest_considers_overrides(self):
        profile = PrecisionProfile("custom", INT2, first=INT4)
        assert profile.widest is INT4
