"""Tests for the declarative sweep-spec layer."""

import pytest

from repro.errors import DataflowError
from repro.nvdla.config import CoreConfig
from repro.tune.spec import (
    SweepPoint,
    SweepSpec,
    describe_geometry,
    get_sweep,
    parse_geometry,
    registered_sweeps,
)


class TestParseGeometry:
    def test_string(self):
        assert parse_geometry("16x4") == (16, 4)

    def test_string_case_insensitive(self):
        assert parse_geometry("8X8") == (8, 8)

    def test_pair(self):
        assert parse_geometry((32, 32)) == (32, 32)

    def test_list_pair(self):
        assert parse_geometry([4, 8]) == (4, 8)

    def test_core_config(self):
        assert parse_geometry(CoreConfig(k=16, n=4)) == (16, 4)

    def test_rejects_malformed_string(self):
        with pytest.raises(DataflowError, match="KxN"):
            parse_geometry("16")
        with pytest.raises(DataflowError, match="two integers"):
            parse_geometry("axb")

    def test_rejects_non_pair(self):
        with pytest.raises(DataflowError, match="pair"):
            parse_geometry(16)

    def test_rejects_degenerate_geometry(self):
        # Validation is CoreConfig's: a 0-row array is nonsense.
        with pytest.raises(DataflowError, match="k must be >= 1"):
            parse_geometry("0x16")
        with pytest.raises(DataflowError, match="n must be >= 1"):
            parse_geometry((8, -1))

    def test_describe_roundtrip(self):
        assert describe_geometry(parse_geometry("16x4")) == "16x4"


class TestSweepPoint:
    def test_config_applies_geometry(self):
        point = SweepPoint(
            net="resnet18",
            backend="tempus",
            precision="int8",
            geometry=(8, 8),
        )
        base = CoreConfig(k=16, n=16, pipeline_latency=3)
        config = point.config(base)
        assert (config.k, config.n) == (8, 8)
        assert config.pipeline_latency == 3

    def test_config_reuses_base_when_geometry_matches(self):
        base = CoreConfig(k=16, n=16)
        point = SweepPoint(
            net="resnet18",
            backend="tempus",
            precision="int8",
            geometry=(16, 16),
        )
        assert point.config(base) is base

    def test_describe(self):
        point = SweepPoint(
            net="resnet18",
            backend="tempus",
            precision="int4",
            geometry=(16, 4),
        )
        assert point.describe() == "resnet18 @ tempus/int4/16x4"


class TestSweepSpec:
    def test_canonicalizes_axes(self):
        spec = SweepSpec(
            name="t",
            nets=("resnet18",),
            backends=("TEMPUS", "Binary/tubgemm/binary"),
            precisions=("INT8",),
            geometries=("16x16", (8, 8)),
        )
        assert spec.backends == ("tempus", "binary/tubgemm/binary")
        assert spec.precisions == ("int8",)
        assert spec.geometries == ((16, 16), (8, 8))

    def test_points_product_nets_outermost(self):
        spec = SweepSpec(
            name="t",
            nets=("mobilenet_v2", "resnet18"),
            backends=("binary", "tempus"),
            precisions=("int8", "int4"),
            geometries=("8x8",),
        )
        points = spec.points()
        assert len(points) == 8
        assert [p.net for p in points[:4]] == ["mobilenet_v2"] * 4
        assert points[0].backend == "binary"
        assert points[0].precision == "int8"
        assert points[1].precision == "int4"

    def test_rejects_unknown_net(self):
        with pytest.raises(DataflowError, match="unknown model"):
            SweepSpec(name="t", nets=("lenet",))

    def test_rejects_duplicate_backends_after_canonicalization(self):
        # Case variants canonicalize to the same backend name.
        with pytest.raises(DataflowError, match="duplicate backends"):
            SweepSpec(
                name="t",
                nets=("resnet18",),
                backends=("binary", "BINARY"),
            )

    def test_rejects_duplicate_precisions(self):
        with pytest.raises(
            DataflowError, match="duplicate precision"
        ):
            SweepSpec(
                name="t",
                nets=("resnet18",),
                precisions=("int8", "INT8"),
            )

    def test_rejects_duplicate_geometries(self):
        with pytest.raises(DataflowError, match="duplicate geometries"):
            SweepSpec(
                name="t",
                nets=("resnet18",),
                geometries=("16x16", (16, 16)),
            )

    def test_rejects_bad_batch_and_workers(self):
        with pytest.raises(DataflowError, match="batch must be >= 1"):
            SweepSpec(name="t", nets=("resnet18",), batch=0)
        with pytest.raises(
            DataflowError, match="worker counts must be >= 1"
        ):
            SweepSpec(name="t", nets=("resnet18",), workers=(1, 0))

    def test_workers_dedup_sorted(self):
        spec = SweepSpec(
            name="t", nets=("resnet18",), workers=(4, 1, 2, 4)
        )
        assert spec.workers == (1, 2, 4)

    def test_rejects_empty_axes(self):
        with pytest.raises(DataflowError, match=">= 1 net"):
            SweepSpec(name="t", nets=())
        with pytest.raises(DataflowError, match=">= 1 backend"):
            SweepSpec(name="t", nets=("resnet18",), backends=())
        with pytest.raises(DataflowError, match=">= 1 precision"):
            SweepSpec(name="t", nets=("resnet18",), precisions=())
        with pytest.raises(DataflowError, match=">= 1 geometry"):
            SweepSpec(name="t", nets=("resnet18",), geometries=())
        with pytest.raises(DataflowError, match="needs a name"):
            SweepSpec(name="", nets=("resnet18",))

    def test_axes_listing(self):
        spec = SweepSpec(
            name="t",
            nets=("resnet18",),
            geometries=("16x4",),
            workers=(1, 2),
        )
        axes = spec.axes()
        assert axes["geometries"] == ["16x4"]
        assert axes["workers"] == [1, 2]
        assert "nets=resnet18" in spec.describe_axes()
        assert "workers=1,2" in spec.describe_axes()


class TestRegistry:
    def test_default_sweeps_registered(self):
        names = {spec.name for spec in registered_sweeps()}
        assert names == {
            "serving", "backends", "llm", "pareto", "paper",
        }

    def test_get_sweep(self):
        assert get_sweep("pareto").geometries == (
            (8, 8), (16, 4), (16, 16), (32, 32),
        )

    def test_unknown_sweep_rejected(self):
        with pytest.raises(DataflowError, match="unknown sweep spec"):
            get_sweep("nope")
