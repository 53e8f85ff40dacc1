"""Tests for the declarative DSE search spaces (repro.dse.space)."""

import pytest

from repro.dse.space import (
    AXIS_KEYS,
    Axis,
    DesignPoint,
    axis,
    default_space,
    grid,
    parse_axis,
    space_from_options,
    union,
    zip_axes,
)
from repro.gpu import PAPER_DESIGN_OPTIONS, DesignOption


class TestAxis:
    def test_gpu_axis_values_coerced_to_float(self):
        ax = axis("num_sm", 1, 2, 4)
        assert ax.values == (1.0, 2.0, 4.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            Axis("warp_size", (1.0,))

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            Axis("num_sm", ())

    def test_non_positive_multiplier_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Axis("dram_bw", (1.0, 0.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_multiplier_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Axis("num_sm", (1.0, value))
        with pytest.raises(ValueError, match="finite"):
            parse_axis(f"num_sm=1,{value}")

    def test_passes_axis_normalized(self):
        ax = Axis("passes", ("Forward", "TRAINING"))
        assert ax.values == ("forward", "training")
        with pytest.raises(ValueError):
            Axis("passes", ("sideways",))

    def test_every_documented_key_accepted(self):
        for key in AXIS_KEYS:
            values = {"network": ("alexnet",), "passes": ("forward",)}.get(
                key, (2,))
            Axis(key, values)


class TestGridSpace:
    def test_size_is_product_of_axis_lengths(self):
        space = grid({"num_sm": (1, 2), "dram_bw": (1, 1.5, 2)})
        assert len(space) == 6
        assert len(space.points()) == 6

    def test_enumeration_is_deterministic(self):
        space = grid({"num_sm": (1, 2), "mac_bw": (1, 2, 4),
                      "cta_tile": (128, 256)})
        first = [p.point_hash() for p in space.points()]
        second = [p.point_hash() for p in space.points()]
        assert first == second

    def test_points_lower_through_design_option(self):
        space = grid({"num_sm": (2,), "dram_bw": (1.5,)})
        point = space.points()[0]
        assert isinstance(point.option, DesignOption)
        assert point.option.num_sm == 2.0
        assert point.option.dram_bw == 1.5
        assert point.name == "num_sm=2,dram_bw=1.5"

    def test_identity_point_named_baseline(self):
        point = grid({"num_sm": (1.0,)}).points()[0]
        assert point.name == "baseline"

    def test_workload_axes_expand(self):
        space = grid({"num_sm": (1, 2), "network": ("alexnet", "vgg16"),
                      "batch": (32, 64)})
        assert len(space) == 8
        networks = {p.network for p in space.points()}
        assert networks == {"alexnet", "vgg16"}

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            grid([axis("num_sm", 1, 2), axis("num_sm", 4)])

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            grid({})


class TestZipSpace:
    def test_one_point_per_column(self):
        space = zip_axes({"num_sm": (1, 2, 4), "dram_bw": (1, 1.5, 2)})
        assert len(space) == 3
        point = space.points()[1]
        assert point.option.num_sm == 2.0
        assert point.option.dram_bw == 1.5

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            zip_axes({"num_sm": (1, 2), "dram_bw": (1, 1.5, 2)})


class TestUnionSpace:
    def test_concatenates_in_order(self):
        a = grid({"num_sm": (2,)})
        b = grid({"mac_bw": (4,)})
        merged = union(a, b)
        assert [p.name for p in merged.points()] == ["num_sm=2", "mac_bw=4"]

    def test_dedupes_by_content(self):
        a = grid({"num_sm": (1, 2)})
        b = grid({"num_sm": (2, 4)})
        merged = union(a, b)
        assert len(merged.points()) == 3

    def test_or_operator(self):
        merged = grid({"num_sm": (2,)}) | grid({"mac_bw": (4,)})
        assert len(merged.points()) == 2

    def test_nested_unions_flatten(self):
        merged = union(union(grid({"num_sm": (2,)}), grid({"mac_bw": (4,)})),
                       grid({"dram_bw": (2,)}))
        assert len(merged.spaces) == 3


class TestDesignPoint:
    def test_point_hash_ignores_option_name(self):
        a = DesignPoint(option=DesignOption("a", num_sm=2.0))
        b = DesignPoint(option=DesignOption("b", num_sm=2.0))
        assert a.point_hash() == b.point_hash()

    def test_point_hash_sensitive_to_design_and_workload(self):
        base = DesignPoint(option=DesignOption("x", num_sm=2.0))
        assert base.point_hash() != DesignPoint(
            option=DesignOption("x", num_sm=4.0)).point_hash()
        assert base.point_hash() != DesignPoint(
            option=DesignOption("x", num_sm=2.0), batch=128).point_hash()
        assert base.point_hash() != DesignPoint(
            option=DesignOption("x", num_sm=2.0), passes="wgrad").point_hash()

    def test_baseline_point_shares_workload(self):
        point = DesignPoint(option=DesignOption("x", mac_bw=4.0),
                            network="alexnet", batch=32, passes="training")
        baseline = point.baseline_point()
        assert baseline.workload_signature() == point.workload_signature()
        assert baseline.option.mac_bw == 1.0


class TestHelpers:
    def test_space_from_options_preserves_order_and_names(self):
        space = space_from_options(PAPER_DESIGN_OPTIONS, network="resnet152",
                                   batch=256)
        assert [p.name for p in space.points()] == [
            opt.name for opt in PAPER_DESIGN_OPTIONS]

    def test_default_space_has_documented_size(self):
        assert len(default_space(networks=("alexnet",), batches=(32,))) == 162
        assert len(default_space(networks=("alexnet", "vgg16"),
                                 batches=(32,))) == 324

    def test_default_space_appends_only_unswept_workload_axes(self):
        space = default_space(networks=("alexnet", "vgg16"), batches=(8, 16),
                              axes=[Axis("num_sm", (1, 2)),
                                    Axis("batch", (4,))])
        assert [ax.key for ax in space.axes] == ["num_sm", "batch", "network"]
        assert len(space) == 4
        assert {p.batch for p in space.points()} == {4}
        assert space.base.network == "alexnet"

    def test_parse_axis(self):
        ax = parse_axis("num_sm=1,2,4")
        assert ax.key == "num_sm"
        assert ax.values == (1.0, 2.0, 4.0)
        assert parse_axis("cta_tile=128,256").values == (128, 256)

    def test_parse_axis_malformed(self):
        with pytest.raises(ValueError, match="malformed axis"):
            parse_axis("num_sm")
        with pytest.raises(ValueError, match="malformed axis"):
            parse_axis("num_sm=")
