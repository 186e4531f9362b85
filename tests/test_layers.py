"""Tests for the layered scene model."""

import pytest

from repro.android.geometry import Rect
from repro.android.layers import (
    QUAD_COMPONENTS_PER_VERTEX,
    TEXTURED_COMPONENTS_PER_VERTEX,
    DrawOp,
    Layer,
    Scene,
    solid_quad,
)


class TestDrawOp:
    def test_fragment_pixels_scaled_by_coverage(self):
        op = DrawOp(rect=Rect(0, 0, 10, 10), coverage=0.5)
        assert op.fragment_pixels == 50

    def test_invalid_coverage_rejected(self):
        with pytest.raises(ValueError):
            DrawOp(rect=Rect(0, 0, 1, 1), coverage=1.5)
        with pytest.raises(ValueError):
            DrawOp(rect=Rect(0, 0, 1, 1), coverage=-0.1)

    def test_negative_primitives_rejected(self):
        with pytest.raises(ValueError):
            DrawOp(rect=Rect(0, 0, 1, 1), primitives=-1)

    def test_vertices_per_quad(self):
        assert DrawOp(rect=Rect(0, 0, 1, 1), primitives=2).vertices == 4
        assert DrawOp(rect=Rect(0, 0, 1, 1), primitives=6).vertices == 12

    def test_vertex_components_plain_vs_textured(self):
        plain = DrawOp(rect=Rect(0, 0, 1, 1), primitives=2)
        textured = DrawOp(rect=Rect(0, 0, 1, 1), primitives=2, textured=True)
        assert plain.vertex_components == 4 * QUAD_COMPONENTS_PER_VERTEX
        assert textured.vertex_components == 4 * TEXTURED_COMPONENTS_PER_VERTEX

    def test_solid_quad_is_opaque_full_coverage(self):
        op = solid_quad(Rect(0, 0, 4, 4))
        assert op.opaque and op.coverage == 1.0 and op.primitives == 2


class TestLayer:
    def test_opaque_rects_only_from_opaque_ops(self):
        layer = Layer("l")
        layer.add(solid_quad(Rect(0, 0, 10, 10)))
        layer.add(DrawOp(rect=Rect(0, 0, 5, 5), coverage=0.5, opaque=False))
        assert layer.opaque_rects() == [Rect(0, 0, 10, 10)]

    def test_primitive_and_pixel_totals(self):
        layer = Layer("l")
        layer.add(DrawOp(rect=Rect(0, 0, 10, 10), primitives=4))
        layer.add(DrawOp(rect=Rect(0, 0, 10, 10), primitives=2, coverage=0.5))
        assert layer.primitives == 6
        assert layer.fragment_pixels == 150

    def test_bounds(self):
        layer = Layer("l")
        layer.add(solid_quad(Rect(0, 0, 5, 5)))
        layer.add(solid_quad(Rect(10, 10, 20, 20)))
        assert layer.bounds() == Rect(0, 0, 20, 20)

    def test_add_chains(self):
        layer = Layer("l").add(solid_quad(Rect(0, 0, 1, 1))).add(solid_quad(Rect(1, 1, 2, 2)))
        assert len(layer.ops) == 2


class TestScene:
    def _two_layer_scene(self):
        bottom = Layer("bottom")
        bottom.add(solid_quad(Rect(0, 0, 100, 100), label="bg"))
        top = Layer("top")
        top.add(solid_quad(Rect(25, 25, 75, 75), label="popup"))
        return Scene([bottom, top])

    def test_len_and_iter(self):
        scene = self._two_layer_scene()
        assert len(scene) == 2
        assert [layer.name for layer in scene] == ["bottom", "top"]

    def test_totals(self):
        scene = self._two_layer_scene()
        assert sum(layer.primitives for layer in scene) == 4
        assert sum(layer.fragment_pixels for layer in scene) == 100 * 100 + 50 * 50

    def test_occluders_are_only_from_layers_above(self):
        scene = self._two_layer_scene()
        entries = list(scene.ops_with_occluders())
        bottom_entry = entries[0]
        top_entry = entries[1]
        assert bottom_entry[1].label == "bg"
        assert bottom_entry[2] == [Rect(25, 25, 75, 75)]
        assert top_entry[1].label == "popup"
        assert top_entry[2] == []

    def test_same_layer_ops_do_not_occlude_each_other(self):
        layer = Layer("only")
        layer.add(solid_quad(Rect(0, 0, 10, 10), label="a"))
        layer.add(solid_quad(Rect(0, 0, 10, 10), label="b"))
        entries = list(Scene([layer]).ops_with_occluders())
        for _, _, occluders in entries:
            assert occluders == []

    def test_three_layer_occlusion_accumulates(self):
        l0 = Layer("0").add(solid_quad(Rect(0, 0, 10, 10)))
        l1 = Layer("1").add(solid_quad(Rect(0, 0, 5, 5)))
        l2 = Layer("2").add(solid_quad(Rect(5, 5, 10, 10)))
        entries = list(Scene([l0, l1, l2]).ops_with_occluders())
        assert sorted(map(str, entries[0][2])) == sorted(
            map(str, [Rect(0, 0, 5, 5), Rect(5, 5, 10, 10)])
        )
        assert entries[1][2] == [Rect(5, 5, 10, 10)]

    def test_push_returns_scene(self):
        scene = Scene().push(Layer("a")).push(Layer("b"))
        assert len(scene) == 2
