"""Tests for the Adreno pipeline model and counter registry."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.geometry import Rect
from repro.android.layers import DrawOp, Layer, Scene, solid_quad
from repro.gpu import counters as pc
from repro.gpu.adreno import ADRENO_MODELS, LRZ_BLOCK, RAS_BLOCK, adreno
from repro.gpu.pipeline import AdrenoPipeline


@pytest.fixture(scope="module")
def pipeline():
    return AdrenoPipeline(adreno(650))


def scene_with(*layers):
    return Scene(list(layers))


class TestCounterRegistry:
    def test_table1_has_eleven_counters(self):
        assert len(pc.SELECTED_COUNTERS) == 11

    def test_table1_ids_exact(self):
        """Group/countable pairs exactly as printed in the paper's Table 1."""
        expected = {
            ("PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ", pc.CounterGroup.LRZ, 13),
            ("PERF_LRZ_FULL_8X8_TILES", pc.CounterGroup.LRZ, 14),
            ("PERF_LRZ_PARTIAL_8X8_TILES", pc.CounterGroup.LRZ, 15),
            ("PERF_LRZ_VISIBLE_PIXEL_AFTER_LRZ", pc.CounterGroup.LRZ, 18),
            ("PERF_RAS_SUPERTILE_ACTIVE_CYCLES", pc.CounterGroup.RAS, 1),
            ("PERF_RAS_SUPER_TILES", pc.CounterGroup.RAS, 4),
            ("PERF_RAS_8X4_TILES", pc.CounterGroup.RAS, 5),
            ("PERF_RAS_FULLY_COVERED_8X4_TILES", pc.CounterGroup.RAS, 8),
            ("PERF_VPC_PC_PRIMITIVES", pc.CounterGroup.VPC, 9),
            ("PERF_VPC_SP_COMPONENTS", pc.CounterGroup.VPC, 10),
            ("PERF_VPC_LRZ_ASSIGN_PRIMITIVES", pc.CounterGroup.VPC, 12),
        }
        actual = {(s.name, s.group, s.countable) for s in pc.SELECTED_COUNTERS}
        assert actual == expected

    def test_group_ids_match_msm_kgsl_header(self):
        assert pc.CounterGroup.VPC == 0x5
        assert pc.CounterGroup.RAS == 0x7
        assert pc.CounterGroup.LRZ == 0x19


class TestCounterIncrement:
    def test_add_and_get(self):
        inc = pc.CounterIncrement()
        inc.add(pc.RAS_SUPER_TILES, 5)
        inc.add(pc.RAS_SUPER_TILES, 3)
        assert inc.get(pc.RAS_SUPER_TILES) == 8

    def test_negative_rejected(self):
        inc = pc.CounterIncrement()
        with pytest.raises(ValueError):
            inc.add(pc.RAS_SUPER_TILES, -1)

    def test_zero_add_is_noop(self):
        inc = pc.CounterIncrement()
        inc.add(pc.RAS_SUPER_TILES, 0)
        assert not inc

    def test_merge(self):
        a = pc.CounterIncrement()
        a.add(pc.RAS_SUPER_TILES, 2)
        b = pc.CounterIncrement()
        b.add(pc.RAS_SUPER_TILES, 3)
        b.add(pc.VPC_PC_PRIMITIVES, 7)
        merged = a.merge(b)
        assert merged.get(pc.RAS_SUPER_TILES) == 5
        assert merged.get(pc.VPC_PC_PRIMITIVES) == 7
        # originals untouched
        assert a.get(pc.RAS_SUPER_TILES) == 2

    def test_scaled(self):
        inc = pc.CounterIncrement()
        inc.add(pc.RAS_8X4_TILES, 100)
        assert inc.scaled(0.5).get(pc.RAS_8X4_TILES) == 50


class TestCounterBank:
    def test_apply_and_read(self):
        bank = pc.CounterBank()
        inc = pc.CounterIncrement()
        inc.add(pc.LRZ_FULL_8X8_TILES, 10)
        bank.apply(inc)
        bank.apply(inc)
        assert bank.read(pc.LRZ_FULL_8X8_TILES) == 20

    def test_wraparound_delta(self):
        before = {pc.LRZ_FULL_8X8_TILES.counter_id: pc.CounterBank.WRAP - 5}
        after = {pc.LRZ_FULL_8X8_TILES.counter_id: 10}
        assert pc.delta(before, after)[pc.LRZ_FULL_8X8_TILES.counter_id] == 15

    def test_snapshot_load_roundtrip(self):
        bank = pc.CounterBank()
        inc = pc.CounterIncrement()
        inc.add(pc.RAS_SUPER_TILES, 42)
        bank.apply(inc)
        other = pc.CounterBank()
        other.load(bank.snapshot())
        assert other.read(pc.RAS_SUPER_TILES) == 42


class TestPipeline:
    def test_deterministic(self, pipeline):
        scene = scene_with(Layer("l").add(solid_quad(Rect(0, 0, 100, 100))))
        a = pipeline.render(scene)
        b = pipeline.render(scene)
        assert a.increment.values == b.increment.values

    def test_vpc_counts_all_submitted_primitives(self, pipeline):
        layer = Layer("l")
        layer.add(DrawOp(rect=Rect(0, 0, 50, 50), primitives=6))
        layer.add(DrawOp(rect=Rect(0, 0, 50, 50), primitives=4))
        stats = pipeline.render(scene_with(layer))
        assert stats.increment.get(pc.VPC_PC_PRIMITIVES) == 10

    def test_lrz_assign_counts_only_opaque(self, pipeline):
        layer = Layer("l")
        layer.add(DrawOp(rect=Rect(0, 0, 50, 50), primitives=6, opaque=True))
        layer.add(DrawOp(rect=Rect(0, 0, 50, 50), primitives=4, opaque=False))
        stats = pipeline.render(scene_with(layer))
        assert stats.increment.get(pc.VPC_LRZ_ASSIGN_PRIMITIVES) == 6

    def test_occluded_layer_loses_visible_pixels(self, pipeline):
        bottom = Layer("bottom").add(solid_quad(Rect(0, 0, 100, 100)))
        top = Layer("top").add(solid_quad(Rect(0, 0, 100, 100)))
        occluded = pipeline.render(scene_with(bottom, top))
        alone = pipeline.render(scene_with(Layer("only").add(solid_quad(Rect(0, 0, 100, 100)))))
        # fully occluded bottom contributes nothing visible
        assert occluded.increment.get(pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ) == alone.increment.get(
            pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ
        )
        # but its primitives still went through the vertex stage
        assert occluded.increment.get(pc.VPC_PC_PRIMITIVES) == 2 * alone.increment.get(
            pc.VPC_PC_PRIMITIVES
        )

    def test_partial_occlusion_scales_visibility(self, pipeline):
        bottom = Layer("bottom").add(solid_quad(Rect(0, 0, 100, 100)))
        top = Layer("top").add(solid_quad(Rect(0, 0, 100, 50)))
        stats = pipeline.render(scene_with(bottom, top))
        # bottom: 5000 visible pixels; top: 5000 pixels
        assert stats.increment.get(pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ) == 10000

    def test_translucent_op_does_not_occlude(self, pipeline):
        bottom = Layer("bottom").add(solid_quad(Rect(0, 0, 100, 100)))
        top = Layer("top").add(
            DrawOp(rect=Rect(0, 0, 100, 100), coverage=0.5, opaque=False)
        )
        stats = pipeline.render(scene_with(bottom, top))
        assert stats.increment.get(pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ) == 10000 + 5000

    def test_sparse_glyph_coverage_reduces_full_tiles(self, pipeline):
        solid = scene_with(Layer("l").add(DrawOp(rect=Rect(0, 0, 64, 64), coverage=1.0)))
        sparse = scene_with(Layer("l").add(DrawOp(rect=Rect(0, 0, 64, 64), coverage=0.3)))
        s_full = pipeline.render(solid).increment.get(pc.LRZ_FULL_8X8_TILES)
        g_full = pipeline.render(sparse).increment.get(pc.LRZ_FULL_8X8_TILES)
        assert g_full < s_full

    def test_render_time_grows_with_pixels(self, pipeline):
        small = scene_with(Layer("l").add(solid_quad(Rect(0, 0, 50, 50))))
        large = scene_with(Layer("l").add(solid_quad(Rect(0, 0, 1000, 1000))))
        assert pipeline.render(large).render_time_s > pipeline.render(small).render_time_s

    def test_empty_scene_renders_empty(self, pipeline):
        stats = pipeline.render(Scene())
        assert stats.is_empty
        assert stats.pixels_touched == 0

    def test_supertile_counts_depend_on_gpu_model(self):
        scene = scene_with(Layer("l").add(solid_quad(Rect(0, 0, 512, 512))))
        st540 = AdrenoPipeline(adreno(540)).render(scene).increment.get(pc.RAS_SUPER_TILES)
        st660 = AdrenoPipeline(adreno(660)).render(scene).increment.get(pc.RAS_SUPER_TILES)
        # larger bins -> fewer supertiles
        assert st660 < st540

    def test_ras_cycles_positive_when_visible(self, pipeline):
        scene = scene_with(Layer("l").add(solid_quad(Rect(0, 0, 64, 64))))
        assert pipeline.render(scene).increment.get(pc.RAS_SUPERTILE_ACTIVE_CYCLES) > 0


@st.composite
def scenes(draw):
    """Random multi-layer scenes spanning the simulator's op shapes."""
    n_layers = draw(st.integers(min_value=1, max_value=4))
    layers = []
    for i in range(n_layers):
        layer = Layer(f"layer{i}")
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            left = draw(st.integers(min_value=-32, max_value=512))
            top = draw(st.integers(min_value=-32, max_value=512))
            width = draw(st.integers(min_value=0, max_value=256))
            height = draw(st.integers(min_value=0, max_value=256))
            layer.add(
                DrawOp(
                    rect=Rect(left, top, left + width, top + height),
                    coverage=draw(
                        st.one_of(
                            st.sampled_from([0.0, 0.3, 0.95, 1.0]),
                            st.floats(min_value=0.0, max_value=1.0),
                        )
                    ),
                    primitives=draw(st.integers(min_value=0, max_value=12)),
                    opaque=draw(st.booleans()),
                    textured=draw(st.booleans()),
                )
            )
        layers.append(layer)
    return Scene(layers)


class TestRenderParity:
    """The batched renderer must match the scalar reference exactly."""

    @given(scene=scenes())
    @settings(max_examples=150, deadline=None)
    def test_random_scenes_match_reference(self, scene):
        pipeline = AdrenoPipeline(adreno(650))
        fast = pipeline.render(scene)
        slow = pipeline.render_reference(scene)
        assert fast.increment.values == slow.increment.values
        assert fast.pixels_touched == slow.pixels_touched
        assert fast.render_time_s == slow.render_time_s

    @pytest.mark.parametrize("model", sorted(ADRENO_MODELS))
    def test_keyboard_like_scenes_match_on_every_model(self, model):
        rng = random.Random(model)
        pipeline = AdrenoPipeline(adreno(model))
        for _ in range(25):
            background = Layer("bg").add(solid_quad(Rect(0, 0, 1080, 2280)))
            keyboard = Layer("kbd").add(solid_quad(Rect(0, 1500, 1080, 2280)))
            for _ in range(rng.randint(1, 30)):
                x = rng.randrange(0, 1040)
                y = rng.randrange(1500, 2240)
                keyboard.add(
                    DrawOp(
                        rect=Rect(x, y, x + rng.randint(1, 90), y + rng.randint(1, 90)),
                        coverage=rng.choice([0.25, 0.5, 1.0]),
                        primitives=rng.randint(2, 8),
                        opaque=rng.random() < 0.5,
                        textured=rng.random() < 0.5,
                    )
                )
            popup = Layer("popup").add(solid_quad(Rect(400, 1400, 560, 1600)))
            scene = Scene([background, keyboard, popup])
            fast = pipeline.render(scene)
            slow = pipeline.render_reference(scene)
            assert fast.increment.values == slow.increment.values
            assert fast.pixels_touched == slow.pixels_touched

    def test_single_op_per_layer_matches(self):
        pipeline = AdrenoPipeline(adreno(640))
        scene = Scene(
            [
                Layer("a").add(DrawOp(rect=Rect(0, 0, 7, 3), coverage=0.5)),
                Layer("b").add(solid_quad(Rect(2, 1, 5, 9))),
            ]
        )
        fast = pipeline.render(scene)
        slow = pipeline.render_reference(scene)
        assert fast.increment.values == slow.increment.values


class TestAdrenoSpecs:
    def test_four_models(self):
        assert sorted(ADRENO_MODELS) == [540, 640, 650, 660]

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            adreno(730)

    def test_blocks_are_as_named_in_table1(self):
        assert LRZ_BLOCK == (8, 8)
        assert RAS_BLOCK == (8, 4)

    def test_newer_models_are_faster(self):
        assert adreno(660).fill_rate_gpix_s > adreno(540).fill_rate_gpix_s
        assert adreno(660).frame_overhead_us < adreno(540).frame_overhead_us

    def test_render_time_model(self):
        spec = adreno(650)
        assert spec.render_time_s(0) == pytest.approx(spec.frame_overhead_us * 1e-6)
        assert spec.render_time_s(10**7) > spec.render_time_s(10**5)
