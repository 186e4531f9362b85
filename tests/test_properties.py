"""Cross-module property-based tests on the core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.geometry import Rect
from repro.android.layers import DrawOp, Layer, Scene, solid_quad
from repro.core import features
from repro.core.classifier import build_model
from repro.gpu import counters as pc
from repro.gpu.adreno import adreno
from repro.gpu.pipeline import AdrenoPipeline
from repro.gpu.timeline import FrameRender, RenderTimeline
from tests.oracles import PcDelta, merge, merge_increments, scaled

PIPE = AdrenoPipeline(adreno(650))


def rects(max_coord=300, max_size=150):
    return st.builds(
        Rect.from_size,
        st.integers(0, max_coord),
        st.integers(0, max_coord),
        st.integers(1, max_size),
        st.integers(1, max_size),
    )


ops = st.builds(
    DrawOp,
    rect=rects(),
    coverage=st.floats(0.05, 1.0),
    primitives=st.integers(1, 30),
    opaque=st.booleans(),
    textured=st.booleans(),
)


class TestPipelineProperties:
    @given(st.lists(ops, min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_counters_are_nonnegative(self, op_list):
        scene = Scene([Layer("l", ops=op_list)])
        stats = PIPE.render(scene)
        assert all(v >= 0 for v in stats.increment.values.values())
        assert stats.render_time_s > 0

    @given(st.lists(ops, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_opaque_top_layer_never_increases_visible_pixels(self, op_list):
        base = Scene([Layer("l", ops=op_list)])
        covered = Scene(
            [Layer("l", ops=list(op_list)), Layer("top").add(solid_quad(Rect(0, 0, 500, 500)))]
        )
        base_visible = PIPE.render(base).increment.get(pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ)
        top_quad = PIPE.render(
            Scene([Layer("only").add(solid_quad(Rect(0, 0, 500, 500)))])
        ).increment.get(pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ)
        covered_visible = PIPE.render(covered).increment.get(
            pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ
        )
        # occluded scene shows at most the occluder plus what peeks out
        assert covered_visible <= base_visible + top_quad

    @given(st.lists(ops, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_vpc_counts_all_primitives_regardless_of_occlusion(self, op_list):
        scene = Scene(
            [Layer("l", ops=list(op_list)), Layer("top").add(solid_quad(Rect(0, 0, 500, 500)))]
        )
        total_prims = sum(op.primitives for op in op_list) + 2
        assert PIPE.render(scene).increment.get(pc.VPC_PC_PRIMITIVES) == total_prims

    @given(st.lists(ops, min_size=1, max_size=4), st.lists(ops, min_size=1, max_size=4))
    @settings(max_examples=30)
    def test_rendering_is_superadditive_under_concatenation(self, a, b):
        """Two scenes rendered separately never produce fewer counters than
        their single-layer union rendered once (occlusion only removes)."""
        merged = Scene([Layer("l", ops=a + b)])
        separate = merge_increments(
            PIPE.render(Scene([Layer("l", ops=a)])).increment,
            PIPE.render(Scene([Layer("l", ops=b)])).increment,
        )
        merged_inc = PIPE.render(merged).increment
        for counter_id, value in merged_inc.values.items():
            assert value <= separate.values.get(counter_id, 0) + 1  # rounding slack


class TestTimelineProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 5), st.integers(1, 500), st.floats(0.0001, 0.01)),
            min_size=1,
            max_size=15,
        ),
        st.lists(st.floats(0, 6), min_size=2, max_size=10),
    )
    @settings(max_examples=40)
    def test_deltas_between_any_times_are_nonnegative(self, frames, times):
        timeline = RenderTimeline()
        for start, amount, duration in frames:
            inc = pc.CounterIncrement()
            inc.add(pc.RAS_8X4_TILES, amount)
            from repro.gpu.pipeline import FrameStats

            timeline.add_render(
                start,
                FrameStats(increment=inc, pixels_touched=amount, render_time_s=duration),
            )
        ordered = sorted(times)
        values = [timeline.values_at(t)[pc.RAS_8X4_TILES.counter_id] for t in ordered]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @given(st.integers(1, 1000), st.floats(0.001, 0.02))
    @settings(max_examples=40)
    def test_split_parts_always_sum_to_total(self, amount, duration):
        from repro.gpu.pipeline import FrameStats

        timeline = RenderTimeline()
        inc = pc.CounterIncrement()
        inc.add(pc.RAS_8X4_TILES, amount)
        timeline.add_render(
            1.0, FrameStats(increment=inc, pixels_touched=amount, render_time_s=duration)
        )
        mid = 1.0 + duration / 3
        cid = pc.RAS_8X4_TILES.counter_id
        first = timeline.values_at(mid)[cid] - timeline.values_at(0.5)[cid]
        second = timeline.values_at(2.0)[cid] - timeline.values_at(mid)[cid]
        assert first + second == amount


class TestDeltaAlgebra:
    CID = pc.RAS_8X4_TILES.counter_id

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_merge_is_commutative_in_values(self, a, b):
        da = PcDelta(t=1.0, prev_t=0.9, values={self.CID: a})
        db = PcDelta(t=1.1, prev_t=1.0, values={self.CID: b})
        assert merge(db, da).values == {self.CID: a + b}

    @given(st.integers(0, 10**6))
    def test_scaled_by_one_is_identity(self, a):
        d = PcDelta(t=1.0, prev_t=0.9, values={self.CID: a})
        assert scaled(d, 1.0).values == d.values

    @given(st.integers(0, 10**6), st.floats(0.0, 1.0))
    def test_scaling_never_exceeds_original(self, a, factor):
        d = PcDelta(t=1.0, prev_t=0.9, values={self.CID: a})
        assert scaled(d, factor).values[self.CID] <= a + 1


class TestClassifierProperties:
    @given(
        st.lists(
            st.tuples(st.text(alphabet="abcdef", min_size=1, max_size=1), st.integers(0, 10)),
            min_size=2,
            max_size=6,
            unique_by=lambda x: x[0],
        )
    )
    @settings(max_examples=40)
    def test_training_samples_classify_to_their_own_class(self, class_spec):
        samples = {}
        for i, (char, jitter) in enumerate(class_spec):
            base = np.zeros(features.DIMENSIONS)
            base[0] = 1000.0 * (i + 1)
            base[1] = 77.0 * (i + 1)
            jittered = base.copy()
            jittered[0] += jitter  # intra-class spread along one axis
            samples[f"key:{char}"] = [base, jittered]
        model = build_model(samples, model_key="prop")
        for label, vectors in samples.items():
            for vec in vectors:
                assert model.classify(vec).label == label

    @given(st.floats(1.0, 100.0))
    def test_serialization_roundtrip_preserves_decisions(self, spread):
        a = np.zeros(features.DIMENSIONS)
        b = np.zeros(features.DIMENSIONS)
        b[0] = 100.0 * spread
        from repro.core.classifier import ClassificationModel

        model = build_model({"key:a": [a], "key:b": [b]}, model_key="rt")
        clone = ClassificationModel.from_json(model.to_json())
        probe = b * 0.98
        assert model.classify(probe).label == clone.classify(probe).label

    @given(st.floats(0.0, 3.0))
    def test_deflation_keeps_orthogonal_separation(self, direction_weight):
        """Deflating along any direction never makes two centroids that
        differ orthogonally to it indistinguishable."""
        a = np.zeros(features.DIMENSIONS)
        b = np.zeros(features.DIMENSIONS)
        b[1] = 500.0  # separation lives on axis 1
        a[0] = b[0] = 100.0 * direction_weight
        model = build_model({"key:a": [a], "key:b": [b]}, model_key="d")
        direction = np.zeros(features.DIMENSIONS)
        direction[0] = 1.0
        deflated = model.with_deflation(direction)
        assert deflated.classify(b).label == "key:b"
        assert deflated.classify(a).label == "key:a"
