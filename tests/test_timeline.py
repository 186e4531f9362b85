"""Tests for the render timeline and split-read mechanics."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import COUNTER_ORDER, FrameRender, RenderTimeline, merge_timelines


def make_stats(amount=100, render_time=0.001, spec=pc.RAS_8X4_TILES):
    inc = pc.CounterIncrement()
    inc.add(spec, amount)
    return FrameStats(increment=inc, pixels_touched=amount, render_time_s=render_time)


CID = pc.RAS_8X4_TILES.counter_id


class TestFrameRender:
    def test_end_time(self):
        frame = FrameRender(start_s=1.0, stats=make_stats(render_time=0.002))
        assert frame.end_s == pytest.approx(1.002)

    def test_progress_clamps(self):
        frame = FrameRender(start_s=1.0, stats=make_stats(render_time=0.002))
        assert frame.progress(0.5) == 0.0
        assert frame.progress(1.001) == pytest.approx(0.5)
        assert frame.progress(2.0) == 1.0

    def test_zero_duration_completes_instantly(self):
        frame = FrameRender(start_s=1.0, stats=make_stats(render_time=0.0))
        assert frame.progress(1.0 + 1e-12) == 1.0


class TestValuesAt:
    def test_empty_timeline_reads_zero(self):
        timeline = RenderTimeline()
        values = timeline.values_at(5.0)
        assert all(v == 0 for v in values.values())
        assert set(values) == set(COUNTER_ORDER)

    def test_before_first_frame_is_zero(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, make_stats(100))
        assert timeline.values_at(0.5)[CID] == 0

    def test_after_frame_full_increment(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, make_stats(100, render_time=0.001))
        assert timeline.values_at(1.5)[CID] == 100

    def test_mid_render_partial_accrual(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, make_stats(100, render_time=0.010))
        assert timeline.values_at(1.005)[CID] == 50

    def test_split_parts_sum_exactly(self):
        """The two halves of a split read must sum to the full increment
        (Algorithm 1's recombination relies on this)."""
        timeline = RenderTimeline()
        timeline.add_render(1.0, make_stats(997, render_time=0.010))
        before = timeline.values_at(0.999)[CID]
        mid = timeline.values_at(1.003)[CID]
        after = timeline.values_at(1.2)[CID]
        assert (mid - before) + (after - mid) == 997

    def test_multiple_frames_accumulate(self):
        timeline = RenderTimeline()
        for i in range(5):
            timeline.add_render(float(i), make_stats(10, render_time=0.001))
        assert timeline.values_at(10.0)[CID] == 50

    def test_out_of_order_insertion_is_sorted(self):
        timeline = RenderTimeline()
        timeline.add_render(2.0, make_stats(10, render_time=0.001))
        timeline.add_render(1.0, make_stats(5, render_time=0.001))
        assert timeline.values_at(1.5)[CID] == 5
        assert timeline.values_at(3.0)[CID] == 15

    @given(st.lists(st.tuples(st.floats(0, 10), st.integers(1, 1000)), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_values_monotone_in_time(self, frames):
        timeline = RenderTimeline()
        for start, amount in frames:
            timeline.add_render(start, make_stats(amount, render_time=0.005))
        times = sorted({t for t, _ in frames} | {0.0, 5.0, 10.0, 11.0})
        values = [timeline.values_at(t)[CID] for t in times]
        assert values == sorted(values)

    @given(st.lists(st.tuples(st.floats(0, 5), st.integers(1, 500)), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_final_value_is_total(self, frames):
        timeline = RenderTimeline()
        total = 0
        for start, amount in frames:
            timeline.add_render(start, make_stats(amount, render_time=0.002))
            total += amount
        assert timeline.values_at(100.0)[CID] == total


class TestQueries:
    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.floats(0, 2)), min_size=0, max_size=30
        ),
        st.floats(-1, 12),
        st.floats(0, 3),
    )
    @settings(max_examples=200)
    # evenly spaced short frames, window cutting mid-sequence
    @example([(float(i), 0.001) for i in range(10)], 2.5, 3.0)
    # a long frame that starts before t0 and ends inside the window
    @example([(0.0, 1.5), (1.2, 0.001), (3.0, 0.2)], 1.0, 1.0)
    def test_frames_overlapping_matches_brute_force(self, frames, t0, width):
        timeline = RenderTimeline()
        for i, (start, render_time) in enumerate(frames):
            timeline.add_render(start, make_stats(1, render_time=render_time), label=f"f{i}")
        t1 = t0 + width
        expected = [
            f for f in sorted(timeline.frames, key=lambda f: f.start_s)
            if f.start_s < t1 and f.end_s > t0
        ]
        assert timeline.frames_overlapping(t0, t1) == expected

    def test_end_time(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, make_stats(1, render_time=0.25))
        timeline.add_render(2.0, make_stats(1, render_time=0.003))
        assert timeline.end_time_s == pytest.approx(2.003)

    def test_busy_fraction(self):
        timeline = RenderTimeline()
        timeline.add_render(0.0, make_stats(1, render_time=0.5))
        assert timeline.busy_fraction(0.0, 1.0) == pytest.approx(0.5)
        assert timeline.busy_fraction(2.0, 3.0) == 0.0

    def test_busy_fraction_capped_at_one(self):
        timeline = RenderTimeline()
        timeline.add_render(0.0, make_stats(1, render_time=1.0))
        timeline.add_render(0.0, make_stats(1, render_time=1.0))
        assert timeline.busy_fraction(0.0, 1.0) == 1.0

    def test_merge_timelines(self):
        a = RenderTimeline()
        a.add_render(1.0, make_stats(10))
        b = RenderTimeline()
        b.add_render(0.5, make_stats(5))
        merged = merge_timelines([a, b])
        assert merged.values_at(2.0)[CID] == 15
        assert [f.start_s for f in merged.frames] == [0.5, 1.0]
