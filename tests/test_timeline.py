"""Tests for the render timeline and split-read mechanics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import (
    COUNTER_ORDER,
    FrameRender,
    RenderTimeline,
    increment_row,
    merge_timelines,
)
from tests import oracles


def make_stats(amount=100, render_time=0.001, spec=pc.RAS_8X4_TILES):
    inc = pc.CounterIncrement()
    inc.add(spec, amount)
    return FrameStats(increment=inc, pixels_touched=amount, render_time_s=render_time)


CID = pc.RAS_8X4_TILES.counter_id


def frame_list(timeline):
    """The per-frame oracle timeline holding ``timeline``'s frames."""
    oracle = oracles.FrameListTimeline()
    for frame in timeline.frames:
        oracle.add(frame)
    return oracle


#: A frame: start, render time (zero-duration frames included) and an
#: increment of one to four counters.
frame_specs = st.tuples(
    st.floats(0, 5),
    st.one_of(st.just(0.0), st.floats(0, 0.05)),
    st.dictionaries(
        st.sampled_from(pc.SELECTED_COUNTERS), st.integers(0, 100_000), min_size=1, max_size=4
    ),
)


def frame(start_s, render_time_s, amount=100):
    return FrameRender(start_s, render_time_s, make_stats(amount).increment)


class TestFrameRender:
    def test_end_time(self):
        assert frame(1.0, 0.002).end_s == pytest.approx(1.002)

    def test_progress_clamps(self):
        f = frame(1.0, 0.002)
        assert f.progress(0.5) == 0.0
        assert f.progress(1.001) == pytest.approx(0.5)
        assert f.progress(2.0) == 1.0

    def test_zero_duration_completes_instantly(self):
        assert frame(1.0, 0.0).progress(1.0 + 1e-12) == 1.0


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


class TestValuesAtMany:
    @given(
        st.lists(frame_specs, max_size=25),
        st.lists(st.floats(-0.5, 5.5), max_size=20),
    )
    @settings(max_examples=200)
    # a read exactly at a frame's start and one exactly at its end
    @example([(1.0, 0.01, {pc.RAS_8X4_TILES: 997})], [1.0, 1.01, 1.005])
    # a zero-duration frame read at its start
    @example([(2.0, 0.0, {pc.RAS_8X4_TILES: 5}), (2.0, 0.004, {pc.RAS_8X4_TILES: 7})], [2.0])
    def test_matches_the_scalar_loop(self, frames, extra_times):
        """Out-of-order adds, reads at every start_s and end_s, and the
        empty timeline: each row equals the scalar loop at its time."""
        timeline = RenderTimeline()
        for start, render_time, amounts in frames:
            inc = pc.CounterIncrement()
            for spec, amount in amounts.items():
                inc.add(spec, amount)
            timeline.add_render(
                start, FrameStats(increment=inc, pixels_touched=0, render_time_s=render_time)
            )
        times = [f.start_s for f in timeline.frames] + [f.end_s for f in timeline.frames]
        times += extra_times
        rows = timeline.values_at_many(times)
        assert rows.dtype == np.int64
        assert rows.shape == (len(times), len(COUNTER_ORDER))
        oracle = frame_list(timeline)
        for k, t in enumerate(times):
            assert rows[k].tolist() == oracle.values_at(t), t
            assert timeline.values_at(t) == dict(zip(COUNTER_ORDER, rows[k].tolist()))


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


#: A labelled frame: start drawn from a coarse grid, so equal starts are
#: common, render time zero or positive, and up to three counters.
grid_frames = st.tuples(
    st.integers(0, 8).map(lambda k: k * 0.25),
    st.one_of(st.just(0.0), st.floats(0.0001, 0.6)),
    st.dictionaries(st.sampled_from(pc.SELECTED_COUNTERS), st.integers(1, 10**6), max_size=3),
)


class TestColumnarAppends:
    """Any mix of one-row and block appends, with queries in between,
    builds the timeline the per-frame list builds."""

    @given(
        st.lists(st.tuples(st.booleans(), st.lists(grid_frames, max_size=6)), max_size=5),
        st.lists(st.floats(-0.5, 3.0), max_size=8),
    )
    @settings(max_examples=200)
    # equal starts across two blocks, a query between them
    @example(
        [(False, [(0.5, 0.1, {pc.RAS_8X4_TILES: 3})]), (True, [(0.5, 0.0, {pc.RAS_8X4_TILES: 4})])],
        [0.5, 0.55],
    )
    def test_any_mix_of_appends_matches_the_frame_list(self, blocks, times):
        timeline, oracle = RenderTimeline(), oracles.FrameListTimeline()
        count = 0
        for one_row, specs in blocks:
            frames = []
            for start, render_time, amounts in specs:
                inc = pc.CounterIncrement()
                for spec, amount in amounts.items():
                    inc.add(spec, amount)
                frames.append(FrameRender(start, render_time, inc, label=f"f{count}"))
                count += 1
            if one_row:
                for f in frames:
                    stats = FrameStats(f.increment, 0, f.render_time_s)
                    timeline.add_render(f.start_s, stats, f.label)
            else:
                timeline.append(
                    [f.start_s for f in frames],
                    [f.render_time_s for f in frames],
                    np.array([increment_row(f.increment) for f in frames]).reshape(-1, 11),
                    [f.label for f in frames],
                )
            for f in frames:
                oracle.add(f)
            # a query between appends: the next one merges into sorted rows
            timeline.values_at_many(times)

        assert timeline.frames == oracle.frames
        assert timeline.labels == [f.label for f in oracle.frames]
        assert timeline.values_at_many(times).tolist() == [oracle.values_at(t) for t in times]
        for t0 in times:
            for width in (0.0, 0.1, 1.0):
                assert timeline.frames_overlapping(t0, t0 + width) == oracle.frames_overlapping(
                    t0, t0 + width
                )
        assert timeline.end_time_s == max((f.end_s for f in oracle.frames), default=0.0)

    def test_merge_keeps_each_timelines_order_on_equal_starts(self):
        a, b = RenderTimeline(), RenderTimeline()
        a.add_render(1.0, make_stats(1), label="a0")
        b.add_render(1.0, make_stats(2), label="b0")
        a.add_render(1.0, make_stats(3), label="a1")
        b.add_render(0.5, make_stats(4), label="b1")
        assert merge_timelines([a, b]).labels == ["b1", "a0", "a1", "b0"]
