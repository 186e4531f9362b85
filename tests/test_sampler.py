"""Tests for the periodic counter sampler and the power model."""

import numpy as np
import pytest

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.core.features import counter_index
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import (
    DEFAULT_INTERVAL_S,
    IDLE,
    PerfCounterSampler,
    PowerModel,
    ReadBatch,
    SystemLoad,
    nonzero_deltas_vectorized,
)
from tests.oracles import PcDelta, deltas, merge, nonzero_deltas, sample_range, scaled, split


def timeline_with_frames(times, amount=100, render_time=0.0005):
    timeline = RenderTimeline()
    for t in times:
        inc = pc.CounterIncrement()
        inc.add(pc.RAS_8X4_TILES, amount)
        timeline.add_render(
            t, FrameStats(increment=inc, pixels_touched=amount, render_time_s=render_time)
        )
    return timeline


def make_sampler(timeline, seed=0, interval=DEFAULT_INTERVAL_S):
    dev = open_kgsl(timeline, clock=DeviceClock())
    return PerfCounterSampler(dev, interval_s=interval, rng=np.random.default_rng(seed))


CID = pc.RAS_8X4_TILES.counter_id


class TestSamplingLoop:
    def test_default_interval_is_8ms(self):
        assert DEFAULT_INTERVAL_S == pytest.approx(0.008)

    def test_sample_count_matches_duration(self):
        sampler = make_sampler(timeline_with_frames([]))
        samples = sample_range(sampler, 0.0, 1.0)
        assert 110 <= len(samples) <= 125  # 125 nominal ticks, some drop-free

    def test_read_times_strictly_increasing(self):
        sampler = make_sampler(timeline_with_frames([0.5]), seed=3)
        samples = sample_range(sampler, 0.0, 2.0)
        times = [s.t for s in samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_values_monotone(self):
        sampler = make_sampler(timeline_with_frames([0.1, 0.2, 0.3]))
        samples = sample_range(sampler, 0.0, 1.0)
        values = [s.values[CID] for s in samples]
        assert values == sorted(values)

    def test_total_delta_equals_rendered_amount(self):
        sampler = make_sampler(timeline_with_frames([0.1, 0.5], amount=123))
        samples = sample_range(sampler, 0.0, 1.0)
        assert samples[-1].values[CID] == 246

    def test_invalid_interval_rejected(self):
        dev = open_kgsl(timeline_with_frames([]))
        with pytest.raises(ValueError):
            PerfCounterSampler(dev, interval_s=0.0)

    def test_reserves_all_selected_counters(self):
        timeline = timeline_with_frames([])
        dev = open_kgsl(timeline)
        PerfCounterSampler(dev)
        assert dev.ioctl_count == len(pc.SELECTED_COUNTERS)


class TestDeltas:
    def test_deltas_reconstruct_events(self):
        sampler = make_sampler(timeline_with_frames([0.25], amount=500))
        samples = sample_range(sampler, 0.0, 0.5)
        nz = nonzero_deltas(samples)
        assert sum(d.values[CID] for d in nz) == 500

    def test_delta_merge(self):
        a = PcDelta(t=1.0, prev_t=0.99, values={CID: 30})
        b = PcDelta(t=1.01, prev_t=1.0, values={CID: 70})
        merged = merge(b, a)
        assert merged.values[CID] == 100
        assert merged.prev_t == 0.99
        assert merged.t == 1.01

    def test_delta_scaled(self):
        d = PcDelta(t=1.0, prev_t=0.9, values={CID: 101})
        assert scaled(d, 0.5).values[CID] == 50 or scaled(d, 0.5).values[CID] == 51

    def test_delta_bool(self):
        assert not PcDelta(t=1.0, prev_t=0.9, values={CID: 0})
        assert PcDelta(t=1.0, prev_t=0.9, values={CID: 1})

    def test_merge_rejects_swapped_order(self):
        a = PcDelta(t=1.0, prev_t=0.99, values={CID: 30})
        b = PcDelta(t=1.01, prev_t=1.0, values={CID: 70})
        with pytest.raises(ValueError, match="earlier delta"):
            merge(a, b)  # swapped: a precedes b, so b cannot be the argument

    def test_merge_allows_equal_timestamps(self):
        # split() halves share timestamps; merging them must stay legal
        d = PcDelta(t=1.0, prev_t=0.9, values={CID: 10})
        part, remainder = split(d, 0.5)
        merged = merge(remainder, part)
        assert merged.t == d.t and merged.prev_t == d.prev_t

    def test_scaled_floors(self):
        d = PcDelta(t=1.0, prev_t=0.9, values={CID: 101})
        assert scaled(d, 0.5).values[CID] == 50  # floor, never bankers-rounded

    def test_split_round_trips_odd_values(self):
        for v in (1, 7, 101, 999, 12345):
            d = PcDelta(t=1.0, prev_t=0.9, values={CID: v}, missing=(77,), gap=True)
            part, remainder = split(d, 0.5)
            assert part.values[CID] + remainder.values[CID] == v
            merged = merge(remainder, part)
            assert merged.values == d.values
            assert merged.missing == d.missing
            assert merged.gap == d.gap

    def test_split_rejects_bad_factor(self):
        d = PcDelta(t=1.0, prev_t=0.9, values={CID: 10})
        with pytest.raises(ValueError):
            split(d, 1.5)
        with pytest.raises(ValueError):
            split(d, -0.1)

    def test_deltas_pairwise(self):
        sampler = make_sampler(timeline_with_frames([]))
        samples = sample_range(sampler, 0.0, 0.1)
        assert len(deltas(samples)) == len(samples) - 1


class TestUnknownCells:
    """A counter not held at one of a delta's two reads has an unknown
    change: its cell in the extractor's rows is 0, and the unknown mask
    marks it so a consumer excludes it rather than read it as 0."""

    COLUMN = counter_index(pc.RAS_8X4_TILES)

    def extract(self, values):
        """The deltas of reads of ``CID`` with cumulative ``values``."""
        rows = np.zeros((len(values), len(pc.SELECTED_COUNTERS)), dtype=np.int64)
        rows[:, self.COLUMN] = values
        times = np.arange(len(values)) * 0.008
        return nonzero_deltas_vectorized(ReadBatch(times, times, rows, np.zeros(rows.shape, bool)))

    def test_held_counter_reads_its_change(self):
        deltas = self.extract([10, 52])
        assert deltas.rows[0, self.COLUMN] == 42
        assert not deltas.unknown.any()

    def test_still_counter_reads_zero_and_is_known(self):
        # every other selected counter stood still: a known change of 0
        deltas = self.extract([10, 52])
        assert np.delete(deltas.rows[0], self.COLUMN).tolist() == [0] * 10

    def test_reclaimed_counter_reads_zero_and_is_unknown(self):
        # the register re-reserved at read 1 reads 0 from scratch: both
        # deltas touching it are unknown there, never a huge change
        other = counter_index(pc.SELECTED_COUNTERS[0])
        rows = np.zeros((3, len(pc.SELECTED_COUNTERS)), dtype=np.int64)
        rows[:, self.COLUMN] = [500, 0, 900]
        rows[:, other] = [1, 2, 3]
        mask = np.zeros(rows.shape, dtype=bool)
        mask[1, self.COLUMN] = True
        times = np.array([0.0, 0.008, 0.016])
        deltas = nonzero_deltas_vectorized(ReadBatch(times, times, rows, mask))
        assert len(deltas) == 2
        assert deltas.rows[:, self.COLUMN].tolist() == [0, 0]
        assert deltas.unknown[:, self.COLUMN].all()
        assert deltas.rows[:, other].tolist() == [1, 1]
        assert deltas.unknown.sum() == 2


class TestLoadEffects:
    def test_system_load_validation(self):
        with pytest.raises(ValueError):
            SystemLoad(cpu_utilization=1.5)
        with pytest.raises(ValueError):
            SystemLoad(gpu_utilization=-0.1)

    def test_idle_drops_nothing(self):
        sampler = make_sampler(timeline_with_frames([]))
        sample_range(sampler, 0.0, 2.0, load=IDLE)
        assert sampler.reads_dropped == 0

    def test_heavy_cpu_load_drops_reads(self):
        sampler = make_sampler(timeline_with_frames([]), seed=5)
        sample_range(sampler, 0.0, 5.0, load=SystemLoad(cpu_utilization=1.0))
        assert sampler.reads_dropped > 0

    def test_cpu_load_increases_latency(self):
        idle_sampler = make_sampler(timeline_with_frames([]), seed=6)
        idle = sample_range(idle_sampler, 0.0, 3.0)
        busy_sampler = make_sampler(timeline_with_frames([]), seed=6)
        busy = sample_range(busy_sampler, 0.0, 3.0, load=SystemLoad(cpu_utilization=0.9))
        lag = lambda ss: np.mean([s.t - s.nominal_t for s in ss])
        assert lag(busy) > lag(idle)


class TestPowerModel:
    def test_overhead_grows_with_time(self):
        model = PowerModel()
        one_hour = model.extra_consumption_percent(3600.0)
        two_hours = model.extra_consumption_percent(7200.0)
        assert two_hours > one_hour > 0

    def test_overhead_under_five_percent_for_two_hours(self):
        """Fig 26: at most ~4 % extra battery after two hours."""
        model = PowerModel()
        for power in (85.0, 90.0, 95.0, 120.0):
            pct = model.extra_consumption_percent(7200.0, gpu_sample_power_mw=power)
            assert pct < 5.0

    def test_faster_sampling_costs_more(self):
        model = PowerModel()
        fast = model.extra_consumption_percent(3600.0, interval_s=0.004)
        slow = model.extra_consumption_percent(3600.0, interval_s=0.012)
        assert fast > slow
