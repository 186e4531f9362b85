"""Property-based tests on the sampler and counter algebra."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.interpose import Interposer
from repro.kgsl.sampler import PerfCounterSampler, SystemLoad
from repro.runtime.source import SamplerDeltaSource
from tests.oracles import (
    batch_deltas,
    deltas,
    merge_increments,
    nonzero_deltas,
    sample_range,
    wakeups,
)

CID = pc.RAS_8X4_TILES.counter_id


def build_timeline(frames):
    timeline = RenderTimeline()
    for start, amount in frames:
        inc = pc.CounterIncrement()
        inc.add(pc.RAS_8X4_TILES, amount)
        timeline.add_render(
            start,
            FrameStats(increment=inc, pixels_touched=amount, render_time_s=0.002),
        )
    return timeline


class TestSamplerProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0.05, 2.0), st.integers(1, 10**5)),
            min_size=0,
            max_size=12,
        ),
        st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_sum_of_deltas_equals_total_rendered(self, frames, seed):
        timeline = build_timeline(frames)
        dev = open_kgsl(timeline, clock=DeviceClock())
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(seed))
        samples = sample_range(sampler, 0.0, 2.5)
        total = sum(d.values.get(CID, 0) for d in deltas(samples))
        rendered = sum(amount for _, amount in frames)
        # the last read happens after every render completes
        first_value = samples[0].values.get(CID, 0)
        assert first_value + total == rendered

    @given(st.integers(0, 500), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_read_times_monotone_under_any_load(self, seed, cpu):
        timeline = build_timeline([(0.5, 100)])
        dev = open_kgsl(timeline, clock=DeviceClock())
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(seed))
        samples = sample_range(sampler, 0.0, 1.5, load=SystemLoad(cpu_utilization=cpu))
        times = [s.t for s in samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_values_never_decrease(self, seed):
        timeline = build_timeline([(0.2, 10), (0.6, 20), (1.0, 30)])
        dev = open_kgsl(timeline, clock=DeviceClock())
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(seed))
        samples = sample_range(sampler, 0.0, 1.5)
        values = [s.values.get(CID, 0) for s in samples]
        assert values == sorted(values)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_drop_rate_monotone_in_cpu_load(self, cpu_low, cpu_high):
        if cpu_low > cpu_high:
            cpu_low, cpu_high = cpu_high, cpu_low
        timeline = build_timeline([])

        def drops(cpu):
            dev = open_kgsl(timeline, clock=DeviceClock())
            sampler = PerfCounterSampler(dev, rng=np.random.default_rng(7))
            sample_range(sampler, 0.0, 4.0, load=SystemLoad(cpu_utilization=cpu))
            return sampler.reads_dropped

        # same RNG seed: higher load can only convert more reads to drops
        assert drops(cpu_high) >= drops(cpu_low) - 2


class TestReadPaths:
    """Every fd serves each batch in one ``perfcounter_read_many`` call.
    A chain-free fd skips the request step; an fd carrying a no-op
    :class:`Interposer` makes one ``PERFCOUNTER_READ`` request per wakeup.
    Both observe one session."""

    @given(
        st.lists(
            st.tuples(st.floats(0.05, 2.0), st.floats(0.0, 0.012), st.integers(1, 10**5)),
            max_size=40,
        ),
        st.integers(0, 1000),
        st.floats(0.0, 1.0),
        st.sampled_from([1, 7, 64, 1024]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_and_per_read_paths_agree(self, frames, seed, cpu, chunk):
        load = SystemLoad(cpu_utilization=cpu)

        def timeline():
            # two counters per frame, long enough renders for split reads
            out = RenderTimeline()
            for start, render_time, amount in frames:
                inc = pc.CounterIncrement()
                inc.add(pc.RAS_8X4_TILES, amount)
                inc.add(pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ, 3 * amount + 1)
                out.add_render(
                    start,
                    FrameStats(increment=inc, pixels_touched=amount, render_time_s=render_time),
                )
            return out

        def run(interposers):
            dev = open_kgsl(timeline(), clock=DeviceClock(), interposers=interposers)
            batched = []
            read_many = dev.perfcounter_read_many
            dev.perfcounter_read_many = lambda times, *step: batched.append(
                len(times)
            ) or read_many(times, *step)
            sampler = PerfCounterSampler(dev, rng=np.random.default_rng(seed))
            source = SamplerDeltaSource(sampler, 0.0, 2.5, load=load, chunk=chunk)
            batches = [batch for _, (batch, _, _) in source.events()]
            stream = [delta for batch in batches for delta in batch_deltas(batch)]
            tally = (sampler.reads_issued, sampler.reads_dropped, dev.ioctl_count, dev.clock.now)
            return stream, tally, sum(batched)

        stream, tally, batched_reads = run(())
        chained_stream, chained_tally, chained_batched_reads = run((Interposer(),))
        assert batched_reads == chained_batched_reads == tally[0]
        assert stream == chained_stream
        assert tally == chained_tally
        # the scalar oracle, over the per-read view of the same loop
        dev = open_kgsl(timeline(), clock=DeviceClock())
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(seed))
        oracle = nonzero_deltas(sample_range(sampler, 0.0, 2.5, load=load))
        assert [replace(delta, gap=False) for delta in stream] == oracle


class TestSchedulingLaw:
    """A chain-free fd's wakeups follow the scalar scheduling law exactly:
    the same nominals, read times and tallies, and not one draw more."""

    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.floats(0.0, 1.0), st.floats(0.45, 1.0), st.sampled_from([0.0, 1.0])),
        st.floats(0.001, 0.05),
        st.floats(0.0, 2.0),
        st.floats(0.0, 3.0),
        st.one_of(st.sampled_from([1, 7, 64, 1024]), st.integers(1, 400)),
    )
    @settings(max_examples=80, deadline=None)
    def test_iter_batches_follows_the_scalar_law(self, seed, cpu, interval, t0, span, chunk):
        load = SystemLoad(cpu_utilization=cpu)
        t1 = t0 + span
        dev = open_kgsl(build_timeline([(0.3, 50)]), clock=DeviceClock())
        sampler = PerfCounterSampler(dev, interval_s=interval, rng=np.random.default_rng(seed))
        batches = list(sampler.iter_batches(t0, t1, load, chunk=chunk))
        oracle_rng = np.random.default_rng(seed)
        law = list(wakeups(oracle_rng, t0, t1, interval, load))
        reads = [(nominal, t) for nominal, t in law if t is not None]
        assert [len(b.t) for b in batches[:-1]] == [chunk] * (len(batches) - 1)
        assert [
            (nominal, t) for b in batches for nominal, t in zip(b.nominal.tolist(), b.t.tolist())
        ] == reads
        assert (sampler.reads_issued, sampler.reads_dropped) == (len(reads), len(law) - len(reads))
        assert sampler.rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_a_batch_draws_only_its_own_wakeups(self, seed, cpu, chunk):
        """The trainer shares one RNG between the victim and the sampler,
        so nothing past a batch's last wakeup may be drawn ahead."""
        load = SystemLoad(cpu_utilization=cpu)
        dev = open_kgsl(build_timeline([]), clock=DeviceClock())
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(seed))
        first = next(sampler.iter_batches(0.0, 1.0, load, chunk=chunk), None)
        oracle_rng = np.random.default_rng(seed)
        reads = 0
        for _, t in wakeups(oracle_rng, 0.0, 1.0, sampler.interval_s, load):
            reads += t is not None
            if reads == chunk:
                break
        assert (0 if first is None else len(first.t)) == reads
        assert sampler.rng.bit_generator.state == oracle_rng.bit_generator.state


class TestIncrementAlgebra:
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_merge_adds(self, a, b):
        inc_a = pc.CounterIncrement()
        inc_a.add(pc.RAS_8X4_TILES, a)
        inc_b = pc.CounterIncrement()
        inc_b.add(pc.RAS_8X4_TILES, b)
        assert merge_increments(inc_a, inc_b).get(pc.RAS_8X4_TILES) == a + b
