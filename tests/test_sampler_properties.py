"""Property-based tests on the sampler and counter algebra."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.interpose import Interposer
from repro.kgsl.sampler import PerfCounterSampler, SystemLoad
from repro.kgsl.ziggurat import KE
from repro.runtime.source import SamplerDeltaSource
from tests.oracles import (
    batch_deltas,
    deltas,
    merge_increments,
    nonzero_deltas,
    pcg64_emitting,
    sample_range,
    scheduling_delay,
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


def law_reads(batches):
    """``(nominal, read time)`` of every read of ``batches``."""
    return [(n, t) for b in batches for n, t in zip(b.nominal.tolist(), b.t.tolist())]


def fast(word):
    """Whether ``standard_exponential`` takes its fast path on ``word``."""
    return (word >> 11) < KE[(word >> 3) & 0xFF]


def uniform(word):
    return (word >> 11) * 2.0**-53


#: A word off the fast path: ``KE[1]`` is 0, so every index-1 word is.
SLOW_WORD = (0x5DEECE66D << 11) | (1 << 3)

#: Where a crafted slow word sits, the load, and what the words around it
#: must be for it to land there (``words`` are the first eight raw words).
CRAFTED = {
    "first exponential": (0, 0.0, lambda words, rng: True),
    "coalesce exponential": (
        2,
        0.0,
        lambda words, rng: fast(words[0]) and uniform(words[1]) < 0.08,
    ),
    "preempt exponential": (
        3,
        0.9,
        lambda words, rng: fast(words[0])
        and uniform(words[1]) >= 0.08
        and uniform(words[2]) < 0.9 * 0.75,
    ),
    "dropped wakeup": (
        0,
        1.0,
        lambda words, rng: scheduling_delay(rng, SystemLoad(cpu_utilization=1.0)) is None,
    ),
}


def crafted_rng(case, high):
    at, _, _ = CRAFTED[case]
    return pcg64_emitting(SLOW_WORD, at=at, high=high)


def crafted_high(case):
    """The first ``high`` whose words put the slow word where ``case``
    needs it."""
    _, _, holds = CRAFTED[case]
    for high in range(1, 100_000):
        words = [int(w) for w in crafted_rng(case, high).bit_generator.random_raw(8)]
        if holds(words, crafted_rng(case, high)):
            return high
    raise AssertionError(f"no PCG64 state puts the slow word at the {case}")


class WakeupHook(Interposer):
    """Drops every ``every``-th wakeup it sees and defers every third."""

    def __init__(self, every, extra_s):
        self.every, self.extra_s, self.calls = every, extra_s, 0

    def on_wakeup(self):
        self.calls += 1
        if self.calls % self.every == 0:
            return None
        return self.extra_s if self.calls % 3 == 0 else 0.0


class TestSchedulingLaw:
    """Both read paths' wakeups follow the scalar scheduling law exactly:
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

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.integers(1, 200),
        st.lists(st.sampled_from(["none", "half-word", "normal", "raw"]), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=7, cpu=0.5, chunk=16, foreign=["half-word"])
    def test_foreign_draws_between_batches(self, seed, cpu, chunk, foreign):
        """Another user of the generator may draw between batches, even a
        32-bit draw that leaves half a word pending: each batch starts
        where that user left the generator, and leaves the half-word."""
        load = SystemLoad(cpu_utilization=cpu)

        def draw(rng, k):
            kind = foreign[k % len(foreign)]
            if kind == "half-word":
                rng.random(dtype=np.float32)
            elif kind == "normal":
                rng.standard_normal()
            elif kind == "raw":
                rng.bit_generator.random_raw(3)

        dev = open_kgsl(build_timeline([]), clock=DeviceClock())
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(seed))
        got = []
        for k, batch in enumerate(sampler.iter_batches(0.0, 2.0, load, chunk=chunk)):
            got.append(law_reads([batch]))
            draw(sampler.rng, k)
        oracle_rng = np.random.default_rng(seed)
        expected, batch = [], []
        for nominal, t in wakeups(oracle_rng, 0.0, 2.0, sampler.interval_s, load):
            if t is not None:
                batch.append((nominal, t))
            if len(batch) == chunk:
                expected.append(batch)
                batch = []
                draw(oracle_rng, len(expected) - 1)
        if batch:
            expected.append(batch)
            draw(oracle_rng, len(expected) - 1)
        assert got == expected
        assert sampler.rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.integers(1, 64),
        st.integers(2, 6),
        st.sampled_from([0.0, 0.004, 0.011]),
    )
    @settings(max_examples=30, deadline=None)
    def test_interposed_path_follows_the_scalar_law(self, seed, cpu, chunk, every, extra_s):
        """On an interposed fd each wakeup draws its delay, then visits the
        chain, which may drop or defer it; a dropped wakeup still drew."""
        load = SystemLoad(cpu_utilization=cpu)
        dev = open_kgsl(
            build_timeline([(0.3, 50)]),
            clock=DeviceClock(),
            interposers=(WakeupHook(every, extra_s),),
        )
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(seed))
        reads = law_reads(sampler.iter_batches(0.0, 1.5, load, chunk=chunk))
        oracle_rng, hook = np.random.default_rng(seed), WakeupHook(every, extra_s)
        expected, dropped, nominal, last_t = [], 0, 0.0, -1.0
        while nominal < 1.5:
            delay = scheduling_delay(oracle_rng, load)
            if delay is not None:
                extra = hook.on_wakeup()
                delay = None if extra is None else delay + extra
            if delay is None:
                dropped += 1
            else:
                last_t = max(nominal + delay, last_t + 1e-5)
                expected.append((nominal, last_t))
            nominal += sampler.interval_s
        assert reads == expected
        assert (sampler.reads_issued, sampler.reads_dropped) == (len(expected), dropped)
        assert sampler.rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_a_draw_inside_a_batch_is_refused(self):
        """A hook that draws from the sampler's own generator mid-batch
        moves it off the words the batch's wakeups were decoded from."""

        class DrawingHook(Interposer):
            def on_wakeup(self):
                sampler.rng.random()
                return 0.0

        dev = open_kgsl(build_timeline([]), clock=DeviceClock(), interposers=(DrawingHook(),))
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="drawn from while a batch"):
            next(sampler.iter_batches(0.0, 1.0, chunk=8))

    @pytest.mark.parametrize("case", sorted(CRAFTED))
    @pytest.mark.parametrize("chain", [(), (Interposer(),)], ids=["chain-free", "interposed"])
    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_a_slow_word_is_drawn_by_the_scalar_law(self, case, chain, chunk):
        """A word off the exponential's fast path, placed at each of a
        wakeup's exponentials, and in a wakeup that is then dropped."""
        at, cpu, _ = CRAFTED[case]
        high = crafted_high(case)
        assert not fast(int(crafted_rng(case, high).bit_generator.random_raw(at + 1)[at]))
        load = SystemLoad(cpu_utilization=cpu)
        dev = open_kgsl(build_timeline([(0.05, 7)]), clock=DeviceClock(), interposers=chain)
        sampler = PerfCounterSampler(dev, rng=crafted_rng(case, high))
        reads = law_reads(sampler.iter_batches(0.0, 0.2, load, chunk=chunk))
        oracle_rng = crafted_rng(case, high)
        law = list(wakeups(oracle_rng, 0.0, 0.2, sampler.interval_s, load))
        assert reads == [(nominal, t) for nominal, t in law if t is not None]
        assert (law[0][1] is None) == (case == "dropped wakeup")
        assert sampler.reads_dropped == len(law) - len(reads)
        assert sampler.rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
    )
    def test_other_bit_generators_are_refused(self, bit_generator):
        dev = open_kgsl(build_timeline([]), clock=DeviceClock())
        with pytest.raises(TypeError, match=bit_generator.__name__):
            PerfCounterSampler(dev, rng=np.random.Generator(bit_generator(0)))

    @pytest.mark.parametrize("t0, interval", [(0.0, 0.008), (0.37, 0.001), (12.5, 0.0123)])
    def test_nominal_ticks_are_the_sequential_sum(self, t0, interval):
        """Over 10**5 ticks the nominals are a ``nominal += interval``
        loop's, bit for bit, across batch boundaries."""
        loop, nominal = [], t0
        for _ in range(10**5):
            loop.append(nominal)
            nominal += interval
        dev = open_kgsl(RenderTimeline(), clock=DeviceClock())
        sampler = PerfCounterSampler(dev, interval_s=interval, rng=np.random.default_rng(3))
        batches = sampler.iter_batches(t0, nominal, chunk=4096)
        assert np.concatenate([b.nominal for b in batches]).tolist() == loop

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
