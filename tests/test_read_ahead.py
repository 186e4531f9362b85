"""The read schedule's read-ahead: sized from the ticks a stream has
left, decoded once, and invisible in what the sampler reads.

``_WakeupDraws`` reads a session's words ahead in blocks of about the
mean words its remaining wakeups use (``_MAX_DECODE`` at most), and a
later block decodes only its new words.  These properties hold the reads
to not depend on how a session is cut into batches, and the words read
ahead to stay close to the words used.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import RenderTimeline
from repro.kgsl import sampler as sampler_mod
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler, SystemLoad
from repro.kgsl.ziggurat import exponentials, uniforms

CHUNKS = (1, 7, 64, 1024)

loads = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))


def session(seed, cpu, interval, span, chunk, frames=()):
    """A chain-free sampler's batches over ``[0, span)``, and the sampler;
    ``frames`` are ``(start, tiles)`` renders of 2 ms."""
    timeline = RenderTimeline()
    for start, tiles in frames:
        increment = pc.CounterIncrement()
        increment.add(pc.RAS_8X4_TILES, tiles)
        timeline.add_render(start, FrameStats(increment, tiles, 0.002))
    dev = open_kgsl(timeline, clock=DeviceClock())
    sampler = PerfCounterSampler(dev, interval_s=interval, rng=np.random.default_rng(seed))
    load = SystemLoad(cpu_utilization=cpu)
    return list(sampler.iter_batches(0.0, span, load, chunk=chunk)), sampler


@given(
    st.integers(0, 2**32 - 1),
    loads,
    st.floats(0.0, 12.0),
    st.lists(st.tuples(st.floats(0.05, 12.0), st.integers(1, 10**5)), max_size=20),
)
@settings(max_examples=40, deadline=None)
def test_the_chunk_size_changes_no_read_and_no_draw(seed, cpu, span, frames):
    outcomes = []
    for chunk in CHUNKS:
        batches, sampler = session(seed, cpu, 0.008, span, chunk, frames)
        assert all(len(b.t) == chunk for b in batches[:-1])
        columns = [np.concatenate(column).tobytes() for column in zip(*batches)]
        state = sampler.rng.bit_generator.state
        outcomes.append((columns, state, sampler.reads_issued, sampler.reads_dropped))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


@given(
    st.integers(0, 2**32 - 1),
    loads,
    st.floats(0.001, 0.05),
    st.floats(0.0, 30.0),
    st.sampled_from(CHUNKS),
)
@settings(max_examples=60, deadline=None)
# more words than one block holds: the read-ahead is decoded in parts
@example(seed=5, cpu=0.9, interval=0.001, span=30.0, chunk=1024)
@example(seed=6, cpu=0.0, interval=0.001, span=30.0, chunk=1)
def test_a_session_reads_ahead_little_more_than_it_uses(seed, cpu, interval, span, chunk):
    _, sampler = session(seed, cpu, interval, span, chunk)
    read, used = sampler.words_read_ahead, sampler.words_used
    assert read <= 1.05 * used + 2 * sampler_mod._MIN_DECODE
    # the words used are the words the generator moved past
    bits = np.random.default_rng(seed).bit_generator
    bits.random_raw(used)
    assert bits.state == sampler.rng.bit_generator.state


def test_the_mean_words_of_an_exponential():
    """``_EXPONENTIAL_WORDS``, which sizes the read-ahead, is the decoded
    exponentials' mean word count."""
    raw = np.random.default_rng(11).bit_generator.random_raw(2**20)
    _, words = exponentials(raw, uniforms(raw))
    assert abs(words[:-64].mean() - sampler_mod._EXPONENTIAL_WORDS) < 0.002


def test_the_words_reach_the_manifest():
    from repro.obs import MetricsRegistry

    _, sampler = session(3, 0.3, 0.008, 2.0, 64)
    registry = MetricsRegistry()
    sampler.flush_metrics(registry)
    assert registry.counter("sampler.words_used").value == sampler.words_used > 0
    assert registry.counter("sampler.words_read_ahead").value == sampler.words_read_ahead
