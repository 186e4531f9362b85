"""Failure injection: the attack must degrade gracefully, never crash,
and never hallucinate credentials from garbage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import OnlineEngine
from repro.gpu import counters as pc
from repro.gpu.timeline import COUNTER_ORDER
from tests.oracles import PcDelta, feed_deltas


def random_delta(t, rng, magnitude):
    values = {
        cid: int(rng.integers(0, max(2, magnitude)))
        for cid in COUNTER_ORDER
        if rng.random() < 0.7
    }
    return PcDelta(t=t, prev_t=t - 0.008, values=values)


class TestGarbageStreams:
    @given(seed=st.integers(0, 2**31 - 1), magnitude_exp=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_random_streams_never_crash(self, chase_model, seed, magnitude_exp):
        rng = np.random.default_rng(seed)
        deltas = [
            random_delta(0.1 + i * 0.008, rng, 10**magnitude_exp) for i in range(60)
        ]
        engine = OnlineEngine(chase_model)
        result = feed_deltas(engine, deltas)
        assert result.stats.deltas_seen <= 60
        assert len(result.text) <= result.stats.keys_inferred

    def test_garbage_rarely_classifies_as_keys(self, chase_model):
        """Random vectors land far from the learned clusters: hallucinated
        keys must stay a small fraction of the stream."""
        rng = np.random.default_rng(99)
        deltas = [random_delta(0.1 + i * 0.05, rng, 10**6) for i in range(300)]
        engine = OnlineEngine(chase_model)
        result = feed_deltas(engine, deltas)
        assert result.stats.keys_inferred < 0.05 * len(deltas)

    def test_zero_deltas_stream(self, chase_model):
        deltas = [PcDelta(t=0.1 + i * 0.008, prev_t=0.1 + i * 0.008 - 0.008, values={})
                  for i in range(20)]
        engine = OnlineEngine(chase_model)
        result = feed_deltas(engine, deltas)
        assert result.stats.deltas_seen == 0
        assert result.text == ""

    def test_empty_stream(self, chase_model):
        engine = OnlineEngine(chase_model)
        result = feed_deltas(engine, [])
        assert result.text == ""

    def test_monotone_violating_timestamps_tolerated(self, chase_model):
        """Defensive: even a buggy sampler's out-of-order stream must not
        crash the engine."""
        rng = np.random.default_rng(7)
        deltas = [random_delta(1.0, rng, 1000) for _ in range(5)]
        deltas += [random_delta(0.5, rng, 1000) for _ in range(5)]
        engine = OnlineEngine(chase_model)
        feed_deltas(engine, deltas)  # must not raise


class TestExtremeValues:
    def test_saturated_counters(self, chase_model):
        huge = {cid: (1 << 47) for cid in COUNTER_ORDER}
        engine = OnlineEngine(chase_model)
        result = feed_deltas(engine, [PcDelta(t=1.0, prev_t=0.99, values=huge)])
        assert result.stats.keys_inferred == 0

    def test_single_unit_deltas(self, chase_model):
        tiny = [
            PcDelta(t=0.1 + i * 0.008, prev_t=0.1 + i * 0.008 - 0.008,
                    values={COUNTER_ORDER[i % 11]: 1})
            for i in range(50)
        ]
        engine = OnlineEngine(chase_model)
        result = feed_deltas(engine, tiny)
        assert result.stats.keys_inferred == 0


class TestAdversarialVictim:
    def test_replayed_press_deltas_are_deduplicated(self, chase_model):
        """Identical press deltas 16 ms apart (the duplication pattern)
        must collapse to one key."""
        centroid = chase_model.centroid("key:w")
        values = {
            cid: int(centroid[i]) for i, cid in enumerate(COUNTER_ORDER)
        }
        a = PcDelta(t=1.000, prev_t=0.992, values=values)
        b = PcDelta(t=1.016, prev_t=1.008, values=values)
        engine = OnlineEngine(chase_model)
        result = feed_deltas(engine, [a, b])
        assert result.text == "w"
        assert result.stats.duplicates_suppressed == 1
