"""Tests for the Algorithm 1 online engine on synthetic delta streams."""

import numpy as np
import pytest

from repro.core import features
from repro.core.classifier import ClassificationModel
from repro.core.online import OnlineEngine
from repro.gpu import counters as pc
from tests.oracles import PcDelta, feed_deltas

D0 = pc.SELECTED_COUNTERS[0].counter_id
D1 = pc.SELECTED_COUNTERS[1].counter_id
D2 = pc.SELECTED_COUNTERS[2].counter_id
D3 = pc.SELECTED_COUNTERS[3].counter_id


def vec(values):
    v = np.zeros(features.DIMENSIONS)
    for i, x in values.items():
        v[i] = x
    return v


@pytest.fixture()
def model():
    labels = [
        "key:a",
        "key:b",
        "field:0:on",
        "field:1:on",
        "field:2:on",
        "reject:dismiss:a",
        "reject:dismiss:b",
    ]
    centroids = np.vstack(
        [
            vec({0: 1000, 1: 100}),
            vec({0: 2000, 1: 250}),
            vec({2: 50}),
            vec({2: 50, 3: 20}),
            vec({2: 50, 3: 40}),
            vec({0: 400, 1: 37}),
            vec({0: 500, 1: 55}),
        ]
    )
    return ClassificationModel(
        labels=labels,
        centroids=centroids,
        scale=np.full(features.DIMENSIONS, 10.0),
        cth=2.0,
        model_key="toy",
    )


def delta(t, values, prev_dt=0.008):
    return PcDelta(t=t, prev_t=t - prev_dt, values=values)


def key_a(t):
    return delta(t, {D0: 1000, D1: 100})


def key_b(t):
    return delta(t, {D0: 2000, D1: 250})


def field(t, n):
    return delta(t, {D2: 50, D3: 20 * n})


def dismiss_a(t):
    return delta(t, {D0: 400, D1: 37})


def engine(model, **kw):
    return OnlineEngine(model, detect_switches=False, **kw)


class TestBasicInference:
    def test_clean_key_sequence(self, model):
        result = feed_deltas(engine(model), [key_a(1.0), key_b(1.5), key_a(2.0)])
        assert result.text == "aba"
        assert result.stats.keys_inferred == 3

    def test_timestamps_recorded(self, model):
        result = feed_deltas(engine(model), [key_a(1.25)])
        assert result.keys[0].t == pytest.approx(1.25)

    def test_noise_rejected(self, model):
        result = feed_deltas(engine(model), [delta(1.0, {D0: 123456, D1: 9999})])
        assert result.text == ""
        assert result.stats.noise_events == 1

    def test_empty_deltas_skipped(self, model):
        result = feed_deltas(engine(model), [delta(1.0, {D0: 0})])
        assert result.stats.deltas_seen == 0

    def test_inference_times_recorded(self, model):
        result = feed_deltas(engine(model), [key_a(1.0), key_b(1.5)])
        assert result.latency.count >= 2
        assert all(t0 >= 0 for t0 in result.latency.samples)


class TestDuplication:
    def test_duplicate_press_suppressed(self, model):
        result = feed_deltas(engine(model), [key_a(1.0), key_a(1.016)])
        assert result.text == "a"
        assert result.stats.duplicates_suppressed == 1

    def test_distinct_keys_outside_window_kept(self, model):
        result = feed_deltas(engine(model), [key_a(1.0), key_b(1.2)])
        assert result.text == "ab"


class TestSplitRecovery:
    def test_split_key_press_recombined(self, model):
        half1 = delta(1.000, {D0: 520, D1: 50})
        half2 = delta(1.008, {D0: 480, D1: 50})
        result = feed_deltas(engine(model), [half1, half2])
        assert result.text == "a"
        assert result.stats.splits_recovered == 1
        assert result.keys[0].from_split
        assert result.keys[0].t == pytest.approx(1.000)

    def test_split_too_far_apart_not_merged(self, model):
        half1 = delta(1.000, {D0: 520, D1: 50})
        half2 = delta(1.200, {D0: 480, D1: 50})
        result = feed_deltas(engine(model), [half1, half2])
        assert result.text == ""

    def test_merged_preferred_over_weak_direct_match(self, model):
        """A nearly-complete split tail can fall within cth of the wrong
        class; the engine must prefer the better merged interpretation."""
        part1 = delta(1.000, {D0: 985, D1: 98})  # almost all of key:a
        part2 = delta(1.008, {D0: 1015 + 2000 - 985, D1: 2 + 250 - 98})
        # part2 alone is close-ish to key:b but merged with part1's rest is exact
        stream = [part1, part2]
        result = feed_deltas(engine(model), stream)
        assert "a" in result.text


class TestCollisionRecovery:
    def test_doubled_press_halved(self, model):
        result = feed_deltas(engine(model), [delta(1.0, {D0: 2000, D1: 200})])
        # 2x key:a is exactly key:b's D0 but not D1; halving matches key:a
        assert result.text in ("a", "")  # must not be 'b'... see below
        strict = feed_deltas(
            engine(model, recover_collisions=True), [delta(1.0, {D0: 2004, D1: 202})]
        )
        assert strict.text in ("a", "")

    def test_dismiss_plus_press_composite(self, model):
        composite = delta(1.0, {D0: 1000 + 400, D1: 100 + 37})
        result = feed_deltas(engine(model), [composite])
        assert result.text == "a"

    def test_recovery_can_be_disabled(self, model):
        composite = delta(1.0, {D0: 1000 + 400, D1: 100 + 37})
        result = feed_deltas(engine(model, recover_collisions=False), [composite])
        assert result.text == ""


class TestCorrectionsIntegration:
    def test_confirmed_deletion_removes_key(self, model):
        stream = [
            key_a(1.0),
            field(1.1, 1),
            field(1.6, 1),
            key_b(2.0),
            field(2.1, 2),
            field(2.6, 2),
            field(3.0, 1),  # backspace
            field(3.5, 1),  # blink confirms
        ]
        result = feed_deltas(engine(model), stream)
        assert result.text == "a"
        assert result.stats.deletions_detected == 1

    def test_deletion_targets_key_before_backspace(self, model):
        stream = [
            key_a(1.0),
            field(1.1, 1), field(1.6, 1),
            field(2.0, 0),            # backspace happens now
            key_b(2.2),               # user retypes before any blink
            field(2.3, 1),            # echo of 'b' validates the dip
            field(2.8, 1),
        ]
        result = feed_deltas(engine(model), stream)
        assert result.text == "b"

    def test_corrections_can_be_disabled(self, model):
        stream = [
            key_a(1.0),
            field(2.0, 0),
            field(2.5, 0),
        ]
        result = feed_deltas(engine(model, track_corrections=False), stream)
        assert result.text == "a"

    def test_unattributed_growth_flags_missed_press(self, model):
        stream = [
            field(0.5, 0), field(0.9, 0),
            # a press was missed here: field grows without an inferred key
            field(1.5, 1), field(1.9, 1),
        ]
        result = feed_deltas(engine(model), stream)
        assert result.stats.unattributed_growth == 1


class TestSwitchSuppression:
    def test_keys_during_away_period_suppressed(self, model):
        eng = OnlineEngine(model, detect_switches=True)
        big = 10 * 2000 * 12  # far above 2.5x max key total
        burst1 = [delta(1.0 + i * 0.016, {D0: big}) for i in range(5)]
        away_key = [key_a(3.0)]
        burst2 = [delta(5.0 + i * 0.016, {D0: big}) for i in range(5)]
        in_target_key = [key_b(7.0)]
        result = feed_deltas(eng, burst1 + away_key + burst2 + in_target_key)
        assert result.text == "b"
        assert result.stats.suppressed_by_switch > 0
