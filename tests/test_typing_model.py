"""Tests for the human typing model (paper Fig 16, Section 7.2)."""

import numpy as np
import pytest

from repro.workloads.typing_model import (
    FAST_MAX_INTERVAL_S,
    MEDIUM_MAX_INTERVAL_S,
    MIN_HUMAN_INTERVAL_S,
    VOLUNTEERS,
    TypingModel,
    collect_volunteer_samples,
    split_by_speed,
    volunteer,
)


class TestVolunteers:
    def test_five_volunteers_as_in_fig16(self):
        assert len(VOLUNTEERS) == 5

    def test_lookup(self):
        assert volunteer("volunteer3").name == "volunteer3"
        with pytest.raises(KeyError):
            volunteer("volunteer9")

    def test_profiles_are_heterogeneous(self):
        medians = {p.interval_median_s for p in VOLUNTEERS}
        assert len(medians) == 5

    def test_duration_samples_in_plausible_range(self, rng):
        for profile in VOLUNTEERS:
            samples = [profile.sample_duration(rng) for _ in range(200)]
            assert all(0.03 <= s <= 0.35 for s in samples)
            assert 0.05 < np.median(samples) < 0.15

    def test_interval_samples_above_human_floor(self, rng):
        for profile in VOLUNTEERS:
            samples = [profile.sample_interval(rng) for _ in range(200)]
            assert all(s >= MIN_HUMAN_INTERVAL_S for s in samples)


class TestTypingModel:
    def test_timings_count(self, rng):
        model = TypingModel(rng)
        assert len(model.timings(12)) == 12
        assert model.timings(0) == []

    def test_timings_monotone_nonoverlapping(self, rng):
        model = TypingModel(rng)
        timings = model.timings(30)
        for a, b in zip(timings, timings[1:]):
            assert b.start_s > a.start_s
            assert b.start_s >= a.start_s + a.duration_s  # no overlap

    def test_start_time_respected(self, rng):
        model = TypingModel(rng)
        timings = model.timings(5, start_s=3.0)
        assert timings[0].start_s == pytest.approx(3.0)

    def test_speed_tier_ranges(self, rng):
        model = TypingModel(rng)
        assert model.speed_tier_range("fast") == (MIN_HUMAN_INTERVAL_S, FAST_MAX_INTERVAL_S)
        assert model.speed_tier_range("medium") == (FAST_MAX_INTERVAL_S, MEDIUM_MAX_INTERVAL_S)
        lo, hi = model.speed_tier_range("slow")
        assert lo == MEDIUM_MAX_INTERVAL_S

    def test_unknown_tier_rejected(self, rng):
        with pytest.raises(ValueError):
            TypingModel(rng).speed_tier_range("ludicrous")

    def test_fast_tier_produces_fast_intervals(self, rng):
        model = TypingModel(rng)
        timings = model.timings(40, interval_range=model.speed_tier_range("fast"))
        intervals = [
            b.start_s - a.start_s for a, b in zip(timings, timings[1:])
        ]
        # intervals may stretch slightly to avoid key overlap, but the
        # median must be in the fast band
        assert np.median(intervals) <= FAST_MAX_INTERVAL_S + 0.05


class TestFig16Collection:
    def test_collection_shape(self, rng):
        data = collect_volunteer_samples(rng, presses_per_volunteer=100)
        assert set(data) == {p.name for p in VOLUNTEERS}
        for stats in data.values():
            assert len(stats["durations"]) == 100
            assert len(stats["intervals"]) == 100

    def test_speed_split_partitions(self, rng):
        data = collect_volunteer_samples(rng, presses_per_volunteer=200)
        pooled = np.concatenate([d["intervals"] for d in data.values()])
        tiers = split_by_speed(pooled)
        assert len(tiers["fast"]) + len(tiers["medium"]) + len(tiers["slow"]) == len(pooled)
        assert all(v < FAST_MAX_INTERVAL_S for v in tiers["fast"])
        assert all(v > MEDIUM_MAX_INTERVAL_S for v in tiers["slow"])

    def test_all_three_tiers_populated(self, rng):
        """Section 7.2 splits the pooled intervals into three non-trivial
        parts; our distributions must cover all tiers."""
        data = collect_volunteer_samples(rng, presses_per_volunteer=300)
        pooled = np.concatenate([d["intervals"] for d in data.values()])
        tiers = split_by_speed(pooled)
        for name, values in tiers.items():
            assert len(values) > 0.1 * len(pooled), name
