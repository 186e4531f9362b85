"""Tests for the app-switch burst detector (Section 5.2, Fig 13)."""

from repro.core.appswitch import AppSwitchDetector, BURST_GAP_S
from repro.core.classifier import Classification
from repro.gpu import counters as pc
from repro.kgsl.sampler import PcDelta

CID = pc.RAS_8X4_TILES.counter_id
NOISE = Classification(label=None, distance=99.0)
FIELD = Classification(label="field:3:on", distance=0.01)


def delta(t, total):
    return PcDelta(t=t, prev_t=t - 0.008, values={CID: total})


def burst(detector, t0, frames=6, magnitude=10_000_000):
    for i in range(frames):
        detector.observe(delta(t0 + i * 0.016, magnitude), NOISE)


class TestBurstDetection:
    def test_initially_in_target(self):
        d = AppSwitchDetector(big_threshold=1000)
        assert d.in_target

    def test_small_changes_never_toggle(self):
        d = AppSwitchDetector(big_threshold=1_000_000)
        for i in range(50):
            obs = d.observe(delta(i * 0.1, 500), NOISE)
            assert not obs.suppress
        assert d.in_target

    def test_burst_suppresses_and_toggles(self):
        d = AppSwitchDetector(big_threshold=1000)
        burst(d, 1.0)
        # during the burst, deltas are suppressed
        obs = d.observe(delta(1.12, 2000), NOISE)
        assert obs.suppress
        # after quiet time, the state flips to away
        obs = d.observe(delta(2.0, 10), NOISE)
        assert not d.in_target
        assert obs.suppress  # away from target -> still suppressed
        assert d.bursts_seen == 1

    def test_second_burst_returns_to_target(self):
        d = AppSwitchDetector(big_threshold=1000)
        burst(d, 1.0)
        d.observe(delta(2.0, 10), NOISE)  # finishes burst 1, away
        burst(d, 3.0)
        obs = d.observe(delta(4.0, 10), NOISE)
        assert d.in_target
        assert not obs.suppress
        assert d.bursts_seen == 2

    def test_short_run_is_not_a_burst(self):
        d = AppSwitchDetector(big_threshold=1000)
        d.observe(delta(1.000, 5000), NOISE)
        d.observe(delta(1.016, 5000), NOISE)
        obs = d.observe(delta(2.0, 10), NOISE)
        assert d.in_target
        assert not obs.suppress

    def test_spread_out_big_changes_do_not_form_burst(self):
        """Gaps larger than 50 ms break the run (the paper's criterion)."""
        d = AppSwitchDetector(big_threshold=1000)
        for i in range(6):
            d.observe(delta(1.0 + i * (BURST_GAP_S * 3), 5000), NOISE)
        d.observe(delta(3.0, 10), NOISE)
        assert d.in_target

    def test_flush_finishes_pending_burst(self):
        d = AppSwitchDetector(big_threshold=1000)
        burst(d, 1.0)
        d.flush(5.0)
        assert not d.in_target


class TestSelfHealing:
    def test_field_event_forces_in_target(self):
        d = AppSwitchDetector(big_threshold=1000)
        burst(d, 1.0)
        d.observe(delta(2.0, 10), NOISE)
        assert not d.in_target
        # a text-field redraw can only come from the target app
        obs = d.observe(delta(2.5, 300), FIELD)
        assert d.in_target
        assert not obs.suppress

    def test_field_during_burst_does_not_heal(self):
        d = AppSwitchDetector(big_threshold=1000)
        burst(d, 1.0)
        obs = d.observe(delta(1.1, 300), FIELD)
        assert obs.suppress


class TestValidation:
    def test_invalid_threshold(self):
        import pytest

        with pytest.raises(ValueError):
            AppSwitchDetector(big_threshold=0)
