"""Fault-matrix tests: engine components under unreliable sample streams.

The fault injector degrades the *input* of the online engine in two ways
the paper's Algorithm 1 never sees on the authors' rooted testbed:
sampling wakeups vanish (dropped field redraws, shortened bursts) and
wakeups land late (jittered timestamps).  These tests pin down how
:class:`~repro.core.corrections.CorrectionTracker` and
:class:`~repro.core.appswitch.AppSwitchDetector` behave on such streams —
both the cases they must survive and the documented failure modes.
"""

import numpy as np
import pytest

from repro.core.appswitch import BURST_COOLDOWN_S, BURST_GAP_S, AppSwitchDetector
from repro.core.classifier import Classification
from repro.core.corrections import CorrectionTracker
from repro.gpu import counters as pc
from repro.kgsl.sampler import PcDelta
from tests.oracles import current_length

CID = pc.RAS_8X4_TILES.counter_id
NOISE = Classification(label=None, distance=99.0)


def delta(t, total):
    return PcDelta(t=t, prev_t=t - 0.008, values={CID: total})


def typing_observations(chars, blink_s=0.5, key_s=0.45):
    """(t, field_length, keys_total) stream for typing ``chars`` keys,
    with a confirming cursor-blink redraw after every growth redraw."""
    stream = []
    for i in range(1, chars + 1):
        t = i * key_s
        stream.append((t, i, i))
        stream.append((t + blink_s * 0.5, i, i))
    return stream


class TestCorrectionTrackerUnderDrops:
    def test_growth_survives_dropped_confirmations(self):
        """Dropping the odd redraw only defers validation: the next
        surviving observation at the same length confirms the growth."""
        rng = np.random.default_rng(7)
        tracker = CorrectionTracker()
        tracker.observe(0.0, 0, 0)
        final = None
        for t, length, keys in typing_observations(8):
            if rng.random() < 0.3:  # injected drop
                continue
            tracker.observe(t, length, keys)
            final = length
        # one more blink always survives in practice (the field keeps
        # redrawing at the final length while the user reads the screen)
        tracker.observe(5.0, final, 8)
        tracker.observe(5.5, final, 8)
        assert current_length(tracker) == 8
        assert tracker.deletions == []

    def test_deletion_survives_dropped_redraw(self):
        """If the backspace redraw itself is dropped, the following blink
        at the shorter length still lands the deletion — only its
        timestamp degrades to the confirming observation."""
        tracker = CorrectionTracker()
        tracker.observe(0.0, 3, 3)
        tracker.observe(0.4, 3, 3)
        # backspace redraw at t=1.0 dropped; blinks at len 2 survive
        tracker.observe(1.5, 2, 3)
        events = tracker.observe(2.0, 2, 3)
        assert len(events) == 1
        assert current_length(tracker) == 2

    def test_single_surviving_dip_is_not_validated(self):
        """A lone shorter observation with no confirmation stays pending:
        a dropped stream cannot conjure a deletion out of one glitch."""
        tracker = CorrectionTracker()
        tracker.observe(0.0, 4, 4)
        tracker.observe(0.4, 4, 4)
        tracker.observe(1.0, 3, 4)  # dip whose confirmation is dropped
        assert tracker.deletions == []
        assert current_length(tracker) == 4
        assert tracker.length_bounds() == (3, 4)


class TestCorrectionTrackerUnderJitter:
    def test_jittered_timestamps_do_not_reorder_decisions(self):
        """Per-wakeup jitter delays observations but preserves order, so
        the commit logic is unaffected; only event times shift."""
        rng = np.random.default_rng(3)
        clean, jittered = CorrectionTracker(), CorrectionTracker()
        t_jit = 0.0
        for t, length, keys in [(0.0, 0, 0)] + typing_observations(5):
            clean.observe(t, length, keys)
            t_jit = max(t_jit + 1e-4, t + float(rng.exponential(0.002)))
            jittered.observe(t_jit, length, keys)
        assert current_length(jittered) == current_length(clean) == 5
        assert len(jittered.deletions) == len(clean.deletions) == 0

    def test_jittered_deletion_keeps_dip_ordering(self):
        tracker = CorrectionTracker()
        jitter = 0.003
        tracker.observe(0.0, 3, 3)
        tracker.observe(0.4 + jitter, 3, 3)
        tracker.observe(1.0 + jitter, 2, 3)  # backspace redraw, late
        events = tracker.observe(1.5, 2, 3)
        assert len(events) == 1
        assert events[0].t == pytest.approx(1.0 + jitter)


def burst_times(t0, frames, gap=0.016):
    return [t0 + i * gap for i in range(frames)]


class TestAppSwitchDetectorUnderDrops:
    def test_burst_detected_despite_dropped_frames(self):
        """An app-switch burst is many frames long; losing some of them
        still leaves >= min_burst_length rapid big changes."""
        rng = np.random.default_rng(11)
        detector = AppSwitchDetector(big_threshold=1000)
        for t in burst_times(1.0, frames=10):
            if rng.random() < 0.3:  # injected drop
                continue
            detector.observe(delta(t, 10_000_000), NOISE)
        detector.observe(delta(2.0, 10), NOISE)  # quiet closes the burst
        assert detector.bursts_seen == 1
        assert not detector.in_target

    def test_decimated_burst_is_missed_and_documented(self):
        """Losing all but min_burst_length-1 frames hides the burst —
        the detector stays in-target.  This is the degradation mode the
        engine reports via the session's degraded flag, not a crash."""
        detector = AppSwitchDetector(big_threshold=1000)
        detector.observe(delta(1.000, 10_000_000), NOISE)
        detector.observe(delta(1.016, 10_000_000), NOISE)
        detector.observe(delta(2.0, 10), NOISE)
        assert detector.bursts_seen == 0
        assert detector.in_target

    def test_drop_inside_burst_shorter_than_gap_keeps_run_alive(self):
        """One missing 16 ms frame leaves a 32 ms hole — still under the
        50 ms burst gap, so the run is not split in two."""
        detector = AppSwitchDetector(big_threshold=1000)
        for t in (1.000, 1.016, 1.048, 1.064):  # frame at 1.032 dropped
            detector.observe(delta(t, 10_000_000), NOISE)
        detector.observe(delta(2.0, 10), NOISE)
        assert detector.bursts_seen == 1


class TestAppSwitchDetectorUnderJitter:
    def test_mild_jitter_keeps_burst_frames_connected(self):
        """Exponential jitter with mean << burst_gap_s cannot split a
        burst: consecutive frames stay within the 50 ms window."""
        rng = np.random.default_rng(5)
        detector = AppSwitchDetector(big_threshold=1000)
        t = 1.0
        for _ in range(8):
            t += 0.016 + float(rng.exponential(0.002))
            detector.observe(delta(t, 10_000_000), NOISE)
        detector.observe(delta(t + 1.0, 10), NOISE)
        assert detector.bursts_seen == 1

    def test_pathological_jitter_splits_the_burst(self):
        """A stall longer than the burst cooldown mid-animation finishes
        the burst early; the remaining frames register as a second burst
        and the state flips twice — the documented harsh-profile hazard."""
        detector = AppSwitchDetector(big_threshold=1000)
        for t in burst_times(1.0, frames=4):
            detector.observe(delta(t, 10_000_000), NOISE)
        stalled = 1.0 + 3 * 0.016 + BURST_COOLDOWN_S + 0.05
        for t in burst_times(stalled, frames=4):
            detector.observe(delta(t, 10_000_000), NOISE)
        detector.observe(delta(stalled + 1.0, 10), NOISE)
        assert detector.bursts_seen == 2
        assert detector.in_target  # two toggles land back in-target

    def test_sub_cooldown_stall_does_not_split(self):
        """A stall longer than the 50 ms burst gap but shorter than the
        150 ms cooldown restarts the frame run without finishing the
        burst — the two halves still count as one switch."""
        detector = AppSwitchDetector(big_threshold=1000)
        for t in burst_times(1.0, frames=4):
            detector.observe(delta(t, 10_000_000), NOISE)
        stalled = 1.0 + 3 * 0.016 + BURST_GAP_S + 0.02
        for t in burst_times(stalled, frames=4):
            detector.observe(delta(t, 10_000_000), NOISE)
        detector.observe(delta(stalled + 1.0, 10), NOISE)
        assert detector.bursts_seen == 1
