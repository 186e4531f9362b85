"""Tests for the correction tracker (Section 5.3, Fig 14)."""

from repro.core.corrections import CorrectionTracker
from tests.oracles import current_length


class TestBasicTracking:
    def test_first_observation_sets_baseline(self):
        tracker = CorrectionTracker()
        assert tracker.observe(1.0, 3) == []
        assert current_length(tracker) == 3

    def test_growth_needs_confirmation(self):
        tracker = CorrectionTracker()
        tracker.observe(0.0, 0)
        tracker.observe(1.0, 1)  # pending
        assert current_length(tracker) == 0
        tracker.observe(1.5, 1)  # confirmed
        assert current_length(tracker) == 1

    def test_blinks_at_same_length_emit_nothing(self):
        tracker = CorrectionTracker()
        for t in range(8):
            assert tracker.observe(float(t) * 0.5, 4) == []
        assert tracker.deletions == []


class TestDeletionDetection:
    def test_confirmed_decrease_emits_deletion(self):
        tracker = CorrectionTracker()
        tracker.observe(0.0, 3)
        tracker.observe(1.0, 2)  # backspace redraw (pending)
        events = tracker.observe(1.5, 2)  # blink confirms
        assert len(events) == 1
        assert current_length(tracker) == 2

    def test_deletion_timestamp_is_first_observation(self):
        """The deletion must carry the backspace's time so the engine can
        delete the key that preceded it, not one typed afterwards."""
        tracker = CorrectionTracker()
        tracker.observe(0.0, 3)
        tracker.observe(1.0, 2)
        events = tracker.observe(1.5, 2)
        assert events[0].t == 1.0

    def test_multi_character_decrease(self):
        tracker = CorrectionTracker()
        tracker.observe(0.0, 5)
        tracker.observe(1.0, 2)
        events = tracker.observe(1.5, 2)
        assert len(events) == 3

    def test_single_blip_is_debounced(self):
        """A split read misclassified as a shorter field must not delete
        anything: the next observation restores the true length."""
        tracker = CorrectionTracker()
        tracker.observe(0.0, 5)
        tracker.observe(1.0, 4)  # partial-read misclassification
        events = tracker.observe(1.1, 5)  # real redraw: still 5
        assert events == []
        assert tracker.deletions == []
        assert current_length(tracker) == 5

    def test_two_different_blips_do_not_commit(self):
        tracker = CorrectionTracker()
        tracker.observe(0.0, 5)
        tracker.observe(1.0, 4)
        events = tracker.observe(1.1, 3)  # a different wrong value
        assert events == []  # 3 is now pending, nothing committed yet
        events = tracker.observe(1.2, 5)
        assert events == []
        assert current_length(tracker) == 5


class TestGrowthAccounting:
    def test_growth_matched_by_inferred_keys(self):
        tracker = CorrectionTracker()
        tracker.observe(0.0, 0, keys_inferred_total=0)
        tracker.observe(1.0, 1, keys_inferred_total=1)
        tracker.observe(1.5, 1, keys_inferred_total=1)
        assert tracker.unattributed_growth == 0

    def test_missed_press_counts_as_unattributed(self):
        tracker = CorrectionTracker()
        tracker.observe(0.0, 0, keys_inferred_total=0)
        tracker.observe(1.0, 1, keys_inferred_total=0)  # grew without a key
        tracker.observe(1.5, 1, keys_inferred_total=0)
        assert tracker.unattributed_growth == 1

    def test_typing_sequence_end_to_end(self):
        """Type 3 chars, delete 2, type 1 — net length 2 (Fig 14)."""
        tracker = CorrectionTracker()
        keys = 0
        stream = [
            (0.0, 0, 0),
            (0.5, 1, 1), (0.7, 1, 1),
            (1.0, 2, 2), (1.2, 2, 2),
            (1.5, 3, 3), (1.7, 3, 3),
            (2.0, 2, 3), (2.2, 2, 3),  # backspace
            (2.5, 1, 3), (2.7, 1, 3),  # backspace
            (3.0, 2, 4), (3.2, 2, 4),  # new char
        ]
        deletions = []
        for t, length, keys in stream:
            deletions.extend(tracker.observe(t, length, keys_inferred_total=keys))
        assert len(deletions) == 2
        assert current_length(tracker) == 2
        assert tracker.unattributed_growth == 0
