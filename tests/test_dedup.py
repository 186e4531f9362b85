"""Tests for the duplication filter (Section 5.1, Δt1 = 75 ms)."""

import pytest

from repro.core.dedup import DEDUP_WINDOW_S, DuplicationFilter


class TestDuplicationFilter:
    def test_window_matches_paper(self):
        assert DEDUP_WINDOW_S == pytest.approx(0.075)

    def test_first_press_admitted(self):
        f = DuplicationFilter()
        assert f.admit(1.0)

    def test_duplicate_within_window_suppressed(self):
        f = DuplicationFilter()
        assert f.admit(1.0)
        assert not f.admit(1.016)  # one frame later: the popup animation
        assert f.suppressed == 1

    def test_press_after_window_admitted(self):
        f = DuplicationFilter()
        assert f.admit(1.0)
        assert f.admit(1.076)

    def test_boundary_is_exclusive(self):
        f = DuplicationFilter()
        assert f.admit(1.0)
        assert f.admit(1.0 + DEDUP_WINDOW_S + 1e-9)

    def test_suppression_does_not_extend_window(self):
        """A suppressed duplicate must not push the window forward, or a
        legitimate fast keystroke after it would also be lost."""
        f = DuplicationFilter()
        assert f.admit(1.000)
        assert not f.admit(1.016)
        assert f.admit(1.080)

    def test_sequence_of_presses(self):
        f = DuplicationFilter()
        admitted = [t for t in (0.0, 0.016, 0.2, 0.21, 0.4) if f.admit(t)]
        assert admitted == [0.0, 0.2, 0.4]
        assert f.suppressed == 2

    def test_reset(self):
        f = DuplicationFilter()
        assert f.admit(1.0)
        f.reset()
        assert f.admit(1.001)
