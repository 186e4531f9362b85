"""Tests for behavior scripts and event validation."""

import numpy as np
import pytest

from repro.android.events import (
    AppSwitchAway,
    AppSwitchBack,
    BackspacePress,
    KeyPress,
    NotificationArrival,
    sort_events,
)
from repro.workloads.behavior import (
    practical_session,
    typing_events,
    typing_with_corrections,
)
from repro.workloads.typing_model import TypingModel


class TestEventValidation:
    def test_keypress_validation(self):
        with pytest.raises(ValueError):
            KeyPress(t=0.0, char="ab")
        with pytest.raises(ValueError):
            KeyPress(t=0.0, char="a", duration=0.0)

    def test_sort_orders_by_time(self):
        events = [KeyPress(t=2.0, char="b"), KeyPress(t=1.0, char="a")]
        ordered = sort_events(events)
        assert [e.t for e in ordered] == [1.0, 2.0]

    def test_double_away_rejected(self):
        with pytest.raises(ValueError):
            sort_events([AppSwitchAway(t=1.0), AppSwitchAway(t=2.0)])

    def test_back_without_away_rejected(self):
        with pytest.raises(ValueError):
            sort_events([AppSwitchBack(t=1.0)])

    def test_typing_while_away_rejected(self):
        with pytest.raises(ValueError):
            sort_events(
                [AppSwitchAway(t=1.0), KeyPress(t=2.0, char="a"), AppSwitchBack(t=3.0)]
            )

    def test_valid_switch_pair_accepted(self):
        ordered = sort_events(
            [
                KeyPress(t=0.5, char="a"),
                AppSwitchAway(t=1.0),
                AppSwitchBack(t=3.0),
                KeyPress(t=4.0, char="b"),
            ]
        )
        assert len(ordered) == 4


class TestTypingScripts:
    def test_typing_events_one_per_char(self, rng):
        events = typing_events("secret", TypingModel(rng))
        assert len(events) == 6
        assert "".join(e.char for e in events) == "secret"

    def test_typing_events_monotone(self, rng):
        events = typing_events("longpassword", TypingModel(rng))
        times = [e.t for e in events]
        assert times == sorted(times)

    def test_speed_tier_honored(self, rng):
        events = typing_events("abcdefghijkl", TypingModel(rng), speed_tier="slow")
        intervals = [b.t - a.t for a, b in zip(events, events[1:])]
        assert np.median(intervals) > 0.4

    def test_corrections_script_restores_text(self, rng):
        typing = TypingModel(rng)
        events, final = typing_with_corrections("hello", typing, rng, typo_prob=1.0)
        assert final == "hello"
        presses = [e for e in events if isinstance(e, KeyPress)]
        backspaces = [e for e in events if isinstance(e, BackspacePress)]
        assert len(backspaces) == 5  # every char got one typo
        assert len(presses) == 10

    def test_corrections_script_zero_typos(self, rng):
        typing = TypingModel(rng)
        events, final = typing_with_corrections("hello", typing, rng, typo_prob=0.0)
        assert all(isinstance(e, KeyPress) for e in events)
        assert len(events) == 5


class TestPracticalSession:
    def test_session_is_valid_event_script(self, rng):
        session = practical_session(rng, TypingModel(rng), duration_s=60.0)
        ordered = sort_events(session.events)  # must not raise
        assert ordered

    def test_credential_matches_typed_keys(self, rng):
        session = practical_session(rng, TypingModel(rng), duration_s=120.0, typo_prob=0.0)
        presses = [e for e in session.events if isinstance(e, KeyPress)]
        assert "".join(e.char for e in presses) == session.credential

    def test_session_has_behavioral_richness(self, rng):
        sessions = [
            practical_session(np.random.default_rng(seed), TypingModel(np.random.default_rng(seed)))
            for seed in range(8)
        ]
        assert any(s.switches > 0 for s in sessions)
        assert any(s.corrections > 0 for s in sessions)
        assert any(s.shade_views > 0 for s in sessions)

    def test_notifications_arrive(self, rng):
        session = practical_session(rng, TypingModel(rng), duration_s=180.0)
        notifs = [e for e in session.events if isinstance(e, NotificationArrival)]
        assert notifs

    def test_volunteer_attribution(self, rng):
        session = practical_session(rng, TypingModel(rng), volunteer_index=2)
        assert session.volunteer == "volunteer3"

