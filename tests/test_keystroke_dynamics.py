"""Tests for the keystroke-dynamics identification extension."""

import numpy as np
import pytest

from repro.analysis.keystroke_dynamics import (
    FEATURE_NAMES,
    TypistIdentifier,
    TypistProfile,
    timing_features,
)
from repro.workloads.typing_model import VOLUNTEERS, TypingModel


def session_times(profile, rng, n=30):
    model = TypingModel(rng, profiles=[profile])
    return [t.start_s for t in model.timings(n, profile=profile)]


class TestFeatures:
    def test_feature_vector_shape(self, rng):
        times = session_times(VOLUNTEERS[0], rng)
        features = timing_features(times)
        assert features is not None
        assert features.shape == (len(FEATURE_NAMES),)

    def test_too_few_presses_returns_none(self):
        assert timing_features([1.0, 1.2]) is None
        assert timing_features([]) is None

    def test_long_pauses_excluded(self):
        # three tight presses, then a 30 s pause, then three more
        times = [0.0, 0.2, 0.4, 30.4, 30.6, 30.8]
        features = timing_features(times)
        assert features is not None
        assert features[0] < 1.0  # median interval ignores the pause

    def test_unsorted_input_accepted(self, rng):
        times = session_times(VOLUNTEERS[0], rng)
        shuffled = list(times)
        rng.shuffle(shuffled)
        a = timing_features(times)
        b = timing_features(shuffled)
        assert np.allclose(a, b)

    def test_speed_shares_sum_sane(self, rng):
        features = timing_features(session_times(VOLUNTEERS[0], rng))
        fast_share, slow_share = features[5], features[6]
        assert 0.0 <= fast_share <= 1.0
        assert 0.0 <= slow_share <= 1.0
        assert fast_share + slow_share <= 1.0


class TestIdentifier:
    def test_identifies_enrolled_volunteers(self):
        identifier = TypistIdentifier()
        # enroll 3 sessions per volunteer
        for v, profile in enumerate(VOLUNTEERS):
            for s in range(3):
                rng = np.random.default_rng(1000 * v + s)
                identifier.enroll(profile.name, session_times(profile, rng))
        # identify fresh sessions
        correct = 0
        trials = 0
        for v, profile in enumerate(VOLUNTEERS):
            for s in range(4):
                rng = np.random.default_rng(5000 + 100 * v + s)
                got = identifier.identify(session_times(profile, rng, n=40))
                correct += got == profile.name
                trials += 1
        assert correct / trials > 0.5, "timing biometrics must beat chance (0.2) clearly"

    def test_enroll_rejects_short_sessions(self):
        identifier = TypistIdentifier()
        assert not identifier.enroll("x", [0.0, 0.1])
        assert identifier.names == []

    def test_identify_without_profiles_raises(self):
        with pytest.raises(ValueError):
            TypistIdentifier().identify([0.0, 0.2, 0.4, 0.6, 0.8])

    def test_identify_short_session_returns_none(self):
        identifier = TypistIdentifier()
        rng = np.random.default_rng(0)
        identifier.enroll("a", session_times(VOLUNTEERS[0], rng))
        assert identifier.identify([0.0, 0.5]) is None

    def test_profile_centroid(self):
        profile = TypistProfile(name="p")
        profile.add(np.ones(7))
        profile.add(np.full(7, 3.0))
        assert np.allclose(profile.centroid, 2.0)
        with pytest.raises(ValueError):
            TypistProfile(name="empty").centroid


class TestEndToEnd:
    def test_attack_timestamps_identify_the_typist(self, config, chase_store):
        """The attack's M timestamps carry biometric signal."""
        from repro.android.apps import app
        from repro.core.pipeline import EavesdropAttack
        from repro.core.pipeline import simulate_credential_entry
        from repro.workloads.behavior import typing_events
        from repro.android.device import VictimDevice
        from repro.workloads.credentials import random_credential

        attack = EavesdropAttack(chase_store, recognize_device=False)
        identifier = TypistIdentifier()
        fast, slow = VOLUNTEERS[0], VOLUNTEERS[3]

        def run_session(profile, seed):
            rng = np.random.default_rng(seed)
            model = TypingModel(rng, profiles=[profile])
            text = random_credential(rng, length=16)
            events = typing_events(text, model)
            device = VictimDevice(config, app("chase"), rng=rng)
            trace = device.compile(events, end_time_s=events[-1].t + 1.5)
            result = attack.run_on_trace(trace, seed=seed + 1)
            return result.online.key_times()

        for s in range(3):
            identifier.enroll(fast.name, run_session(fast, 100 + s))
            identifier.enroll(slow.name, run_session(slow, 200 + s))

        hits = 0
        for s in range(3):
            hits += identifier.identify(run_session(fast, 300 + s)) == fast.name
            hits += identifier.identify(run_session(slow, 400 + s)) == slow.name
        assert hits >= 4, "eavesdropped timestamps must distinguish the two typists"
