"""Tests for session trace persistence."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.events import BackspacePress, KeyPress
from repro.android.session_io import load_session, save_session
from repro.core.pipeline import EavesdropAttack


@pytest.fixture(scope="module")
def compiled(config):
    device = VictimDevice(config, app("chase"), rng=np.random.default_rng(12))
    events = [
        KeyPress(t=0.6, char="a"),
        KeyPress(t=1.1, char="b"),
        BackspacePress(t=1.7),
    ]
    return device.compile(events, end_time_s=2.8)


class TestRoundTrip:
    def test_ground_truth_survives(self, compiled, tmp_path):
        path = tmp_path / "session.npz"
        save_session(compiled, path)
        loaded = load_session(path)
        assert loaded.final_text == compiled.final_text == "a"
        assert loaded.all_typed == "ab"
        assert loaded.backspaces == compiled.backspaces
        assert loaded.end_time_s == compiled.end_time_s

    def test_timeline_identical(self, compiled, tmp_path):
        path = tmp_path / "session.npz"
        save_session(compiled, path)
        loaded = load_session(path)
        assert len(loaded.timeline.frames) == len(compiled.timeline.frames)
        for a, b in zip(loaded.timeline.frames, compiled.timeline.frames):
            assert a.start_s == b.start_s
            assert a.label == b.label
            assert a.stats.increment.values == b.stats.increment.values
            assert a.stats.render_time_s == pytest.approx(b.stats.render_time_s)

    def test_config_reconstructed(self, compiled, tmp_path, config):
        path = tmp_path / "session.npz"
        save_session(compiled, path)
        loaded = load_session(path)
        assert loaded.config.config_key() == config.config_key()
        assert loaded.app.name == "chase"

    def test_attack_on_loaded_trace_matches(self, compiled, tmp_path, chase_store):
        path = tmp_path / "session.npz"
        save_session(compiled, path)
        loaded = load_session(path)
        attack = EavesdropAttack(chase_store, recognize_device=False)
        original = attack.run_on_trace(compiled, seed=5)
        replayed = attack.run_on_trace(loaded, seed=5)
        assert original.text == replayed.text

    def test_version_check(self, tmp_path):
        import json

        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            manifest=np.frombuffer(
                json.dumps({"version": 42}).encode(), dtype=np.uint8
            ),
        )
        with pytest.raises(ValueError):
            load_session(path)
