"""Tests for the background monitoring service (Fig 4 pipeline)."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
from repro.core.model_store import ModelStore
from repro.core.pipeline import EavesdropAttack
from repro.core.service import MonitoringService, ServiceReport


@pytest.fixture(scope="module")
def service(chase_store):
    return MonitoringService(EavesdropAttack(chase_store))


def session(config, text="secret12", start=3.0, end=9.0, seed=31, launch=1.2):
    device = VictimDevice(config, app("chase"), rng=np.random.default_rng(seed))
    events = [KeyPress(t=start + 0.45 * i, char=c) for i, c in enumerate(text)]
    return device.compile(events, end_time_s=end, launch_at_s=launch)


class TestMonitoringService:
    def test_detects_launch_then_steals(self, service, config):
        trace = session(config)
        report = service.run(trace, seed=77)
        assert report.launch_detected_at is not None
        assert 1.2 < report.launch_detected_at < 3.0, "detection precedes typing"
        assert report.text == "secret12"
        assert report.model_key.endswith("/chase")

    def test_results_only_no_raw_traces(self, service, config):
        report = service.run(session(config), seed=78)
        fields = set(vars(report))
        assert "text" in fields
        assert not any("sample" in name or "delta" in name for name in fields)

    def test_idle_watch_saves_reads(self, service, config):
        report = service.run(session(config), seed=79)
        assert report.idle_reads > 0
        assert report.attack_reads > report.idle_reads
        assert report.reads_saved_vs_always_on > 0.0

    def test_no_launch_no_attack(self, service, config):
        """A session whose launch render is missing never escalates."""
        from repro.gpu.timeline import RenderTimeline
        from repro.android.device import SessionTrace

        original = session(config)
        quiet = RenderTimeline()
        for frame in original.timeline.frames:
            if frame.label != "initial":
                quiet.add(frame)
        trace = SessionTrace(
            timeline=quiet,
            config=original.config,
            app=original.app,
            end_time_s=original.end_time_s,
        )
        report = service.run(trace, seed=80)
        assert report.launch_detected_at is None
        assert report.text == ""
        assert report.attack_reads == 0

    def test_key_times_reported(self, service, config):
        report = service.run(session(config), seed=81)
        assert len(report.key_times) == len(report.text)
        assert report.key_times == sorted(report.key_times)

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            MonitoringService(EavesdropAttack(ModelStore()))

    def test_attack_window_truncates(self, chase_store, config):
        short = MonitoringService(EavesdropAttack(chase_store), attack_window_s=2.0)
        trace = session(config, text="abcdefgh", start=2.0, end=8.0, launch=0.8)
        report = short.run(trace, seed=82)
        # only the first ~2 seconds of typing fit in the window
        assert report.launch_detected_at is not None
        assert len(report.text) < 8
