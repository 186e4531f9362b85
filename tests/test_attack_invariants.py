"""High-level invariants of the attack pipeline that must never regress."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
from repro.core.pipeline import EavesdropAttack, simulate_credential_entry
from repro.kgsl.sampler import SystemLoad


@pytest.fixture(scope="module")
def attack(chase_store):
    return EavesdropAttack(chase_store, recognize_device=False)


class TestNoOracleAccess:
    def test_attack_consumes_only_counter_reads(self, config, attack):
        """The attack must work from the ioctl interface alone: running it
        on a timeline stripped of labels (the only ground-truth carrier)
        yields identical output."""
        from repro.gpu.timeline import RenderTimeline

        trace = simulate_credential_entry(config, app("chase"), "oracle12", seed=61)
        timeline = trace.timeline
        stripped = RenderTimeline()
        stripped.append(
            timeline.starts, timeline.durations, timeline.amounts, ["?"] * len(timeline.starts)
        )
        original_text = attack.run_on_trace(trace, seed=62).text
        trace.timeline = stripped
        stripped_text = attack.run_on_trace(trace, seed=62).text
        assert original_text == stripped_text

    def test_result_contains_no_ground_truth_objects(self, config, attack):
        trace = simulate_credential_entry(config, app("chase"), "oracle34", seed=63)
        result = attack.run_on_trace(trace, seed=64)
        assert not hasattr(result, "presses")
        assert not hasattr(result.online, "presses")


class TestDeterminism:
    def test_same_seeds_identical_output(self, config, attack):
        trace = simulate_credential_entry(config, app("chase"), "determin1", seed=65)
        a = attack.run_on_trace(trace, seed=66)
        b = attack.run_on_trace(trace, seed=66)
        assert a.text == b.text
        assert [k.t for k in a.online.keys] == [k.t for k in b.online.keys]

    def test_different_sampler_seeds_may_differ_but_stay_close(self, config, attack):
        from repro.analysis.metrics import edit_distance

        trace = simulate_credential_entry(config, app("chase"), "determin2", seed=67)
        texts = {attack.run_on_trace(trace, seed=s).text for s in range(70, 76)}
        for text in texts:
            assert edit_distance(text, "determin2") <= 2


class TestMonotoneDegradation:
    def test_accuracy_never_improves_with_load(self, config, attack):
        """Averaged over traces, load can only hurt (sanity direction)."""
        from repro.analysis.metrics import edit_distance

        texts = ["loadcheck" + str(i) for i in range(6)]
        idle_errors = busy_errors = 0
        for i, text in enumerate(texts):
            trace = simulate_credential_entry(config, app("chase"), text, seed=700 + i)
            idle_errors += edit_distance(
                attack.run_on_trace(trace, seed=800 + i).text, text
            )
            busy_errors += edit_distance(
                attack.run_on_trace(
                    trace, seed=800 + i, load=SystemLoad(cpu_utilization=0.95)
                ).text,
                text,
            )
        assert busy_errors >= idle_errors


class TestTimestampFidelity:
    def test_inferred_times_match_true_press_times(self, config, attack):
        """M (the inferred timestamps) must land within the input latency
        of the true presses (the service reports them as ``key_times``)."""
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(71))
        truth_times = [0.7, 1.3, 1.9, 2.6]
        events = [
            KeyPress(t=t, char=c) for t, c in zip(truth_times, "wasd")
        ]
        trace = device.compile(events, end_time_s=3.6)
        result = attack.run_on_trace(trace, seed=72)
        assert result.text == "wasd"
        for inferred_t, true_t in zip(result.online.key_times(), truth_times):
            assert abs(inferred_t - (true_t + 0.03)) < 0.06

    def test_key_order_preserved(self, config, attack):
        trace = simulate_credential_entry(config, app("chase"), "abcdefgh", seed=73)
        result = attack.run_on_trace(trace, seed=74)
        times = result.online.key_times()
        assert times == sorted(times)
