"""Realism check: structured passwords leak like uniform ones.

The paper evaluates uniform random texts; real passwords follow
composition patterns (Word+digits+symbol).  The side channel operates per
key press, so structure should not change its accuracy — this bench
verifies that, and also covers the service pipeline end to end
(launch watch -> recognition -> inference).
"""

import numpy as np

from conftest import run_once, scaled
from repro.analysis.experiments import run_credential_batch, single_model_attack
from repro.analysis.metrics import AccuracyReport
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
from repro.core.pipeline import EavesdropAttack
from repro.core.service import MonitoringService
from repro.workloads.credentials import credential_batch
from repro.workloads.passwords import pattern_password_batch


def test_structured_passwords_leak_equally(benchmark, config, chase):
    n = scaled(16)

    def run():
        rng = np.random.default_rng(44)
        uniform = run_credential_batch(
            config, chase, seed=4400, texts=credential_batch(rng, n)
        )
        structured = run_credential_batch(
            config, chase, seed=4400, texts=pattern_password_batch(rng, n)
        )
        return uniform, structured

    uniform, structured = run_once(benchmark, run)
    print(
        f"\nrealistic credentials:\n"
        f"  uniform random : text={uniform.text_accuracy:.3f} key={uniform.key_accuracy:.3f}\n"
        f"  word+digits    : text={structured.text_accuracy:.3f} key={structured.key_accuracy:.3f}"
    )
    assert abs(structured.key_accuracy - uniform.key_accuracy) < 0.05, (
        "the channel is per-key; composition patterns must not matter"
    )
    assert structured.text_accuracy > 0.5


def test_full_service_pipeline(benchmark, config, chase):
    """Fig 4 end to end: idle watch -> launch detection -> attack."""
    from repro.core.model_store import ModelStore
    from repro.analysis.experiments import cached_model

    store = ModelStore()
    store.add(cached_model(config, chase))
    service = MonitoringService(EavesdropAttack(store))

    def run():
        recovered = 0
        duty_savings = []
        latencies = []
        rng = np.random.default_rng(45)
        texts = pattern_password_batch(rng, scaled(6), min_len=8, max_len=12)
        for i, text in enumerate(texts):
            device = VictimDevice(config, chase, rng=np.random.default_rng(4500 + i))
            # the victim idles elsewhere for 8 s before opening the app —
            # the window where the cheap 4 Hz watch saves power
            events = [
                KeyPress(t=9.5 + 0.45 * j, char=c) for j, c in enumerate(text)
            ]
            trace = device.compile(
                events, end_time_s=events[-1].t + 1.5, launch_at_s=8.0
            )
            report = service.run(trace, seed=4600 + i)
            if report.launch_detected_at is not None:
                latencies.append(report.launch_detected_at - 8.0)
            recovered += report.text == text
            duty_savings.append(report.reads_saved_vs_always_on)
        return recovered, len(texts), latencies, duty_savings

    recovered, total, latencies, duty_savings = run_once(benchmark, run)
    print(
        f"\nservice pipeline: {recovered}/{total} credentials recovered verbatim; "
        f"launch latency median {np.median(latencies):.2f}s; "
        f"idle-watch read savings {np.mean(duty_savings):.1%}"
    )
    assert len(latencies) == total, "every launch must be detected"
    assert recovered >= total // 2
    assert np.median(latencies) < 2.0, "detection within the login screen's lifetime"
    assert np.mean(duty_savings) > 0.2
