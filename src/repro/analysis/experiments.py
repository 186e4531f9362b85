"""Reusable experiment harness: the evaluation loops behind every figure.

Benchmarks (one per paper table/figure) and the example scripts all go
through these helpers, so experiment definitions live in exactly one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import AccuracyReport
from repro.android.apps import AppSpec
from repro.android.device import VictimDevice
from repro.android.os_config import DeviceConfig
from repro.core.model_store import ModelStore
from repro.core.pipeline import EavesdropAttack, simulate_credential_entry, train_model
from repro.kgsl.sampler import DEFAULT_INTERVAL_S, IDLE, SystemLoad
from repro.workloads.behavior import practical_session
from repro.workloads.credentials import credential_batch
from repro.workloads.typing_model import TypingModel

#: Shared cache of trained models across an experiment run, keyed like the
#: attack APK's preloaded store.
_MODEL_CACHE: Dict[str, object] = {}


def cached_model(
    config: DeviceConfig,
    app: AppSpec,
    seed: int = 7,
    interval_s: float = DEFAULT_INTERVAL_S,
):
    """Train (or fetch) the model for one (config, app, interval)."""
    key = f"{config.config_key()}/{app.name}@{interval_s}"
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = train_model(config, app, seed=seed, interval_s=interval_s)
        _MODEL_CACHE[key] = model
    return model


def single_model_attack(
    config: DeviceConfig,
    app: AppSpec,
    interval_s: float = DEFAULT_INTERVAL_S,
    **attack_kw,
) -> EavesdropAttack:
    store = ModelStore()
    store.add(cached_model(config, app, interval_s=interval_s))
    return EavesdropAttack(
        store, interval_s=interval_s, recognize_device=False, **attack_kw
    )


@dataclass
class BatchResult:
    """Accuracy over a batch of credential-entry sessions."""

    report: AccuracyReport
    inference_times_s: List[float] = field(default_factory=list)

    @property
    def text_accuracy(self) -> float:
        return self.report.text_accuracy

    @property
    def key_accuracy(self) -> float:
        return self.report.key_accuracy


def run_credential_batch(
    config: DeviceConfig,
    app: AppSpec,
    n_texts: int = 30,
    length: Optional[int] = None,
    speed_tier: Optional[str] = None,
    load: SystemLoad = IDLE,
    gpu_utilization: float = 0.0,
    interval_s: float = DEFAULT_INTERVAL_S,
    seed: int = 1000,
    texts: Optional[Sequence[str]] = None,
    **attack_kw,
) -> BatchResult:
    """The Section 7.1 experiment loop: emulate ``n_texts`` random
    credentials on the victim and score the attack's inference."""
    attack = single_model_attack(config, app, interval_s=interval_s, **attack_kw)
    rng = np.random.default_rng(seed)
    if texts is None:
        texts = credential_batch(rng, n_texts, length=length)
    result = BatchResult(report=AccuracyReport())
    for i, text in enumerate(texts):
        trace = simulate_credential_entry(
            config,
            app,
            text,
            seed=seed + 17 * i + 1,
            speed_tier=speed_tier,
            gpu_utilization=gpu_utilization,
        )
        attack_result = attack.run_on_trace(trace, seed=seed + 31 * i + 2, load=load)
        result.report.add(text, attack_result.text)
        result.inference_times_s.extend(attack_result.latency.samples or ())
    return result


def run_per_key_sweep(
    config: DeviceConfig,
    app: AppSpec,
    repeats: int = 12,
    seed: int = 2000,
) -> Dict[str, Tuple[int, int]]:
    """The Fig 18 experiment: every keyboard character pressed ``repeats``
    times; returns per-character (correct, total)."""
    from repro.android.events import KeyPress
    from repro.workloads.credentials import balanced_character_stream

    attack = single_model_attack(config, app)
    rng = np.random.default_rng(seed)
    chars = balanced_character_stream(rng, repeats)
    correct: Dict[str, int] = {}
    total: Dict[str, int] = {}
    # several medium sessions rather than one huge one
    chunk = 120
    for start in range(0, len(chars), chunk):
        part = chars[start : start + chunk]
        events = [
            KeyPress(t=0.6 + i * 0.45, char=c, duration=0.08) for i, c in enumerate(part)
        ]
        device = VictimDevice(config, app, rng=np.random.default_rng(seed + start))
        trace = device.compile(events, end_time_s=0.6 + len(part) * 0.45 + 1.0)
        result = attack.run_on_trace(trace, seed=seed + start + 5)
        from repro.analysis.metrics import align

        alignment = align("".join(part), result.text)
        for truth_char, inferred_char in alignment.matches:
            correct[truth_char] = correct.get(truth_char, 0) + 1
            total[truth_char] = total.get(truth_char, 0) + 1
        for truth_char, _ in alignment.substitutions:
            total[truth_char] = total.get(truth_char, 0) + 1
        for truth_char in alignment.deletions:
            total[truth_char] = total.get(truth_char, 0) + 1
    return {c: (correct.get(c, 0), total.get(c, 0)) for c in total}


def run_practical_sessions(
    config: DeviceConfig,
    app: AppSpec,
    volunteers: int = 5,
    repeats: int = 3,
    duration_s: float = 180.0,
) -> Dict[str, AccuracyReport]:
    """The Section 8 experiment: per-volunteer practical usage sessions
    (session ``r`` of volunteer ``v`` is seeded ``3000 + 100 v + r``)."""
    seed = 3000
    attack = single_model_attack(config, app)
    reports: Dict[str, AccuracyReport] = {}
    for v in range(volunteers):
        report = AccuracyReport()
        for r in range(repeats):
            rng = np.random.default_rng(seed + 100 * v + r)
            session = practical_session(
                rng, TypingModel(rng), volunteer_index=v, duration_s=duration_s
            )
            device = VictimDevice(config, app, rng=rng)
            trace = device.compile(session.events, end_time_s=duration_s)
            result = attack.run_on_trace(trace, seed=seed + 100 * v + r + 7)
            report.add(trace.final_text, result.text)
        reports[f"volunteer{v + 1}"] = report
    return reports


def format_accuracy_table(rows: Dict[str, Tuple[float, float]], title: str) -> str:
    """Render {label: (text_acc, key_acc)} the way the paper's bar charts
    pair 'text input accuracy' and 'individual key press accuracy'."""
    lines = [title, f"{'case':28s} {'text acc':>9s} {'key acc':>9s}"]
    for label, (text_acc, key_acc) in rows.items():
        lines.append(f"{label:28s} {text_acc:9.3f} {key_acc:9.3f}")
    return "\n".join(lines)
