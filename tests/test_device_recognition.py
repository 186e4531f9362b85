"""Tests for device/configuration recognition (Section 3.2)."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.keyboard import keyboard
from repro.android.os_config import default_config, phone, DeviceConfig
from repro.core.device_recognition import DeviceRecognizer
from repro.core.model_store import ModelStore
from repro.core.pipeline import simulate_credential_entry, train_model
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler, nonzero_deltas


@pytest.fixture(scope="module")
def multi_store():
    configs = [
        (default_config(), app("chase")),
        (default_config(keyboard=keyboard("sogou")), app("chase")),
        (DeviceConfig(phone=phone("pixel2")), app("chase")),
        (default_config(), app("amex")),
    ]
    store = ModelStore()
    for i, (config, target) in enumerate(configs):
        store.add(train_model(config, target, seed=40 + i))
    return store


def observed_deltas(config, target, seed=77):
    trace = simulate_credential_entry(config, target, "hunter2secret", seed=seed)
    kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
    sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(seed))
    return nonzero_deltas(sampler.sample_range(0.0, trace.end_time_s))


class TestRecognition:
    def test_recognizes_default_config(self, multi_store):
        recognizer = DeviceRecognizer(multi_store)
        deltas = observed_deltas(default_config(), app("chase"))
        result = recognizer.recognize(deltas)
        assert result.model_key == f"{default_config().config_key()}/chase"

    def test_recognizes_other_keyboard(self, multi_store):
        recognizer = DeviceRecognizer(multi_store)
        deltas = observed_deltas(default_config(keyboard=keyboard("sogou")), app("chase"))
        result = recognizer.recognize(deltas)
        assert "sogou" in result.model_key

    def test_recognizes_other_phone(self, multi_store):
        recognizer = DeviceRecognizer(multi_store)
        deltas = observed_deltas(DeviceConfig(phone=phone("pixel2")), app("chase"))
        result = recognizer.recognize(deltas)
        assert "pixel2" in result.model_key

    def test_recognizes_app(self, multi_store):
        recognizer = DeviceRecognizer(multi_store)
        deltas = observed_deltas(default_config(), app("amex"))
        result = recognizer.recognize(deltas)
        assert result.model_key.endswith("/amex")

    def test_scores_cover_all_models(self, multi_store):
        recognizer = DeviceRecognizer(multi_store)
        deltas = observed_deltas(default_config(), app("chase"))
        result = recognizer.recognize(deltas)
        assert set(result.scores) == set(multi_store.keys())
        assert result.margin >= 0

    def test_empty_stream_rejected(self, multi_store):
        with pytest.raises(ValueError):
            DeviceRecognizer(multi_store).recognize([])

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            DeviceRecognizer(ModelStore())
