"""Section 3.2: device/configuration recognition accuracy.

"These readings will be first used to recognize the current device model
and configuration, and then applied to the corresponding classification
model."  The bench preloads models for a diverse fleet and measures how
often the attack picks the right one from the victim's first PC changes
(chip-id narrowing via KGSL_PROP_DEVICE_INFO plus signature matching).
"""

import numpy as np

from conftest import run_once, scaled
from repro.analysis.experiments import cached_model
from repro.android.apps import app
from repro.android.keyboard import KEYBOARDS
from repro.android.os_config import DeviceConfig, default_config, phone
from repro.core.model_store import ModelStore
from repro.core.pipeline import EavesdropAttack, simulate_credential_entry
from repro.workloads.credentials import credential_batch

FLEET = [
    (DeviceConfig(phone=phone("oneplus8pro")), app("chase")),
    (DeviceConfig(phone=phone("oneplus8pro"), keyboard=KEYBOARDS["sogou"]), app("chase")),
    (DeviceConfig(phone=phone("pixel2")), app("chase")),
    (DeviceConfig(phone=phone("lg_v30")), app("chase")),
    (DeviceConfig(phone=phone("oneplus9")), app("chase")),
    (DeviceConfig(phone=phone("oneplus8pro")), app("amex")),
]


def test_sec32_device_recognition_accuracy(benchmark):
    def run():
        store = ModelStore()
        for config, target in FLEET:
            store.add(cached_model(config, target))
        attack = EavesdropAttack(store, recognize_device=True)
        rng = np.random.default_rng(32)
        texts = credential_batch(rng, scaled(3) * len(FLEET))
        correct = total = exact = 0
        for i, text in enumerate(texts):
            config, target = FLEET[i % len(FLEET)]
            trace = simulate_credential_entry(config, target, text, seed=3200 + i)
            result = attack.run_on_trace(trace, seed=3300 + i)
            expected = f"{config.config_key()}/{target.name}"
            correct += result.model_key == expected
            exact += result.text == text
            total += 1
        return correct, exact, total

    correct, exact, total = run_once(benchmark, run)
    print(
        f"\nSection 3.2 — device recognition: {correct}/{total} configurations "
        f"identified; {exact}/{total} credentials stolen verbatim with the fleet store"
    )
    assert correct / total > 0.9, "recognition must almost always pick the right model"
    assert exact / total > 0.5
