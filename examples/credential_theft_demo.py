#!/usr/bin/env python3
"""Fleet demo: one attack APK, many victim devices and apps.

Reproduces the paper's deployment story (Section 3.2): the attacker
preloads a classification model per (device model, configuration, target
app) into one application; at run time the service recognizes which
configuration it is running on from the first PC changes it observes, and
then eavesdrops with the matching model.

Usage:
    python examples/credential_theft_demo.py
"""

import numpy as np

from repro.api import (
    AttackConfig,
    DeviceConfig,
    app,
    attack,
    credential_batch,
    edit_distance,
    keyboard,
    phone,
    simulate,
    train,
)


VICTIMS = [
    # (phone, keyboard, app) — three distinct configurations
    ("oneplus8pro", "gboard", app("chase")),
    ("pixel2", "gboard", app("chase")),
    ("oneplus8pro", "sogou", app("amex")),
]


def config_for(phone_name: str, keyboard_name: str) -> DeviceConfig:
    return DeviceConfig(phone=phone(phone_name), keyboard=keyboard(keyboard_name))


def main() -> None:
    print("[offline] training one model per (configuration, app) ...")
    pairs = [(config_for(p, k), target) for p, k, target in VICTIMS]
    cfg = AttackConfig(train_seed=11, recognize_device=True)
    store = train(pairs, config=cfg)
    print(
        f"[offline] preloaded store: {len(store)} models, "
        f"{store.total_size_bytes() / 1024:.1f} KB total "
        f"(avg {store.average_size_bytes() / 1024:.2f} KB per model)"
    )

    rng = np.random.default_rng(5)

    stolen = 0
    for i, ((config, target), credential) in enumerate(
        zip(pairs, credential_batch(rng, len(pairs)))
    ):
        print(f"\n--- victim {i + 1}: {config.phone.display_name} / "
              f"{config.keyboard.display_name} / {target.display_name} ---")
        trace = simulate(config, target, credential, seed=500 + i)
        result = attack(store, trace, seed=800 + i, config=cfg)

        expected_key = f"{config.config_key()}/{target.name}"
        recognized = "correct" if result.model_key == expected_key else "WRONG"
        print(f"device recognition : {result.model_key} ({recognized})")
        if result.recognition is not None:
            print(f"recognition margin : {result.recognition.margin:.2f}")
        print(f"typed              : {credential!r}")
        print(f"inferred           : {result.text!r}")
        if result.text == credential:
            stolen += 1
            print("outcome            : credential stolen verbatim")
        else:
            print(
                f"outcome            : {edit_distance(result.text, credential)} "
                "error(s) — recoverable with a few guesses"
            )

    print(f"\n{stolen}/{len(VICTIMS)} credentials stolen exactly.")


if __name__ == "__main__":
    main()
