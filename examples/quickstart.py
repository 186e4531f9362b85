#!/usr/bin/env python3
"""Quickstart: steal one credential end to end.

Runs the full chain of the paper's Fig 4 on the simulated substrate:

1. Offline phase — the attacker's bot sweeps every key on their own
   device and trains a classification model for (Oneplus 8 Pro, Gboard,
   Chase Mobile).
2. Victim session — a user types their password into the Chase login
   screen; the simulator compiles every GPU frame Android would render.
3. Online phase — the attack service reads the GPU performance counters
   through the KGSL ioctl interface every 8 ms and runs Algorithm 1.

Usage:
    python examples/quickstart.py [credential]
"""

import sys
import time

from repro.api import (
    AttackConfig,
    app,
    attack,
    default_config,
    simulate,
    train,
)


def main() -> None:
    credential = sys.argv[1] if len(sys.argv) > 1 else "Tr0ub4dor&3"
    config = default_config()
    target = app("chase")

    print(f"victim device : {config.phone.display_name} ({config.gpu.name})")
    print(f"configuration : {config.config_key()}")
    print(f"target app    : {target.display_name}")
    print(f"credential    : {credential!r}")
    print()

    print("[offline] training the classification model on the attacker's device ...")
    t0 = time.perf_counter()
    cfg = AttackConfig(recognize_device=False)
    store = train([(config, target)], config=cfg)
    model = store.get(store.keys()[0])
    print(
        f"[offline] {len(model.key_labels)} key classes, "
        f"{len(model.labels) - len(model.key_labels)} reject classes, "
        f"cth={model.cth:.3f}, size={model.size_bytes() / 1024:.1f} KB, "
        f"trained in {time.perf_counter() - t0:.1f}s"
    )

    print("[victim ] compiling the credential-entry session ...")
    trace = simulate(config, target, credential, seed=42)
    print(
        f"[victim ] {len(trace.timeline.frames)} GPU frames over "
        f"{trace.end_time_s:.1f}s of screen time"
    )

    print("[online ] sampling GPU performance counters every 8 ms ...")
    result = attack(store, trace, seed=99, config=cfg)

    print()
    print(f"inferred credential : {result.text!r}")
    print(f"ground truth        : {credential!r}")
    verdict = "EXACT MATCH" if result.text == credential else "partial"
    print(f"outcome             : {verdict}")
    stats = result.stats
    print(
        f"stats               : {stats.keys_inferred} keys inferred, "
        f"{stats.duplicates_suppressed} duplicates suppressed, "
        f"{stats.splits_recovered} splits recovered, "
        f"{stats.noise_events} noise events"
    )
    if result.latency.count:
        import numpy as np

        median_us = float(np.median(result.latency.samples)) * 1e6
        under_bound = result.latency.fraction_below(1e-4)
        print(
            f"inference latency   : median {median_us:.0f} us per PC change, "
            f"{under_bound:.0%} under 0.1 ms (Fig 25)"
        )


if __name__ == "__main__":
    main()
