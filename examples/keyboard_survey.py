#!/usr/bin/env python3
"""Survey: how every keyboard and every key leaks (Figs 18 and 20).

For each of the six modeled keyboards, trains a model and reports the
attack's per-key weak spots and the counter signatures behind them —
useful for understanding *why* the side channel separates keys.

Usage:
    python examples/keyboard_survey.py [keyboard ...]
"""

import sys

import numpy as np

from repro.api import (
    KEYBOARDS,
    app,
    cached_model,
    character_group,
    counters as pc,
    default_config,
    run_per_key_sweep,
)


def survey_keyboard(name: str) -> None:
    config = default_config(keyboard=KEYBOARDS[name])
    print(f"\n=== {KEYBOARDS[name].display_name} ({name}) ===")

    model = cached_model(config, app("chase"))
    print(
        f"model: {len(model.key_labels)} key classes, cth={model.cth:.3f}, "
        f"{model.size_bytes() / 1024:.1f} KB"
    )

    # signature geometry: the most confusable key pairs
    labels = model.key_labels
    scaled = np.vstack([model.centroid(label) for label in labels]) / model.scale
    dists = np.sqrt(((scaled[:, None, :] - scaled[None, :, :]) ** 2).sum(-1))
    iu = np.triu_indices(len(labels), 1)
    order = np.argsort(dists[iu])
    print("closest signature pairs (hardest to separate):")
    for idx in order[:5]:
        i, j = iu[0][idx], iu[1][idx]
        a, b = labels[i][4:], labels[j][4:]
        print(f"  {a!r} vs {b!r}: d={dists[i, j]:.3f}")

    # measured per-key accuracy
    stats = run_per_key_sweep(config, app("chase"), repeats=6, seed=4242)
    accuracy = {c: correct / total for c, (correct, total) in stats.items() if total}
    overall = sum(c for c, _ in stats.values()) / max(1, sum(t for _, t in stats.values()))
    worst = sorted(accuracy, key=accuracy.get)[:6]
    print(f"measured per-key accuracy: {overall:.3f} overall")
    print(
        "weakest keys: "
        + ", ".join(f"{c!r}({accuracy[c]:.2f},{character_group(c)})" for c in worst)
    )

    # which counters carry the signal for this keyboard
    spread = np.std(scaled, axis=0)
    ranked = np.argsort(spread)[::-1]
    names = [spec.name for spec in pc.SELECTED_COUNTERS]
    print("most discriminative counters: " + ", ".join(names[i] for i in ranked[:3]))


def main() -> None:
    requested = sys.argv[1:] or ["gboard", "swift", "sogou"]
    for name in requested:
        if name not in KEYBOARDS:
            print(f"unknown keyboard {name!r}; available: {sorted(KEYBOARDS)}")
            continue
        survey_keyboard(name)


if __name__ == "__main__":
    main()
