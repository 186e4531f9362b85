"""Substrate sensitivity: do the paper-shape conclusions survive
perturbations of the simulator's free parameters?

A reproduction on a synthetic substrate must show its conclusions are not
knife-edge artifacts of the chosen constants.  This bench sweeps the two
most influential knobs — the hardware counter jitter and the popup
geometry — and checks that the qualitative claims hold across the range.
"""

import numpy as np

from conftest import run_once, scaled
import repro.analysis.experiments as experiments
import repro.android.device as device_mod
from repro.analysis.experiments import run_credential_batch
from repro.workloads.credentials import credential_batch


def _with_jitter_scale(scale_factor, fn):
    base = device_mod.JITTER_SIGMA
    device_mod.JITTER_SIGMA = tuple((cid, sigma * scale_factor) for cid, sigma in base)
    device_mod._RENDER_CACHE.clear()
    experiments._MODEL_CACHE.clear()
    try:
        return fn()
    finally:
        device_mod.JITTER_SIGMA = base
        device_mod._RENDER_CACHE.clear()
        experiments._MODEL_CACHE.clear()


def test_substrate_jitter_sensitivity(benchmark, config, chase):
    texts = credential_batch(np.random.default_rng(88), scaled(14))

    def sweep():
        rows = {}
        for factor in (0.5, 1.0, 2.0):
            rows[factor] = _with_jitter_scale(
                factor,
                lambda: run_credential_batch(config, chase, seed=8800, texts=texts),
            )
        return rows

    rows = run_once(benchmark, sweep)
    print("\nsubstrate ablation — counter jitter scale:")
    for factor, batch in rows.items():
        print(
            f"  jitter x{factor}: text={batch.text_accuracy:.3f} "
            f"key={batch.key_accuracy:.3f}"
        )

    # the attack works across a 4x jitter range (conclusion not knife-edge)
    for factor, batch in rows.items():
        assert batch.key_accuracy > 0.9, f"jitter x{factor}"
        assert batch.text_accuracy > 0.4, f"jitter x{factor}"
    # more hardware noise can only make inference harder (weak monotone)
    assert rows[2.0].key_accuracy <= rows[0.5].key_accuracy + 0.02


def test_substrate_is_deterministic(benchmark, config, chase):
    """Identical seeds reproduce identical experiment outcomes —
    prerequisite for everything else in the harness."""
    texts = credential_batch(np.random.default_rng(89), scaled(6))

    def run_twice():
        a = run_credential_batch(config, chase, seed=8900, texts=texts)
        b = run_credential_batch(config, chase, seed=8900, texts=texts)
        return a, b

    a, b = run_once(benchmark, run_twice)
    assert a.text_accuracy == b.text_accuracy
    assert a.key_accuracy == b.key_accuracy
    assert a.report.errors_per_trace == b.report.errors_per_trace
