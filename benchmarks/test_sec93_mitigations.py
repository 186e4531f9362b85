"""Sections 9.1-9.3: mitigation effectiveness.

* RBAC / SELinux ioctl whitelisting (Section 9.2) blocks the attack at
  the device file — the only complete fix the paper endorses.
* Local-only counter visibility (the finer-grained RBAC) blinds the
  attack while preserving the API for profilers.
* Disabling key-press popups (Section 9.1) prevents key inference but
  still leaks the input length via the Section 5.3 field signal.
* Login-screen animation (PNC, Section 9.3) floods the counters and
  drops accuracy to ~30 % in the paper.
* Driver-level value obfuscation perturbs returned counter values.
"""

from conftest import run_once, scaled
from repro.analysis.experiments import run_credential_batch, single_model_attack
from repro.android.apps import app
from repro.core.pipeline import simulate_credential_entry
from repro.mitigations.popup_disable import config_with_popups_disabled
from repro.obs import MetricsRegistry


def test_sec92_rbac_blocks_attack(benchmark, config, chase):
    attack = single_model_attack(
        config, chase, mitigation="rbac", metrics=MetricsRegistry()
    )
    trace = simulate_credential_entry(config, chase, "protected123", seed=93)

    result = run_once(benchmark, lambda: attack.run_on_trace(trace, seed=930))
    denials = result.manifest.counters["mitigation.denials"]
    # EACCES permanently masks every counter: the attack survives but
    # recovers nothing (blind sampling, degraded result).
    assert result.text == "", "SELinux whitelisting must deny the counter ioctls"
    assert result.degraded
    assert denials >= 1
    print(f"\nSection 9.2 — RBAC: attack blinded with EACCES after {denials} denial(s)")


def test_sec92_local_only_blinds_attack(benchmark, config, chase):
    attack = single_model_attack(config, chase, mitigation="local-only")
    trace = simulate_credential_entry(config, chase, "protected456", seed=94)
    result = run_once(benchmark, lambda: attack.run_on_trace(trace, seed=940))
    print(f"\nSection 9.2 — local-only counters: inferred {result.text!r}")
    assert result.text == ""


def test_sec91_popup_disable_stops_keys_but_leaks_length(benchmark, chase, config):
    disabled = config_with_popups_disabled(config)
    text = "lengthleak12"

    def run():
        attack = single_model_attack(disabled, chase)
        trace = simulate_credential_entry(disabled, chase, text, seed=91)
        return attack.run_on_trace(trace, seed=910)

    result = run_once(benchmark, run)
    from repro.analysis.metrics import align

    correct = align(text, result.text).correct
    inferred_len = len(result.text) + result.online.stats.unattributed_growth
    print(
        f"\nSection 9.1 — popups disabled: inferred {result.text!r} "
        f"({correct}/{len(text)} correct), length estimate {inferred_len}"
    )
    # direct eavesdropping is broken...
    assert correct / len(text) < 0.75, "popup disabling must break most key inference"
    # ...but the input length still leaks through the field signal
    assert abs(inferred_len - len(text)) <= 2


def test_sec93_pnc_animation_obfuscation(benchmark, config, chase):
    n = scaled(12)

    def run():
        clean = run_credential_batch(config, chase, n_texts=n, seed=9300)
        animated = run_credential_batch(config, app("pnc"), n_texts=n, seed=9300)
        return clean, animated

    clean, animated = run_once(benchmark, run)
    print(
        f"\nSection 9.3 — login animation (paper: 30.2%):\n"
        f"  clean app:    text={clean.text_accuracy:.3f} key={clean.key_accuracy:.3f}\n"
        f"  PNC animated: text={animated.text_accuracy:.3f} key={animated.key_accuracy:.3f}"
    )
    assert animated.text_accuracy < clean.text_accuracy
    assert animated.text_accuracy < 0.5, "the animation must hurt substantially"


def test_sec93_value_obfuscation(benchmark, config, chase):
    attack = single_model_attack(config, chase)
    obfuscated = single_model_attack(config, chase, mitigation="obfuscate-strong")
    text = "obfuscated99"

    def run():
        trace = simulate_credential_entry(config, chase, text, seed=95)
        clear = attack.run_on_trace(trace, seed=950)
        fuzzed = obfuscated.run_on_trace(trace, seed=950)
        return clear, fuzzed

    clear, fuzzed = run_once(benchmark, run)
    from repro.analysis.metrics import align

    clear_correct = align(text, clear.text).correct
    fuzzed_correct = align(text, fuzzed.text).correct
    print(
        f"\nSection 9.3 — driver value obfuscation: "
        f"clear {clear_correct}/{len(text)}, obfuscated {fuzzed_correct}/{len(text)}"
    )
    assert fuzzed_correct < clear_correct
