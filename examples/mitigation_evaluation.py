#!/usr/bin/env python3
"""Mitigation shoot-out (paper Section 9).

Evaluates every defence the paper discusses against the same credential:

* baseline (no defence)
* key-press popups disabled (Section 9.1)
* SELinux/RBAC ioctl whitelisting (Section 9.2)
* local-only counter visibility (finer-grained RBAC, Section 9.2)
* login-screen animation à la PNC Mobile (Section 9.3)
* driver-level counter value obfuscation (Section 9.3)

Usage:
    python examples/mitigation_evaluation.py
"""

from repro.api import (
    MetricsRegistry,
    app,
    align,
    config_with_popups_disabled,
    default_config,
    simulate_credential_entry,
    single_model_attack,
)

CHASE = app("chase")
PNC = app("pnc")

CREDENTIAL = "S3cur3&Sound"


def score(truth: str, inferred: str) -> str:
    alignment = align(truth, inferred)
    return f"{alignment.correct}/{len(truth)} chars ({inferred!r})"


def main() -> None:
    config = default_config()

    print(f"credential under attack: {CREDENTIAL!r}\n")

    # --- baseline -------------------------------------------------------
    attack = single_model_attack(config, CHASE)
    trace = simulate_credential_entry(config, CHASE, CREDENTIAL, seed=9)
    baseline = attack.run_on_trace(trace, seed=90)
    print(f"no defence            : {score(CREDENTIAL, baseline.text)}")

    # --- popups disabled --------------------------------------------------
    nopopup_config = config_with_popups_disabled(config)
    nopopup_attack = single_model_attack(nopopup_config, CHASE)
    nopopup_trace = simulate_credential_entry(nopopup_config, CHASE, CREDENTIAL, seed=9)
    nopopup = nopopup_attack.run_on_trace(nopopup_trace, seed=90)
    leak = len(nopopup.text) + nopopup.online.stats.unattributed_growth
    print(
        f"popups disabled       : {score(CREDENTIAL, nopopup.text)} "
        f"— but length {leak} still leaks (Section 9.1)"
    )

    # --- RBAC / SELinux whitelist ---------------------------------------
    # EACCES permanently masks every counter: the attacking app survives
    # but samples nothing (see docs/defenses.md)
    rbac_attack = single_model_attack(
        config, CHASE, mitigation="rbac", metrics=MetricsRegistry()
    )
    rbac = rbac_attack.run_on_trace(trace, seed=90)
    denials = rbac.manifest.counters["mitigation.denials"]
    print(
        f"RBAC whitelist        : {score(CREDENTIAL, rbac.text)} "
        f"— blinded at ioctl ({denials} EACCES denials)"
    )

    # --- local-only counters ---------------------------------------------
    local_attack = single_model_attack(config, CHASE, mitigation="local-only")
    local = local_attack.run_on_trace(trace, seed=90)
    print(f"local-only counters   : {score(CREDENTIAL, local.text)} — attacker sees no activity")

    # --- login animation (PNC) -------------------------------------------
    pnc_attack = single_model_attack(config, PNC)
    pnc_trace = simulate_credential_entry(config, PNC, CREDENTIAL, seed=9)
    pnc = pnc_attack.run_on_trace(pnc_trace, seed=90)
    print(f"login animation (PNC) : {score(CREDENTIAL, pnc.text)} — paper measured ~30%")

    # --- driver value obfuscation ----------------------------------------
    fuzzed_attack = single_model_attack(config, CHASE, mitigation="obfuscate-strong")
    fuzzed = fuzzed_attack.run_on_trace(trace, seed=90)
    print(f"value obfuscation     : {score(CREDENTIAL, fuzzed.text)}")

    print(
        "\nConclusion (Section 9.2): access control at the counter interface"
        " is the only defence that stops the attack without breaking the"
        " popups users rely on."
    )


if __name__ == "__main__":
    main()
