"""Tests for the composable defense layer (paper Section 9).

Covers the :class:`~repro.mitigations.MitigationPolicy` spec and its
registry, the claimed composition laws (order invariance), the
:class:`~repro.mitigations.PolicyEnforcer` value pipeline at the KGSL
boundary, EACCES propagation into the sampler's permanent-masking path
(including interplay with injected faults), and the
``AttackConfig(mitigation=...)`` threading through the facade, worker
sharding, and the fleet.  See ``docs/defenses.md``.
"""

import itertools
import os

import numpy as np
import pytest

from repro.api import (
    AttackConfig,
    EavesdropAttack,
    FaultPlan,
    IoctlError,
    MITIGATION_REGISTRY,
    MetricsRegistry,
    MitigationPolicy,
    ProcessContext,
    UnknownNameError,
    attack,
    compose,
    mitigation,
    mitigation_names,
    run_defense_matrix,
    run_sessions,
    simulate,
    train,
)
from repro.core.service import MonitoringService
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler
from repro.mitigations.policy import MITIGATION_ENV, PolicyEnforcer
from repro.scenarios import scenario

UNTRUSTED = ProcessContext()  # default context is an untrusted app
PROFILER = ProcessContext(selinux_context="graphics_profiler")
SLOT = [(0x19, 14)]


def filter_value(enforcer, context, value, now, column=0):
    """One served counter value through the enforcer's batch pipeline."""
    rows = np.zeros((1, 11), dtype=np.int64)
    served = np.zeros((1, 11), dtype=bool)
    rows[0, column], served[0, column] = value, True
    enforcer.filter_value(context, np.array([now]), rows, served)
    return int(rows[0, column])


@pytest.fixture(scope="module")
def pinpad_cfg():
    return AttackConfig(scenario="pinpad", recognize_device=False, fault_plan=None)


@pytest.fixture(scope="module")
def pinpad_store(pinpad_cfg):
    return train(config=pinpad_cfg)


def _mitigated(base: AttackConfig, policy) -> AttackConfig:
    return AttackConfig.from_dict({**base.to_dict(), "mitigation": policy})


# ---------------------------------------------------------------------------
# spec + registry


class TestPolicySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MitigationPolicy(name="")
        with pytest.raises(ValueError):
            MitigationPolicy(name="x", rate_limit_hz=0)
        with pytest.raises(ValueError):
            MitigationPolicy(name="x", quantize_step=0)
        with pytest.raises(ValueError):
            MitigationPolicy(name="x", noise_strength=-1.0)

    def test_dict_round_trip_every_registered_policy(self):
        for name in mitigation_names():
            policy = mitigation(name)
            assert MitigationPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        payload = mitigation("rbac").to_dict()
        payload["typo_field"] = 1
        with pytest.raises(ValueError, match="typo_field"):
            MitigationPolicy.from_dict(payload)

    def test_registry_suggests_on_typo(self):
        with pytest.raises(UnknownNameError, match="rbac"):
            mitigation("rbca")

    def test_required_paper_policies_registered(self):
        names = set(mitigation_names())
        assert {"allow-all", "rbac", "popup-disable"} <= names
        # at least one obfuscation sweep point
        assert any("obfuscate" in n or "rate-limit" in n for n in names)

    def test_no_op_policy_builds_no_enforcer(self):
        assert mitigation("allow-all").enforcer(seed=1) is None
        assert mitigation("popup-disable").enforcer(seed=1) is None
        assert mitigation("rbac").enforcer(seed=1) is not None


class TestComposition:
    def test_order_invariance_all_registered_pairs(self):
        policies = [mitigation(name) for name in mitigation_names()]
        for a, b in itertools.combinations(policies, 2):
            assert a.compose(b) == b.compose(a), f"{a.name} x {b.name}"

    def test_associativity(self):
        a, b, c = (mitigation(n) for n in ("rbac", "quantize-4096", "popup-disable"))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_strictest_parameter_wins(self):
        fast = MitigationPolicy(name="fast", rate_limit_hz=100.0, quantize_step=16)
        slow = MitigationPolicy(name="slow", rate_limit_hz=10.0, quantize_step=4096)
        merged = fast.compose(slow)
        assert merged.rate_limit_hz == 10.0
        assert merged.quantize_step == 4096

    def test_privileged_contexts_intersect(self):
        a = MitigationPolicy(name="a", rbac=True, privileged_contexts=("su", "shell"))
        b = MitigationPolicy(name="b", rbac=True, privileged_contexts=("su",))
        assert a.compose(b).privileged_contexts == ("su",)

    def test_compose_varargs_with_name(self):
        merged = compose(
            mitigation("rbac"), mitigation("quantize-4096"), name="stack"
        )
        assert merged.name == "stack"
        assert merged.rbac and merged.quantize_step == 4096
        assert "composed" in merged.tags


# ---------------------------------------------------------------------------
# enforcer value pipeline


class TestPolicyEnforcer:
    def test_rbac_denies_untrusted_allows_privileged(self):
        enforcer = mitigation("rbac").enforcer(seed=0)
        with pytest.raises(IoctlError):
            enforcer.check(UNTRUSTED, "read", SLOT)
        enforcer.check(PROFILER, "read", SLOT)
        assert enforcer.stats.denials == 1

    def test_local_only_zeroes_unprivileged(self):
        enforcer = MitigationPolicy(name="lo", local_only=True).enforcer(seed=0)
        assert filter_value(enforcer, UNTRUSTED, 9999, now=0.0) == 0
        assert filter_value(enforcer, PROFILER, 9999, now=0.0) == 9999

    def test_rate_limit_serves_stale_values(self):
        enforcer = MitigationPolicy(name="rl", rate_limit_hz=10.0).enforcer(seed=0)

        def read(value, now):
            return filter_value(enforcer, UNTRUSTED, value, now)

        assert read(100, 0.0) == 100
        # inside the 100 ms window the cached value is served
        assert read(150, 0.05) == 100
        assert enforcer.stats.stale_serves == 1
        # past the window the fresh value flows again
        assert read(200, 0.11) == 200

    def test_quantize_floors_to_step(self):
        enforcer = MitigationPolicy(name="q", quantize_step=4096).enforcer(seed=0)
        assert filter_value(enforcer, UNTRUSTED, 10_000, now=0.0) == 8192

    def test_noise_walk_is_monotone_and_seeded(self):
        policy = MitigationPolicy(name="n", noise_strength=2.0)
        enforcer = policy.enforcer(seed=5)
        previous = 0
        for i, true_value in enumerate((1000, 5000, 20_000, 90_000)):
            served = filter_value(enforcer, UNTRUSTED, true_value, now=0.01 * i)
            assert served >= previous, "counters must never run backwards"
            previous = served
        # same seed reproduces the walk; a different seed diverges
        replay = [
            filter_value(policy.enforcer(seed=5), UNTRUSTED, 50_000, now=0.0)
            for _ in range(2)
        ]
        assert replay[0] == replay[1]

    def test_pipeline_stacks_all_layers(self):
        stack = compose(
            MitigationPolicy(name="q", quantize_step=64),
            MitigationPolicy(name="rl", rate_limit_hz=5.0),
            name="q+rl",
        )
        enforcer = stack.enforcer(seed=0)
        first = filter_value(enforcer, UNTRUSTED, 1000, now=0.0)
        assert first % 64 == 0
        # the stale serve replays the *post-pipeline* value
        second = filter_value(enforcer, UNTRUSTED, 5000, now=0.01)
        assert second == first

    def test_flush_metrics_emits_mitigation_counters(self):
        registry = MetricsRegistry()
        enforcer = mitigation("rbac").enforcer(seed=0)
        with pytest.raises(IoctlError):
            enforcer.check(UNTRUSTED, "get", SLOT)
        enforcer.flush_metrics(registry)
        counters = registry.manifest().counters
        assert counters["mitigation.denials"] == 1
        assert counters["mitigation.checks"] == 1


# ---------------------------------------------------------------------------
# EACCES propagation into the sampler (faults interplay)


def _pinpad_trace(cfg, credential="19283746", seed=3):
    return simulate(credential=credential, seed=seed, config=cfg)


class TestEaccesPropagation:
    def test_attack_survives_rbac_blind(self, pinpad_store, pinpad_cfg):
        cfg = _mitigated(pinpad_cfg, "rbac")
        result = attack(pinpad_store, _pinpad_trace(cfg), seed=41, config=cfg)
        assert result.text == ""
        assert result.degraded

    def test_denial_events_reach_the_manifest(self, pinpad_store, pinpad_cfg):
        cfg = _mitigated(pinpad_cfg, "rbac")
        registry = MetricsRegistry()
        attack(pinpad_store, _pinpad_trace(cfg), seed=42, config=cfg, metrics=registry)
        counters = registry.manifest().counters
        assert counters["sampler.counters_denied"] > 0
        assert counters["mitigation.denials"] > 0
        assert counters["faults.events.counter_denied"] > 0

    def test_rbac_composes_with_injected_faults(self, pinpad_store, pinpad_cfg):
        # permanent policy masking and transient fault recovery coexist:
        # the run completes blind, not crashed, under both
        cfg = AttackConfig.from_dict(
            {
                **pinpad_cfg.to_dict(),
                "mitigation": "rbac",
                "fault_plan": FaultPlan.from_profile("harsh", seed=9).to_dict(),
            }
        )
        result = attack(pinpad_store, _pinpad_trace(cfg), seed=43, config=cfg)
        assert result.text == ""
        assert result.degraded

    def test_mid_session_revocation_masks_for_good(self, pinpad_cfg):
        # counters reserve fine, then the policy lands (an OTA applying
        # the SELinux rule): the next read EACCES-masks every active
        # counter permanently
        trace = _pinpad_trace(pinpad_cfg)
        kgsl = open_kgsl(
            trace.timeline,
            clock=DeviceClock(),
            context=UNTRUSTED,
            adreno_model=trace.config.gpu.model,
        )
        sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(0))
        assert sampler._active, "counters must reserve before the revocation"
        kgsl.interposers = (mitigation("rbac").enforcer(seed=0),)
        assert sampler.read_once() is None
        assert sampler._active == []
        assert sampler.counters_denied > 0
        # denied counters are exempt from revival: still blind later, a
        # read of nothing with every counter masked
        row = sampler.read_once()
        assert row is not None and not any(row)
        assert sampler.missing_mask().all()
        assert sampler.counters_denied == len(sampler.counters)


# ---------------------------------------------------------------------------
# AttackConfig threading


class TestConfigThreading:
    def test_default_auto_resolves_to_none(self, monkeypatch):
        monkeypatch.delenv(MITIGATION_ENV, raising=False)
        assert AttackConfig().resolved_mitigation() is None

    def test_auto_honors_environment(self, monkeypatch):
        monkeypatch.setenv(MITIGATION_ENV, "rbac")
        assert AttackConfig().resolved_mitigation().name == "rbac"

    def test_explicit_none_beats_environment(self, monkeypatch):
        monkeypatch.setenv(MITIGATION_ENV, "rbac")
        assert AttackConfig(mitigation=None).resolved_mitigation() is None

    def test_typo_fails_at_construction(self):
        with pytest.raises(UnknownNameError):
            AttackConfig(mitigation="rbca")

    def test_attack_and_service_accept_policy_names(self, pinpad_store, pinpad_cfg):
        # a registry name works wherever a policy does, like fault and
        # drift profile names: no AttributeError at the first session
        trace = _pinpad_trace(pinpad_cfg)

        def attacker(policy):
            return EavesdropAttack(
                pinpad_store, recognize_device=False, fault_plan=None,
                drift=None, mitigation=policy,
            )

        by_name = attacker("obfuscate-mild").run_on_trace(trace, seed=45)
        by_spec = attacker(mitigation("obfuscate-mild")).run_on_trace(trace, seed=45)
        assert [vars(k) for k in by_name.keys] == [vars(k) for k in by_spec.keys]
        assert by_name.stats == by_spec.stats
        blocked = attacker("rbac").run_on_trace(trace, seed=45)
        assert blocked.text == "" and blocked.degraded
        assert MonitoringService(attacker("rbac")).run(trace, seed=46).text == ""

    def test_instance_survives_dict_round_trip(self):
        stack = compose(mitigation("rbac"), mitigation("popup-disable"))
        cfg = AttackConfig(mitigation=stack)
        revived = AttackConfig.from_dict(cfg.to_dict())
        assert revived.mitigation == stack

    def test_popup_disable_lands_on_the_simulated_device(self, pinpad_cfg):
        cfg = _mitigated(pinpad_cfg, "popup-disable")
        trace = _pinpad_trace(cfg)
        assert not trace.config.keyboard.supports_popup
        clean = _pinpad_trace(pinpad_cfg)
        assert clean.config.keyboard.supports_popup

    def test_allow_all_matches_undefended_run(self, pinpad_store, pinpad_cfg):
        baseline = attack(
            pinpad_store, _pinpad_trace(pinpad_cfg), seed=44, config=pinpad_cfg
        )
        cfg = _mitigated(pinpad_cfg, "allow-all")
        defended = attack(pinpad_store, _pinpad_trace(cfg), seed=44, config=cfg)
        assert defended.text == baseline.text
        assert [vars(k) for k in defended.keys] == [vars(k) for k in baseline.keys]

    def test_workers_parity_under_obfuscation(self, pinpad_store, pinpad_cfg):
        # the enforcer is seeded per session, so sharding cannot shift
        # the noise walk: workers=2 must reproduce workers=1 exactly
        from repro.parallel.sharded import ShardedRuntime

        cfg = _mitigated(pinpad_cfg, "obfuscate-mild")
        traces = [_pinpad_trace(cfg, seed=3 + i) for i in range(2)]
        serial = run_sessions(pinpad_store, traces, seed=77, config=cfg)
        sharded = ShardedRuntime(
            pinpad_store, config=cfg, workers=2, mp_context="inline"
        ).run_sessions(traces, seed=77)
        assert [r.text for r in sharded] == [r.text for r in serial]


# ---------------------------------------------------------------------------
# the matrix harness


class TestDefenseMatrix:
    def test_matrix_shape_and_baselines(self, pinpad_store):
        registry = MetricsRegistry()
        cells = run_defense_matrix(
            ["pinpad"], ["allow-all", "rbac", None], sessions=2, seed=7,
            metrics=registry,
        )
        by_name = {cell.mitigation: cell for cell in cells}
        assert set(by_name) == {"allow-all", "rbac", "none"}
        # allow-all reproduces the undefended baseline exactly
        assert by_name["allow-all"].exact == by_name["none"].exact
        assert by_name["allow-all"].keys_correct == by_name["none"].keys_correct
        # RBAC drives exact recovery to zero, with denials on the books
        assert by_name["rbac"].exact == 0
        assert by_name["rbac"].denials > 0
        gauges = registry.manifest().gauges
        assert gauges["defense.pinpad.rbac.exact_rate"] == 0.0

    def test_matrix_is_deterministic(self):
        scn = scenario("pinpad")
        assert scn.name == "pinpad"
        cells = run_defense_matrix(["pinpad"], [None], sessions=1, seed=7)
        again = run_defense_matrix(["pinpad"], [None], sessions=1, seed=7)
        first, second = cells[0].as_dict(), again[0].as_dict()
        first.pop("wall_s"), second.pop("wall_s")
        assert first == second
