"""The scenario registry: the PR-6 contract surface.

Four layers under test:

* the generic :class:`repro.registry.Registry` semantics every producer
  shares — unified unknown-name errors with did-you-mean suggestions;
* the removed module-constant aliases (``CHASE``, ``SWIFTKEY``, …)
  staying removed, so names resolve through the registries only;
* :class:`repro.scenarios.Scenario` / ``AttackConfig(scenario=...)``
  serialization round-trips and facade threading;
* the PIN-pad extension — a keyboard + scenario registered entirely
  outside the core tables attacking end to end.
"""

from __future__ import annotations

import warnings

import pytest

from repro.android.apps import APP_REGISTRY, TARGET_APPS, app
from repro.android.display import Display
from repro.android.keyboard import (
    KEYBOARD_REGISTRY,
    KEYBOARDS,
    KeyboardLayout,
    KeyboardSpec,
    keyboard,
)
from repro.android.os_config import PHONE_MODELS, PHONE_REGISTRY, default_config, phone
from repro.api import AttackConfig, attack, run_fleet, simulate, train
from repro.registry import Registry, UnknownNameError
from repro.scenarios import (
    SCENARIO_REGISTRY,
    Scenario,
    register_scenario,
    scenario,
    scenario_names,
)


class TestUnifiedUnknownNameErrors:
    """Satellite 1: one error shape across keyboard/app/phone/scenario."""

    @pytest.mark.parametrize(
        "lookup, typo, suggestion",
        [
            (keyboard, "gbord", "gboard"),
            (app, "chsae", "chase"),
            (phone, "oneplus8pr", "oneplus8pro"),
            (scenario, "pinpda", "pinpad"),
        ],
    )
    def test_did_you_mean(self, lookup, typo, suggestion):
        with pytest.raises(UnknownNameError) as excinfo:
            lookup(typo)
        message = str(excinfo.value)
        assert f"'{typo}'" in message
        assert "known:" in message
        assert f"did you mean '{suggestion}'" in message

    def test_unknown_name_error_is_a_key_error(self):
        # callers with pre-registry ``except KeyError`` handlers keep working
        with pytest.raises(KeyError):
            keyboard("nope")

    def test_no_suggestion_when_nothing_close(self):
        with pytest.raises(UnknownNameError) as excinfo:
            keyboard("zzzzzzzzzz")
        assert "did you mean" not in str(excinfo.value)


class TestRegistrySemantics:
    def test_reregistering_identical_spec_is_idempotent(self):
        spec = keyboard("gboard")
        assert KEYBOARD_REGISTRY.register(spec) is spec

    def test_reregistering_different_spec_raises_without_replace(self):
        import dataclasses

        clash = dataclasses.replace(keyboard("gboard"), display_name="Impostor")
        with pytest.raises(ValueError, match="already registered"):
            KEYBOARD_REGISTRY.register(clash)

    def test_names_sorted_regardless_of_registration_order(self):
        forward, backward = Registry("thing"), Registry("thing")

        class Named:
            def __init__(self, name):
                self.name = name

        specs = [Named(n) for n in ("zeta", "alpha", "mid")]
        for spec in specs:
            forward.register(spec)
        for spec in reversed(specs):
            backward.register(spec)
        assert forward.names() == backward.names() == ["alpha", "mid", "zeta"]
        assert forward.get("alpha").name == backward.get("alpha").name

    def test_snapshots_stay_paper_sized_after_extensions(self):
        # pinpad is registered, but the paper-set snapshots don't grow
        assert len(KEYBOARDS) == 6
        assert "pinpad" not in KEYBOARDS
        assert "pinpad" in KEYBOARD_REGISTRY
        assert len(TARGET_APPS) == 10
        assert len(PHONE_MODELS) == 6
        assert len(PHONE_REGISTRY) == 6


class TestDeprecatedAliases:
    """The legacy module constants are gone; the registries are the API."""

    @pytest.mark.parametrize(
        "module_name, attr",
        [
            ("repro.android.apps", "CHASE"),
            ("repro.android.apps", "NATIVE_APPS"),
            ("repro.android.keyboard", "SWIFTKEY"),
            ("repro.android.os_config", "ONEPLUS_8_PRO"),
            ("repro.api", "CHASE"),
            ("repro", "GRAMMARLY"),
        ],
    )
    def test_removed_name_raises_attribute_error(self, module_name, attr):
        import importlib

        module = importlib.import_module(module_name)
        with pytest.raises(AttributeError):
            getattr(module, attr)
        assert attr not in getattr(module, "__all__", ())

    def test_plain_import_of_repro_is_warning_free(self):
        # importing the package must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import repro  # noqa: F401
            import repro.api  # noqa: F401
            import repro.scenarios  # noqa: F401


class TestScenarioSpec:
    def test_builtin_matrix_is_registered(self):
        names = scenario_names()
        for kb in KEYBOARDS:
            for target in ("chase", "schwab"):
                assert f"{kb}-{target}" in names
        assert "gboard-pnc" in names
        assert "gboard-chase-slow" in names
        assert "pinpad" in names

    def test_scenario_round_trips_through_dict(self):
        scn = scenario("gboard-chase-fast")
        assert Scenario.from_dict(scn.to_dict()) == scn

    def test_from_dict_rejects_unknown_fields(self):
        data = scenario("pinpad").to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            Scenario.from_dict(data)

    def test_register_rejects_unknown_axis(self):
        with pytest.raises(UnknownNameError):
            register_scenario(
                Scenario(name="broken", keyboard="not-a-kb", app="chase")
            )
        assert "broken" not in SCENARIO_REGISTRY

    def test_register_rejects_charset_off_the_keyboard(self):
        with pytest.raises(ValueError, match="no key"):
            register_scenario(
                Scenario(
                    name="broken-charset",
                    keyboard="pinpad",
                    app="chase",
                    charset="12ab",
                )
            )

    def test_credential_pool_respects_charset(self):
        assert scenario("pinpad").credential_pool() == "1234567890"
        # default pool = trainable characters of the keyboard layout
        pool = scenario("gboard-chase").credential_pool()
        assert set("abc123,.") <= set(pool)

    def test_every_scenario_serializes_and_resolves(self):
        for name in scenario_names():
            scn = scenario(name)
            assert Scenario.from_dict(scn.to_dict()) == scn
            assert scn.keyboard_spec().name == scn.keyboard
            assert scn.app_spec().name == scn.app
            assert scn.phone_spec().name == scn.phone


class TestAttackConfigScenario:
    def test_scenario_field_normalizes_to_name_and_round_trips(self):
        cfg = AttackConfig(scenario=scenario("pinpad"))
        assert cfg.scenario == "pinpad"
        assert AttackConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.resolved_scenario() is scenario("pinpad")

    def test_unknown_scenario_fails_at_construction(self):
        with pytest.raises(UnknownNameError):
            AttackConfig(scenario="never-registered")

    def test_scenarioless_config_round_trip_unchanged(self):
        cfg = AttackConfig()
        assert cfg.scenario is None
        assert AttackConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.resolved_scenario() is None

    def test_facade_requires_scenario_or_explicit_args(self):
        with pytest.raises(ValueError, match="scenario"):
            train(config=AttackConfig())
        with pytest.raises(ValueError, match="scenario"):
            simulate(credential="x", config=AttackConfig())
        # device config first, then target app, named for the caller
        suffix = " or an AttackConfig with a scenario set"
        with pytest.raises(ValueError) as missing_device:
            run_fleet(None, target=app("chase"), credential="x", config=AttackConfig())
        assert str(missing_device.value) == "run_fleet() needs a device_config" + suffix
        with pytest.raises(ValueError) as missing_target:
            simulate(default_config(), credential="x", config=AttackConfig())
        assert str(missing_target.value) == "simulate() needs a target app" + suffix


class TestPinpadExtension:
    """The extensibility proof: registered outside the core tables."""

    def test_layout_has_ten_digit_keys(self):
        layout = KeyboardLayout(keyboard("pinpad"), Display())
        assert layout.spec.layout == "pinpad"
        for digit in "1234567890":
            assert layout.has_key(digit)
        assert not layout.has_key("a")

    def test_backspace_sits_bottom_right_of_zero(self):
        layout = KeyboardLayout(keyboard("pinpad"), Display())
        zero = layout.key("0").key_rect
        backspace = layout.backspace_rect()
        assert backspace.top == zero.top  # same (bottom) row
        assert backspace.left > zero.right  # to the right

    def test_pinpad_attack_recovers_pin_exactly(self):
        cfg = AttackConfig(
            scenario="pinpad", sweep_repeats=2, recognize_device=False
        )
        store = train(config=cfg)
        trace = simulate(credential="19374", seed=5, config=cfg)
        result = attack(store, trace, seed=6, config=cfg)
        assert result.text == "19374"

    def test_speed_tier_scenario_threads_into_simulate(self):
        slow = AttackConfig(scenario="gboard-chase-slow")
        fast = AttackConfig(scenario="gboard-chase-fast")
        slow_trace = simulate(credential="abcdef", seed=3, config=slow)
        fast_trace = simulate(credential="abcdef", seed=3, config=fast)
        assert slow_trace.end_time_s > fast_trace.end_time_s
