"""Tests for target application models."""

import pytest

from repro.android.apps import APP_REGISTRY, TARGET_APPS, app
from repro.android.display import Display
from repro.android.glyphs import glyph
from repro.android.os_config import default_config
from repro.android.scenes import MASK_CHAR, SceneBuilder, UiState
from tests.oracles import contains


class TestRegistry:
    def test_six_native_apps_from_fig19(self):
        assert [a.name for a in APP_REGISTRY.tagged("native")] == [
            "chase",
            "amex",
            "fidelity",
            "schwab",
            "myfico",
            "experian",
        ]

    def test_three_web_targets(self):
        web = [a for a in TARGET_APPS.values() if a.is_web]
        assert sorted(a.name for a in web) == ["chase.com", "experian.com", "schwab.com"]

    def test_lookup(self):
        assert app("chase") is TARGET_APPS["chase"]

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            app("venmo")

    def test_categories(self):
        assert app("chase").category == "banking"
        assert app("fidelity").category == "investment"
        assert app("myfico").category == "credit"


class TestFieldGeometry:
    def test_field_rect_within_screen(self):
        display = Display()
        for spec in TARGET_APPS.values():
            field = spec.field_rect(display)
            assert contains(display.bounds, field), spec.name

    def test_field_positions_differ_across_apps(self):
        display = Display()
        native = APP_REGISTRY.tagged("native")
        tops = {spec.field_rect(display).top for spec in native}
        assert len(tops) == len(native)

    def test_fields_are_in_upper_half(self):
        """Login fields sit above the keyboard, so popups never overlap
        them — a structural assumption of the damage model."""
        display = Display()
        for spec in TARGET_APPS.values():
            field = spec.field_rect(display)
            assert field.bottom < display.resolution.height * 0.5, spec.name


class TestAnimation:
    def test_only_pnc_animates(self):
        animated = [a.name for a in TARGET_APPS.values() if a.animation is not None]
        assert animated == ["pnc"]

    def test_pnc_animation_is_aggressive(self):
        anim = app("pnc").animation
        assert anim.frame_interval_s <= 1 / 24
        assert anim.area_fraction > 0.1

    def test_passwords_masked_everywhere(self):
        builder = SceneBuilder(default_config())
        bullet = glyph(MASK_CHAR)
        for spec in TARGET_APPS.values():
            layer = builder.app_layer(UiState(app=spec, typed_len=3))
            echoes = [op for op in layer.ops if op.label.startswith("echo_")]
            assert len(echoes) == 3, spec.name
            assert {op.coverage for op in echoes} == {bullet.ink_fraction}, spec.name
