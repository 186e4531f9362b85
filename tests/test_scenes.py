"""Tests for UI scene construction and damage clipping."""

import pytest

from repro.android.apps import app
from repro.android.geometry import Rect
from repro.android.os_config import default_config
from repro.android.scenes import SceneBuilder, UiState
from tests.oracles import contains


@pytest.fixture(scope="module")
def builder():
    return SceneBuilder(default_config())


@pytest.fixture()
def state():
    return UiState(app=app("chase"))


class TestLayerStack:
    def test_full_stack_order(self, builder, state):
        layers = builder.full_layers(state.with_popup("g"))
        names = [layer.name for layer in layers]
        assert names[0].startswith("app:")
        assert any(n.startswith("keyboard:") for n in names)
        assert names[-1].startswith("popup:")

    def test_no_popup_layer_without_press(self, builder, state):
        names = [layer.name for layer in builder.full_layers(state)]
        assert not any(n.startswith("popup:") for n in names)

    def test_popup_layer_contains_body_and_glyph(self, builder, state):
        popup = builder.popup_layer(state.with_popup("w"))
        labels = [op.label for op in popup.ops]
        assert "popup_body" in labels
        assert any(label.startswith("popup_glyph") for label in labels)

    def test_popup_body_is_opaque(self, builder, state):
        popup = builder.popup_layer(state.with_popup("w"))
        body = next(op for op in popup.ops if op.label == "popup_body")
        assert body.opaque

    def test_popup_glyphs_differ_between_characters(self, builder, state):
        pop_w = builder.popup_layer(state.with_popup("w"))
        pop_i = builder.popup_layer(state.with_popup("i"))
        glyph_w = next(op for op in pop_w.ops if op.label.startswith("popup_glyph"))
        glyph_i = next(op for op in pop_i.ops if op.label.startswith("popup_glyph"))
        assert glyph_w.fragment_pixels != glyph_i.fragment_pixels

    def test_echo_glyph_count_tracks_typed_len(self, builder):
        def echoes(n):
            layer = builder.app_layer(UiState(app=app("chase"), typed_len=n))
            return sum(1 for op in layer.ops if op.label.startswith("echo_"))

        assert echoes(0) == 0
        assert echoes(5) == 5
        assert echoes(16) == 16

    def test_cursor_toggles(self, builder):
        on = builder.app_layer(UiState(app=app("chase"), cursor_on=True))
        off = builder.app_layer(UiState(app=app("chase"), cursor_on=False))
        assert any(op.label == "cursor" for op in on.ops)
        assert not any(op.label == "cursor" for op in off.ops)

    def test_notification_icons_in_status_bar(self, builder):
        bar = builder.status_bar_layer(UiState(app=app("chase"), notification_icons=4))
        icons = [op for op in bar.ops if op.label.startswith("notif_icon")]
        assert len(icons) == 4

    def test_web_app_adds_browser_chrome(self, builder):
        from repro.android.apps import app

        native = builder.app_layer(UiState(app=app("chase")))
        web = builder.app_layer(UiState(app=app("chase.com")))
        native_labels = {op.label for op in native.ops}
        web_labels = {op.label for op in web.ops}
        assert "chrome_bar" in web_labels
        assert "chrome_bar" not in native_labels


class TestKeyboardPages:
    def test_lowercase_page_by_default(self, builder, state):
        layer = builder.keyboard_layer(state)
        assert any(op.label == "label_q" for op in layer.ops)
        assert not any(op.label == "label_Q" for op in layer.ops)

    def test_uppercase_press_switches_page(self, builder, state):
        layer = builder.keyboard_layer(state.with_popup("Q"))
        assert any(op.label == "label_Q" for op in layer.ops)
        assert not any(op.label == "label_q" for op in layer.ops)

    def test_symbol_press_switches_page(self, builder, state):
        layer = builder.keyboard_layer(state.with_popup("@"))
        assert any(op.label == "label_@" for op in layer.ops)
        assert not any(op.label == "label_q" for op in layer.ops)

    def test_digits_on_every_page(self, builder, state):
        for popup in (None, "Q", "@"):
            ui = state.with_popup(popup) if popup else state
            layer = builder.keyboard_layer(ui)
            assert any(op.label == "label_7" for op in layer.ops)


class TestDamageClipping:
    def test_all_clipped_ops_inside_damage(self, builder, state):
        damage = builder.popup_damage("g")
        scene = builder.damage_scene(state.with_popup("g"), damage)
        for layer in scene:
            for op in layer.ops:
                assert contains(damage, op.rect), (layer.name, op.label)

    def test_empty_damage_produces_empty_scene(self, builder, state):
        scene = builder.damage_scene(state, Rect(0, 0, 0, 0))
        assert len(scene) == 0

    def test_full_damage_includes_everything(self, builder, state):
        scene = builder.damage_scene(state, builder.display.bounds)
        assert sum(layer.primitives for layer in scene) > 100

    def test_field_damage_never_overlaps_any_popup(self, builder, state):
        """Echo frames must not contain popup geometry, or the Fig 14
        length signal would be polluted by the pressed key."""
        field = builder.field_damage(app("chase"))
        for char in "qwertyuiop1234567890@#,.":
            pop = builder.layout.key(char).popup_rect
            assert field.intersect(pop).is_empty, char

    def test_popup_damage_covers_popup_and_key(self, builder):
        for char in "qgm,.":
            damage = builder.popup_damage(char)
            geo = builder.layout.key(char)
            assert contains(damage, geo.popup_rect), char
            assert contains(damage, geo.key_rect), char

    def test_popup_damage_differs_per_key(self, builder):
        assert builder.popup_damage("q") != builder.popup_damage("m")

    def test_status_bar_damage_at_top(self, builder):
        damage = builder.status_bar_damage()
        assert damage.top == 0
        assert damage.height < builder.display.resolution.height * 0.06


class TestOverviewAndAnimation:
    def test_overview_progress_bounds(self, builder):
        with pytest.raises(ValueError):
            builder.overview_scene(1.5)
        with pytest.raises(ValueError):
            builder.overview_scene(-0.1)

    def test_overview_scene_is_large(self, builder):
        scene = builder.overview_scene(0.5)
        screen = builder.display.resolution.pixel_count
        # dim layer + cards overdraw
        assert sum(layer.fragment_pixels for layer in scene) > screen

    def test_animation_layer_only_for_animated_apps(self, builder):
        assert builder.animation_layer(UiState(app=app("chase")), phase=0) is None
        pnc_builder = SceneBuilder(default_config())
        assert pnc_builder.animation_layer(UiState(app=app("pnc")), phase=0) is not None

    def test_animation_drifts_with_phase(self):
        builder = SceneBuilder(default_config())
        state = UiState(app=app("pnc"))
        r0 = builder.animation_damage(state, 0)
        r1 = builder.animation_damage(state, 1)
        assert r0 != r1
