"""Tests for keyboard layouts and popup geometry (all six keyboards)."""

import pytest

from repro.android.display import Display, Resolution
from repro.android.glyphs import KEYBOARD_CHARACTERS
from repro.android.keyboard import KEYBOARDS, KeyboardLayout, keyboard
from tests.oracles import contains


@pytest.fixture(params=sorted(KEYBOARDS))
def layout(request):
    return KeyboardLayout(KEYBOARDS[request.param], Display())


class TestRegistry:
    def test_six_keyboards_from_fig20(self):
        assert sorted(KEYBOARDS) == ["gboard", "go", "grammarly", "pinyin", "sogou", "swift"]

    def test_lookup_by_name(self):
        assert keyboard("gboard") is keyboard("gboard")

    def test_unknown_keyboard_rejected(self):
        with pytest.raises(KeyError):
            keyboard("samsung")

    def test_gboard_has_highest_duplication_rate(self):
        """Gboard's rich popup animation is the paper's duplication source."""
        assert keyboard("gboard").duplicate_popup_prob == max(
            spec.duplicate_popup_prob for spec in KEYBOARDS.values()
        )

    def test_all_keyboards_support_popups_by_default(self):
        for spec in KEYBOARDS.values():
            assert spec.supports_popup


class TestLayoutGeometry:
    def test_every_fig18_character_has_a_key(self, layout):
        for char in KEYBOARD_CHARACTERS:
            assert layout.has_key(char), f"{layout.spec.name} missing {char!r}"

    def test_key_rects_are_within_keyboard_bounds(self, layout):
        for char in KEYBOARD_CHARACTERS:
            geo = layout.key(char)
            assert contains(layout.bounds, geo.key_rect), char

    def test_popup_rects_stay_on_screen(self, layout):
        screen = layout.display.bounds
        for char in KEYBOARD_CHARACTERS:
            geo = layout.key(char)
            assert contains(screen, geo.popup_rect), char

    def test_popup_is_above_its_key(self, layout):
        for char in "qwertyuiopasdfghjkl":
            geo = layout.key(char)
            assert geo.popup_rect.bottom <= geo.key_rect.top, char

    def test_popup_larger_than_key(self, layout):
        for char in "asdf":
            geo = layout.key(char)
            assert geo.popup_rect.area > geo.key_rect.area

    def test_distinct_keys_have_distinct_rects(self, layout):
        rects = {}
        for char in "qwertyuiopasdfghjklzxcvbnm":
            geo = layout.key(char)
            key = (geo.key_rect.left, geo.key_rect.top)
            assert key not in rects, f"{char!r} collides with {rects.get(key)!r}"
            rects[key] = char

    def test_case_pairs_share_position(self, layout):
        for char in "qaz":
            assert layout.key(char).key_rect == layout.key(char.upper()).key_rect

    def test_pages(self, layout):
        assert layout.key("a").page == "lower"
        assert layout.key("A").page == "upper"
        assert layout.key("@").page == "symbol"

    def test_unknown_character_raises(self, layout):
        with pytest.raises(KeyError):
            layout.key("§")

    def test_backspace_rect_within_bounds(self, layout):
        assert contains(layout.bounds, layout.backspace_rect())


def keys_under(layout, rect):
    """Primary-page keys whose caps intersect ``rect`` (popup occludees)."""
    return [
        geo
        for geo in map(layout.key, sorted(layout._geometry))
        if geo.page == "lower" and not geo.key_rect.intersect(rect).is_empty
    ]


class TestKeysUnder:
    def test_popup_occludes_nearby_keys(self):
        layout = KeyboardLayout(keyboard("gboard"), Display())
        geo = layout.key("g")
        under = keys_under(layout, geo.popup_rect)
        assert under, "popup must overlap at least one primary-page key"
        chars = {k.char for k in under}
        assert all(c.islower() or c.isdigit() or c in ",." for c in chars)

    def test_different_keys_occlude_different_sets(self):
        layout = KeyboardLayout(keyboard("gboard"), Display())
        under_g = {k.char for k in keys_under(layout, layout.key("g").popup_rect)}
        under_m = {k.char for k in keys_under(layout, layout.key("m").popup_rect)}
        assert under_g != under_m

    def test_top_row_popups_rise_above_the_keyboard(self):
        """Top-row popups occlude the app area, not other keys — their
        positional signal comes from the app content beneath them."""
        layout = KeyboardLayout(keyboard("gboard"), Display())
        geo = layout.key("q")
        assert geo.popup_rect.bottom <= layout.bounds.top + layout.row_height


class TestResolutionDependence:
    def test_layout_scales_with_resolution(self):
        fhd = KeyboardLayout(keyboard("gboard"), Display(resolution=Resolution.FHD_PLUS))
        qhd = KeyboardLayout(keyboard("gboard"), Display(resolution=Resolution.QHD_PLUS))
        assert qhd.key("a").key_rect.area > fhd.key("a").key_rect.area

    def test_height_fraction_respected(self):
        layout = KeyboardLayout(keyboard("gboard"), Display())
        expected = int(2376 * keyboard("gboard").height_fraction)
        assert layout.height_px == expected
