"""Tests for the glyph metrics table."""

import pytest

from repro.android.glyphs import (
    _GLYPH_TABLE,
    KEYBOARD_CHARACTERS,
    glyph,
    has_glyph,
)

#: Every modeled glyph, keyboard characters and the extra symbols alike.
ALL_GLYPHS = {char: glyph(char) for char in _GLYPH_TABLE}


class TestCoverage:
    def test_all_fig18_characters_have_glyphs(self):
        for char in KEYBOARD_CHARACTERS:
            assert has_glyph(char), f"missing glyph for {char!r}"

    def test_fig18_set_has_70_characters(self):
        # 26 lower + 10 digits + ',' '.' + 26 upper + 16 symbols
        assert len(KEYBOARD_CHARACTERS) == 80
        assert len(set(KEYBOARD_CHARACTERS)) == 80

    def test_mask_bullet_exists(self):
        assert has_glyph("•")

    def test_unknown_character_rejected(self):
        with pytest.raises(KeyError):
            glyph("£")

    def test_multichar_rejected(self):
        with pytest.raises(KeyError):
            glyph("ab")


class TestMetricRanges:
    def test_ink_fractions_are_plausible(self):
        for char, metrics in ALL_GLYPHS.items():
            assert 0.0 <= metrics.ink_fraction <= 0.5, char

    def test_width_fractions_are_plausible(self):
        for char, metrics in ALL_GLYPHS.items():
            assert 0.0 < metrics.width_fraction <= 1.0, char

    def test_comma_and_period_have_minimum_ink(self):
        """Paper Fig 17c/18: ',' and '.' cause the least overdraw."""
        letters_digits = [glyph(c) for c in "abcdefghijklmnopqrstuvwxyz1234567890"]
        comma, period = glyph(","), glyph(".")
        least_letter_ink = min(g.ink_fraction * g.width_fraction for g in letters_digits)
        assert comma.ink_fraction * comma.width_fraction < least_letter_ink
        assert period.ink_fraction * period.width_fraction < least_letter_ink

    def test_wide_characters_are_wide(self):
        assert glyph("m").width_fraction > glyph("i").width_fraction
        assert glyph("W").width_fraction > glyph("l").width_fraction
        assert glyph("@").width_fraction > 0.8


class TestCaseSeparability:
    def test_case_pairs_differ_in_some_metric(self):
        """Case pairs must be distinguishable or Fig 18's uppercase
        accuracy could not hold."""
        for lower in "abcdefghijklmnopqrstuvwxyz":
            lo, up = glyph(lower), glyph(lower.upper())
            assert (
                lo.strokes != up.strokes
                or abs(lo.ink_fraction - up.ink_fraction) > 0.01
                or abs(lo.width_fraction - up.width_fraction) > 0.05
            ), lower


class TestRendering:
    def test_vector_primitives_are_two_per_stroke(self):
        g = glyph("8")
        assert g.primitives(vector=True) == 2 * g.strokes

    def test_bitmap_rendering_is_always_one_quad(self):
        """The Fig 14 invariant: every echoed character costs exactly 2
        primitives regardless of which character it is."""
        for char in KEYBOARD_CHARACTERS:
            assert glyph(char).primitives(vector=False) == 2
