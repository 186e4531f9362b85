"""Edge-case tests across the analysis and scene layers."""

import numpy as np
import pytest

from repro.analysis.metrics import AccuracyReport, align, edit_distance
from repro.android.apps import app
from repro.android.os_config import default_config
from repro.android.scenes import MASK_CHAR, SceneBuilder, UiState


class TestMetricsEdgeCases:
    def test_unicode_bullet_in_alignment(self):
        a = align("a" + MASK_CHAR + "b", "a" + MASK_CHAR + "b")
        assert a.errors == 0

    def test_empty_truth_all_insertions(self):
        a = align("", "abc")
        assert a.insertions == ["a", "b", "c"]
        assert a.correct == 0

    def test_empty_inferred_all_deletions(self):
        a = align("abc", "")
        assert a.deletions == ["a", "b", "c"]

    def test_both_empty(self):
        a = align("", "")
        assert a.errors == 0
        assert edit_distance("", "") == 0

    def test_report_accumulates_across_adds(self):
        report = AccuracyReport()
        report.add("ab", "ab")
        report.add("cd", "cx")
        assert report.traces == 2
        assert report.true_chars == 4
        assert report.correct_chars == 3
        assert report.errors_per_trace == [0, 1]

    def test_group_accuracy_ignores_unseen_groups(self):
        report = AccuracyReport()
        report.add("abc", "abc")
        groups = report.group_accuracy()
        assert set(groups) == {"lower"}

    def test_char_accuracy_counts_only_truth_side(self):
        report = AccuracyReport()
        report.add("a", "ab")  # 'b' inserted, never true
        assert report.char_accuracy("b") == 0.0
        assert "b" not in report.per_char_total


class TestSceneEdgeCases:
    @pytest.fixture(scope="class")
    def builder(self):
        return SceneBuilder(default_config())

    def test_edge_key_popup_clamped_on_screen(self, builder):
        for char in "qp,.":  # extreme columns
            damage = builder.popup_damage(char)
            assert builder.display.bounds.contains(damage), char

    def test_zero_length_field_has_cursor_only(self, builder):
        layer = builder.app_layer(UiState(app=app("chase"), typed_len=0, cursor_on=True))
        echoes = [op for op in layer.ops if op.label.startswith("echo_")]
        assert echoes == []
        assert any(op.label == "cursor" for op in layer.ops)

    def test_max_length_field_fits(self, builder):
        layer = builder.app_layer(UiState(app=app("chase"), typed_len=16))
        field_rect = app("chase").field_rect(builder.display)
        echoes = [op for op in layer.ops if op.label.startswith("echo_")]
        assert len(echoes) == 16
        # glyphs stay within the horizontal span of the screen
        for op in echoes:
            assert op.rect.right <= builder.display.resolution.width

    def test_overview_with_one_card(self, builder):
        scene = builder.overview_scene(0.5, cards=1)
        card_ops = [
            op for layer in scene for op in layer.ops if op.label.startswith("card")
        ]
        assert len(card_ops) == 2  # card + content

    def test_ripple_identical_shape_for_all_keys(self, builder):
        from repro.mitigations.popup_disable import config_with_popups_disabled

        ripple_builder = SceneBuilder(config_with_popups_disabled(default_config()))
        shapes = set()
        for char in "qazm,.":
            scene = ripple_builder.ripple_scene(char)
            op = scene.layers[0].ops[0]
            shapes.add((op.rect.width, op.rect.height, op.coverage, op.primitives))
        # identical shape modulo screen-edge clamping of extreme keys
        assert len(shapes) <= 2

    def test_masked_field_renders_bullets(self, builder):
        layer = builder.app_layer(UiState(app=app("chase"), typed_len=3, last_char="x"))
        echoes = [op for op in layer.ops if op.label.startswith("echo_")]
        assert len({op.fragment_pixels for op in echoes}) == 1, (
            "masked echoes must be identical regardless of typed characters"
        )
