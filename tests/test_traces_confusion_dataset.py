"""Tests for trace inspection and confusion matrices."""

import numpy as np
import pytest

from repro.analysis.confusion import ConfusionMatrix
from repro.analysis.traces import TraceSummary, annotate, render_trace
from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
from repro.core.online import PLAIN, OnlineEngine, _Batch
from repro.faults import FaultPlan
from repro.kgsl.interpose import build_chain, open_sampler
from repro.runtime import SamplerDeltaSource


@pytest.fixture(scope="module")
def annotated_session(config, chase_model):
    device = VictimDevice(config, app("chase"), rng=np.random.default_rng(3))
    events = [KeyPress(t=0.6 + 0.5 * i, char=c) for i, c in enumerate("wnq")]
    trace = device.compile(events, end_time_s=2.8)
    sampler = open_sampler(trace, 0.008, np.random.default_rng(4))
    source = SamplerDeltaSource(sampler, 0.0, 2.8)
    return annotate(trace, (payload for _, payload in source.events()), model=chase_model)


class TestAnnotate:
    def test_every_press_appears_in_truth_labels(self, annotated_session):
        labels = {label for entry in annotated_session for label in entry.truth_labels}
        assert {"press:w", "press:n", "press:q"} <= labels

    def test_classifications_present(self, annotated_session):
        classified = [e for e in annotated_session if e.classified is not None]
        assert classified
        # raw per-window classifications: split presses may show as None
        # here (the engine recombines them), but some keys classify direct
        keys = {e.classified for e in classified if e.classified.startswith("key:")}
        assert keys & {"key:w", "key:n", "key:q"}
        # field and dismiss families must classify as well
        assert any(e.classified.startswith("field:") for e in classified)

    def test_split_flag_marks_mid_render_reads(self, annotated_session):
        assert any(e.is_split for e in annotated_session)

    def test_truth_kinds_deduplicated(self, annotated_session):
        for entry in annotated_session:
            assert len(entry.truth_kinds) == len(set(entry.truth_kinds))

    def test_render_is_readable(self, annotated_session):
        text = render_trace(annotated_session, limit=10)
        assert "classified" in text.splitlines()[0]
        assert "press:w" in text

    def test_render_limit(self, annotated_session):
        text = render_trace(annotated_session, limit=2)
        assert "more" in text

    def test_summary_counts(self, annotated_session):
        summary = TraceSummary.from_annotated(annotated_session)
        assert summary.deltas == len(annotated_session)
        assert summary.classified + summary.rejected == summary.deltas
        assert "press" in summary.by_truth_kind

    def test_masked_rows_classify_as_the_engine_looks_them_up(self, config, chase_model):
        """A delta over a reclaimed counter is classified over the
        counters it observed, exactly as the engine's plain lookup
        classifies that row, never with the unknown cell read as 0."""
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(3))
        events = [KeyPress(t=0.6 + 0.4 * i, char=c) for i, c in enumerate("wnqw")]
        trace = device.compile(events, end_time_s=2.4)
        plan = FaultPlan(reclaim_rate_hz=8.0, reclaim_window_s=0.05)
        sampler = open_sampler(trace, 0.008, np.random.default_rng(4), build_chain(plan, seed=4))
        source = SamplerDeltaSource(sampler, 0.0, 2.4, chunk=64)
        payloads = [payload for _, payload in source.events()]
        annotated = annotate(trace, payloads, model=chase_model)
        rows = [(batch, row) for batch, lo, hi in payloads for row in range(lo, hi)]
        masked = [k for k, (batch, row) in enumerate(rows) if batch.unknown[row].any()]
        assert masked, "the reclaims must mask some deltas"
        engine = OnlineEngine(chase_model)
        read_as_zero = 0
        for k in masked:
            batch, row = rows[k]
            primed = _Batch(batch, row, None)
            engine._prime(primed, 1)
            lookup = primed.values[PLAIN, 1]
            assert (annotated[k].classified, annotated[k].distance) == (
                lookup.label,
                lookup.distance,
            )
            read_as_zero += chase_model.classify(batch.rows[row]).distance != lookup.distance
        assert read_as_zero, "masking must change what a masked row classifies as"


class TestConfusionMatrix:
    def test_diagonal_counts_matches(self):
        matrix = ConfusionMatrix()
        matrix.record("abc", "abc")
        assert matrix.accuracy("a") == 1.0

    def test_substitution_recorded(self):
        matrix = ConfusionMatrix()
        matrix.record("ab", "ax")
        assert matrix.counts[("b", "x")] == 1
        assert matrix.accuracy("b") == 0.0

    def test_missed_and_spurious(self):
        matrix = ConfusionMatrix()
        matrix.record("abc", "ac")
        matrix.record("a", "ax")
        assert matrix.counts[("b", ConfusionMatrix.MISSED)] == 1
        assert matrix.counts[(ConfusionMatrix.SPURIOUS, "x")] == 1

    def test_confusion_ranking(self):
        matrix = ConfusionMatrix()
        for _ in range(3):
            matrix.record(",", ".")
        matrix.record("a", "b")
        top = matrix.confusions()
        assert top[0] == (",", ".", 3)

    def test_symmetrized_pairs(self):
        matrix = ConfusionMatrix()
        matrix.record(",", ".")
        matrix.record(".", ",")
        pairs = matrix.most_confused_pairs()
        assert pairs[0] == (",", ".", 2)

    def test_unknown_key_accuracy_zero(self):
        assert ConfusionMatrix().accuracy("z") == 0.0

