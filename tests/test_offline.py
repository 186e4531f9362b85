"""Tests for the offline phase: labeling and model training."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
import repro.core.offline as offline
from repro.core.offline import OfflineTrainer, TrainingData, frame_to_class_label, label_samples
from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import COUNTER_ORDER, RenderTimeline
from repro.kgsl.interpose import open_sampler
from repro.kgsl.sampler import nonzero_deltas_vectorized
from repro.runtime.source import ATTACK_SOURCE_CHUNK
from tests.oracles import PcDelta, batch_deltas, label_deltas


def read_session(trace, end_s, seed=0):
    """The trace's read batches, sampled the way the trainer samples."""
    sampler = open_sampler(trace, 0.008, np.random.default_rng(seed))
    return list(sampler.iter_batches(0.0, end_s, chunk=ATTACK_SOURCE_CHUNK))


def moved_windows(batches):
    """``(prev_t, t, rows)`` of the read pairs that moved, over batches."""
    parts = [nonzero_deltas_vectorized(b, prev) for prev, b in zip([None] + batches, batches)]
    return tuple(
        np.concatenate([getattr(part, name) for part in parts]) for name in ("prev_t", "t", "rows")
    )


def labelled(trace, end_s):
    data = TrainingData()
    label_samples(trace.timeline, *moved_windows(read_session(trace, end_s)), data)
    return data


def assert_matches_oracle(data, timeline, deltas):
    vectors, clean, discarded = label_deltas(timeline, deltas)
    assert (data.clean_windows, data.discarded_windows) == (clean, discarded)
    assert data.vectors_by_label.keys() == vectors.keys()
    for label, rows in vectors.items():
        assert np.array_equal(data.vectors_by_label[label], np.vstack(rows)), label


GRID_S = 0.001
FRAME_LABELS = (
    "press:a",
    "press_dup:b",
    "echo:3",
    "cursor_blink:2:on",
    "dismiss:a",
    "notification",
    "other_app",
    "mystery_frame",
)


@st.composite
def labelled_windows(draw):
    """A frame log and read windows over it: frames overlap, some render
    in zero time, and read times land on grid points and exactly on
    frame starts and ends."""
    timeline = RenderTimeline()
    for start, length, label in draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 6), st.sampled_from(FRAME_LABELS)),
            max_size=12,
        )
    ):
        stats = FrameStats(
            increment=pc.CounterIncrement(), pixels_touched=0, render_time_s=length * GRID_S
        )
        timeline.add_render(start * GRID_S, stats, label=label)
    edges = [f.start_s for f in timeline.frames] + [f.end_s for f in timeline.frames]
    on_grid = st.integers(0, 50).map(lambda k: k * GRID_S)
    times = sorted(
        draw(
            st.lists(
                st.one_of(on_grid, st.sampled_from(edges)) if edges else on_grid,
                min_size=2,
                max_size=24,
                unique=True,
            )
        )
    )
    n = len(times) - 1
    row = st.lists(st.integers(0, 999), min_size=11, max_size=11)
    rows = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.int64)
    cut = draw(st.integers(0, n))
    return timeline, np.array(times[:-1]), np.array(times[1:]), rows, cut


#: Two moved windows, for the empty frame log example.
ROWS_2 = np.ones((2, 11), dtype=np.int64)


class TestFrameLabelMapping:
    def test_press_labels(self):
        assert frame_to_class_label("press:w") == "key:w"
        assert frame_to_class_label("press_dup:w") == "key:w"

    def test_press_of_colon_character(self):
        assert frame_to_class_label("press::") == "key::"

    def test_echo_labels_carry_length(self):
        assert frame_to_class_label("echo:7") == "field:7:on"

    def test_blink_labels(self):
        assert frame_to_class_label("cursor_blink:3:off") == "field:3:off"
        assert frame_to_class_label("cursor_blink:3:on") == "field:3:on"

    def test_backspace_labels(self):
        assert frame_to_class_label("backspace:2") == "field:2:on"

    def test_dismiss_labels(self):
        assert frame_to_class_label("dismiss:w") == "reject:dismiss:w"

    def test_system_labels(self):
        assert frame_to_class_label("notification") == "reject:notification"
        assert frame_to_class_label("switch_away_3") == "reject:transient"
        assert frame_to_class_label("shade_down_1") == "reject:transient"
        assert frame_to_class_label("other_app") == "reject:transient"
        assert frame_to_class_label("initial") == "reject:transient"

    def test_unknown_label_maps_to_none(self):
        assert frame_to_class_label("mystery_frame") is None


class TestLabelSamples:
    def test_clean_windows_labeled(self, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(0))
        events = [KeyPress(t=0.5 + 0.55 * i, char="w") for i in range(6)]
        data = labelled(device.compile(events, end_time_s=4.2), 4.2)
        assert "key:w" in data.vectors_by_label
        assert data.clean_windows > 0

    def test_ambiguous_windows_discarded(self, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(0))
        # two presses virtually simultaneous -> merged windows get discarded
        trace = device.compile(
            [KeyPress(t=0.5, char="w"), KeyPress(t=0.502, char="n")], end_time_s=1.5
        )
        assert labelled(trace, 1.5).discarded_windows > 0

    def test_session_matches_the_per_delta_oracle(self, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(0))
        events = [KeyPress(t=0.5 + 0.3 * i, char=c) for i, c in enumerate("wnwq,.")]
        trace = device.compile(events, end_time_s=2.6)
        batches = read_session(trace, 2.6)
        data = TrainingData()
        label_samples(trace.timeline, *moved_windows(batches), data)
        deltas = [
            delta
            for prev, batch in zip([None] + batches, batches)
            for delta in batch_deltas(nonzero_deltas_vectorized(batch, prev))
        ]
        assert data.clean_windows > 0 and data.discarded_windows > 0
        assert_matches_oracle(data, trace.timeline, deltas)

    @given(labelled_windows())
    @example((RenderTimeline(), np.array([0.0, 0.008]), np.array([0.008, 0.016]), ROWS_2, 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_delta_oracle(self, windows):
        # labelled in two calls, as sessions are: rows accumulate per label
        timeline, prev_t, t, rows, cut = windows
        data = TrainingData()
        for part in (slice(0, cut), slice(cut, None)):
            label_samples(timeline, prev_t[part], t[part], rows[part], data)
        deltas = [
            PcDelta(t=end, prev_t=start, values=dict(zip(COUNTER_ORDER, row)))
            for start, end, row in zip(prev_t.tolist(), t.tolist(), rows.tolist())
        ]
        assert_matches_oracle(data, timeline, deltas)


class TestTrainer:
    def test_model_key_includes_config_and_app(self, config):
        trainer = OfflineTrainer(config, app("chase"))
        assert trainer.model_key.endswith("/chase")
        assert config.config_key() in trainer.model_key

    def test_trainable_characters_cover_fig18(self, config):
        trainer = OfflineTrainer(config, app("chase"))
        chars = trainer.trainable_characters()
        assert len(chars) == 80
        assert "," in chars and "Q" in chars and "@" in chars

    def test_trained_model_has_all_key_classes(self, chase_model, config):
        trainer = OfflineTrainer(config, app("chase"))
        for char in trainer.trainable_characters():
            assert f"key:{char}" in chase_model.labels, char

    def test_trained_model_has_reject_classes(self, chase_model):
        assert any(label.startswith("reject:dismiss") for label in chase_model.labels)
        assert "reject:notification" in chase_model.labels
        assert "reject:transient" in chase_model.labels

    def test_metadata_records_window_counts(self, chase_model):
        assert chase_model.metadata["clean_windows"] > 500
        assert chase_model.metadata["app"] == "chase"

    @pytest.mark.parametrize("target", ["chase", "pnc"])
    def test_collection_is_chunk_invariant(self, monkeypatch, config, target):
        """Collection reads in larger batches than the attack; the
        training data does not depend on the batch size."""

        def collect(chunk):
            monkeypatch.setattr(offline, "OFFLINE_SOURCE_CHUNK", chunk)
            trainer = OfflineTrainer(config, app(target), rng=np.random.default_rng(5))
            data = trainer.collect(sweep_repeats=1)
            vectors = {label: np.array(v) for label, v in data.vectors_by_label.items()}
            return vectors, data.clean_windows, data.discarded_windows

        offline_vectors, *offline_counts = collect(offline.OFFLINE_SOURCE_CHUNK)
        attack_vectors, *attack_counts = collect(ATTACK_SOURCE_CHUNK)
        assert offline_counts == attack_counts
        assert list(offline_vectors) == list(attack_vectors)
        for label, vectors in offline_vectors.items():
            assert np.array_equal(vectors, attack_vectors[label]), label

    def test_distinct_keys_have_distinct_centroids(self, chase_model):
        import itertools

        seen = {}
        for label in chase_model.key_labels:
            key = tuple(np.round(chase_model.centroid(label), 1))
            assert key not in seen, f"{label} collides with {seen.get(key)}"
            seen[key] = label
