"""Tests for the offline phase: labeling and model training."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
from repro.android.os_config import default_config
import repro.core.offline as offline
from repro.core.offline import OfflineTrainer, TrainingData, frame_to_class_label, label_samples
from repro.kgsl.interpose import open_sampler
from repro.runtime import SamplerDeltaSource
from repro.runtime.source import ATTACK_SOURCE_CHUNK


def delta_stream(trace, end_s, seed=0):
    """The trace's nonzero deltas, read the way the trainer reads them."""
    sampler = open_sampler(trace, 0.008, np.random.default_rng(seed))
    return [delta for _, delta in SamplerDeltaSource(sampler, 0.0, end_s).events()]


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
        trace = device.compile(events, end_time_s=4.2)
        data = TrainingData()
        label_samples(trace.timeline, delta_stream(trace, 4.2), data)
        assert "key:w" in data.vectors_by_label
        assert data.clean_windows > 0

    def test_ambiguous_windows_discarded(self, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(0))
        # two presses virtually simultaneous -> merged windows get discarded
        trace = device.compile(
            [KeyPress(t=0.5, char="w"), KeyPress(t=0.502, char="n")], end_time_s=1.5
        )
        data = TrainingData()
        label_samples(trace.timeline, delta_stream(trace, 1.5), data)
        assert data.discarded_windows > 0

    def test_training_data_merge(self):
        a = TrainingData()
        a.add("key:a", np.zeros(11))
        a.clean_windows = 1
        b = TrainingData()
        b.add("key:a", np.ones(11))
        b.add("key:b", np.ones(11))
        b.discarded_windows = 2
        a.merge(b)
        assert a.counts() == {"key:a": 2, "key:b": 1}
        assert a.discarded_windows == 2


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
