"""Tests for the shared experiment harness."""

import numpy as np
import pytest

from repro.analysis.experiments import (
    cached_model,
    format_accuracy_table,
    run_credential_batch,
    run_per_key_sweep,
    run_practical_sessions,
    single_model_attack,
)
from repro.android.apps import app


class TestModelCache:
    def test_same_key_returns_same_object(self, config):
        a = cached_model(config, app("chase"))
        b = cached_model(config, app("chase"))
        assert a is b

    def test_interval_is_part_of_the_key(self, config):
        a = cached_model(config, app("chase"), interval_s=0.008)
        b = cached_model(config, app("chase"), interval_s=0.004)
        assert a is not b


class TestCredentialBatch:
    def test_batch_reports_counts(self, config):
        batch = run_credential_batch(config, app("chase"), n_texts=4, seed=55)
        assert batch.report.traces == 4
        assert 0.0 <= batch.text_accuracy <= 1.0
        assert batch.key_accuracy > 0.8
        assert batch.inference_times_s

    def test_explicit_texts_override_count(self, config):
        batch = run_credential_batch(
            config, app("chase"), n_texts=99, texts=["abcd1234"], seed=56
        )
        assert batch.report.traces == 1

    def test_attack_kwargs_forwarded(self, config):
        batch = run_credential_batch(
            config, app("chase"), n_texts=2, seed=57, recover_collisions=False
        )
        assert batch.report.traces == 2

    def test_deterministic_given_seed(self, config):
        a = run_credential_batch(config, app("chase"), n_texts=3, seed=58)
        b = run_credential_batch(config, app("chase"), n_texts=3, seed=58)
        assert a.text_accuracy == b.text_accuracy
        assert a.key_accuracy == b.key_accuracy


class TestPerKeySweep:
    def test_covers_all_characters(self, config):
        stats = run_per_key_sweep(config, app("chase"), repeats=2, seed=60)
        assert len(stats) >= 75
        for char, (correct, total) in stats.items():
            assert 0 <= correct <= total, char


class TestPracticalSessions:
    def test_reports_per_volunteer(self, config):
        reports = run_practical_sessions(
            config, app("chase"), volunteers=2, repeats=1, duration_s=60.0
        )
        assert set(reports) == {"volunteer1", "volunteer2"}
        for report in reports.values():
            assert report.traces == 1


class TestFormatting:
    def test_accuracy_table(self):
        out = format_accuracy_table({"chase": (0.8, 0.98)}, "title")
        assert "title" in out and "chase" in out and "0.980" in out


class TestSingleModelAttack:
    def test_attack_has_one_model(self, config):
        attack = single_model_attack(config, app("chase"))
        assert len(attack.store) == 1
        assert not attack.recognize_device
