"""Tests for the entropy-leak and bootstrap-statistics modules."""

import math

import numpy as np
import pytest

from repro.analysis.confusion import ConfusionMatrix
from repro.analysis.entropy import (
    LeakReport,
    conditional_entropy_bits,
    leak_report,
    prior_entropy_bits,
)
from repro.analysis.stats import (
    Interval,
    accuracy_interval,
    bootstrap_interval,
)


class TestPriorEntropy:
    def test_uniform_alphabet(self):
        assert prior_entropy_bits(1, 2) == pytest.approx(1.0)
        assert prior_entropy_bits(8, 64) == pytest.approx(48.0)

    def test_scales_linearly_with_length(self):
        assert prior_entropy_bits(16, 80) == pytest.approx(2 * prior_entropy_bits(8, 80))

    def test_validation(self):
        with pytest.raises(ValueError):
            prior_entropy_bits(-1)
        with pytest.raises(ValueError):
            prior_entropy_bits(8, 1)


class TestConditionalEntropy:
    def test_perfect_channel_is_zero_bits(self):
        matrix = ConfusionMatrix()
        for char in "abcd":
            for _ in range(5):
                matrix.record(char, char)
        assert conditional_entropy_bits(matrix) == pytest.approx(0.0)

    def test_fully_confused_pair_is_one_bit(self):
        matrix = ConfusionMatrix()
        # inferred 'a' is equally likely to be true 'a' or true 'b'
        for _ in range(10):
            matrix.record("a", "a")
            matrix.record("b", "a")
        assert conditional_entropy_bits(matrix) == pytest.approx(1.0)

    def test_empty_matrix(self):
        assert conditional_entropy_bits(ConfusionMatrix()) == 0.0

    def test_partial_confusion_between_zero_and_one_bit(self):
        matrix = ConfusionMatrix()
        for _ in range(9):
            matrix.record("a", "a")
        matrix.record("b", "a")
        bits = conditional_entropy_bits(matrix)
        assert 0.0 < bits < 1.0


class TestLeakReport:
    def test_perfect_attack_leaks_everything(self):
        matrix = ConfusionMatrix()
        for char in "abcdefgh":
            matrix.record(char, char)
        report = leak_report(matrix, length=12)  # the 80-character pool
        assert report.leak_fraction == pytest.approx(1.0)
        assert report.search_space_reduction > 1e20

    def test_useless_attack_leaks_nothing_much(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.entropy.PASSWORD_POOL", "abcd")
        matrix = ConfusionMatrix()
        # inferred symbol independent of truth over a 4-symbol alphabet
        for truth in "abcd":
            for inferred in "abcd":
                for _ in range(5):
                    matrix.record(truth, inferred)
        report = leak_report(matrix, length=8)
        assert report.posterior_bits == pytest.approx(report.prior_bits, rel=0.01)
        assert report.leaked_bits == pytest.approx(0.0, abs=0.2)

    def test_report_fields(self):
        report = LeakReport(length=8, prior_bits=48.0, posterior_bits=8.0)
        assert report.leaked_bits == 40.0
        assert report.leak_fraction == pytest.approx(40.0 / 48.0)

    def test_measured_channel_leaks_most_bits(self, config, chase_model):
        """The real attack's confusion matrix: >90 % of credential entropy."""
        from repro.analysis.experiments import run_per_key_sweep, single_model_attack
        from repro.android.apps import app
        from repro.core.pipeline import simulate_credential_entry
        from repro.workloads.credentials import credential_batch

        attack = single_model_attack(config, app("chase"))
        matrix = ConfusionMatrix()
        rng = np.random.default_rng(5)
        for i, text in enumerate(credential_batch(rng, 10)):
            trace = simulate_credential_entry(config, app("chase"), text, seed=800 + i)
            result = attack.run_on_trace(trace, seed=900 + i)
            matrix.record(text, result.text)
        report = leak_report(matrix, length=12)
        assert report.leak_fraction > 0.9


class TestBootstrap:
    def test_interval_contains_true_mean(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0.8, 0.1, size=200)
        interval = bootstrap_interval(values)
        assert interval.low <= 0.8 <= interval.high
        assert interval.width < 0.1

    def test_degenerate_sample(self):
        interval = bootstrap_interval([1.0] * 10)
        assert interval.estimate == 1.0
        assert interval.width == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_interval([])

    def test_accuracy_interval(self):
        interval = accuracy_interval(successes=80, trials=100)
        assert interval.estimate == pytest.approx(0.8)
        assert 0.7 < interval.low < 0.8 < interval.high < 0.9
        with pytest.raises(ValueError):
            accuracy_interval(5, 0)
        with pytest.raises(ValueError):
            accuracy_interval(7, 5)

    def test_interval_str(self):
        interval = Interval(estimate=0.5, low=0.4, high=0.6, confidence=0.95)
        assert "[0.400, 0.600]" in str(interval)
