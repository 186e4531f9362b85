"""Tests for the candidate-guess generator."""

import numpy as np
import pytest

from repro.core import features
from repro.core.classifier import ClassificationModel
from repro.core.guessing import CandidateGenerator, PositionHypotheses
from repro.core.online import InferredKey, OnlineResult


def vec(**kw):
    v = np.zeros(features.DIMENSIONS)
    for index, value in kw.items():
        v[int(index[1:])] = value
    return v


@pytest.fixture()
def model():
    labels = ["key:a", "key:b", "key:c", "field:0:on"]
    centroids = np.vstack(
        [vec(d0=100), vec(d0=110), vec(d0=300), vec(d1=50)]
    )
    return ClassificationModel(
        labels=labels,
        centroids=centroids,
        scale=np.full(features.DIMENSIONS, 10.0),
        cth=2.0,
        model_key="toy",
    )


def result_with(chars_distances):
    result = OnlineResult()
    for i, (char, distance) in enumerate(chars_distances):
        result.keys.append(InferredKey(t=float(i), char=char, distance=distance))
    return result


class TestEnumeration:
    def test_first_candidate_is_the_inferred_text(self, model):
        generator = CandidateGenerator(model)
        result = result_with([("a", 0.1), ("c", 0.1)])
        guesses = generator.guesses(result, max_candidates=10)
        assert guesses[0] == "ac"

    def test_candidates_are_unique(self, model):
        generator = CandidateGenerator(model)
        result = result_with([("a", 0.5), ("b", 0.5), ("c", 0.5)])
        guesses = generator.guesses(result, max_candidates=30)
        assert len(guesses) == len(set(guesses))

    def test_uncertain_positions_vary_first(self, model, monkeypatch):
        monkeypatch.setattr(CandidateGenerator, "ALTERNATIVES", 3)
        generator = CandidateGenerator(model)
        # position 0 confident, position 1 very uncertain
        result = result_with([("a", 0.01), ("a", 1.9)])
        guesses = generator.guesses(result, max_candidates=4)
        # the second position should be the first to flip to its rival 'b'
        assert "ab" in guesses[:3]

    def test_candidate_count_respected(self, model, monkeypatch):
        monkeypatch.setattr(CandidateGenerator, "ALTERNATIVES", 3)
        generator = CandidateGenerator(model)
        result = result_with([("a", 1.0)] * 4)
        assert len(generator.guesses(result, max_candidates=7)) == 7

    def test_deleted_keys_excluded(self, model):
        generator = CandidateGenerator(model)
        result = result_with([("a", 0.1), ("b", 0.1)])
        result.keys[0].deleted = True
        assert generator.guesses(result, max_candidates=1) == ["b"]

    def test_empty_result_yields_nothing(self, model):
        generator = CandidateGenerator(model)
        assert generator.guesses(OnlineResult(), max_candidates=5) == []

    def test_rank_of(self, model):
        generator = CandidateGenerator(model)
        result = result_with([("a", 1.5)])
        assert generator.rank_of(result, "a") == 1
        rank_b = generator.rank_of(result, "b")
        assert rank_b is not None and rank_b >= 2
        assert generator.rank_of(result, "zzz") is None


class TestAgainstTrainedModel:
    def test_guessing_recovers_single_substitutions(self, chase_model, config):
        """Section 7.1's claim: single errors fall to a few guesses."""
        from repro.analysis.experiments import single_model_attack
        from repro.android.apps import app
        from repro.core.pipeline import simulate_credential_entry
        from repro.workloads.credentials import credential_batch

        attack = single_model_attack(config, app("chase"))
        generator = CandidateGenerator(chase_model)
        rng = np.random.default_rng(17)
        recovered_1 = recovered_10 = total = 0
        for i, text in enumerate(credential_batch(rng, 12)):
            trace = simulate_credential_entry(config, app("chase"), text, seed=600 + i)
            result = attack.run_on_trace(trace, seed=900 + i)
            rank = generator.rank_of(result.online, text, max_candidates=10)
            total += 1
            if rank == 1:
                recovered_1 += 1
            if rank is not None:
                recovered_10 += 1
        assert recovered_10 >= recovered_1
        assert recovered_10 / total > 0.7
