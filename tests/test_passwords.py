"""Tests for the realistic password generator."""

import numpy as np
import pytest

from repro.android.keyboard import KeyboardLayout
from repro.android.display import Display
from repro.android.keyboard import keyboard
from repro.workloads.passwords import pattern_password, pattern_password_batch, pin


class TestPatternPasswords:
    def test_length_band(self, rng):
        for _ in range(100):
            password = pattern_password(rng)
            assert 8 <= len(password) <= 16

    def test_all_characters_typeable(self, rng):
        layout = KeyboardLayout(keyboard("gboard"), Display())
        for _ in range(100):
            for char in pattern_password(rng):
                assert layout.has_key(char), char

    def test_contains_digits_usually(self, rng):
        with_digits = sum(
            any(c.isdigit() for c in pattern_password(rng)) for _ in range(50)
        )
        assert with_digits > 40

    def test_batch(self, rng):
        batch = pattern_password_batch(rng, 10)
        assert len(batch) == 10
        assert len(set(batch)) > 3  # variety

    def test_deterministic(self):
        a = pattern_password(np.random.default_rng(1))
        b = pattern_password(np.random.default_rng(1))
        assert a == b


class TestPin:
    def test_length(self, rng):
        assert len(pin(rng, 6)) == 6
        assert pin(rng, 4).isdigit()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            pin(rng, 0)
