"""Realistic (non-uniform) credential generation.

The Section 7 experiments use uniform random texts; real users type
structured passwords (a word, some capitalization, digits, a trailing
symbol).  The side channel couldn't care less about structure — but the
*evaluation* should check that, so this module generates credentials
following common composition patterns for a realism bench.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: Common base words (no real-world password corpus is shipped; these are
#: generic dictionary words of the kind composition studies report).
_WORDS = (
    "dragon", "monkey", "sunshine", "football", "princess", "shadow",
    "master", "flower", "summer", "silver", "purple", "ginger",
    "welcome", "freedom", "whatever", "banana", "coffee", "winter",
)

_LEET = {"a": "@", "e": "3", "i": "1", "o": "0", "s": "$"}

_SYMBOLS = "!?#$&-+"


def pattern_password(rng: np.random.Generator, min_len: int = 8, max_len: int = 16) -> str:
    """One password following a common composition pattern.

    word [+ word] + digits [+ symbol], with optional capitalization and
    leet substitutions — clipped into the paper's 8-16 length band.
    """
    word = _WORDS[int(rng.integers(len(_WORDS)))]
    if rng.random() < 0.3:
        word += _WORDS[int(rng.integers(len(_WORDS)))]
    chars = list(word)
    if rng.random() < 0.6:
        chars[0] = chars[0].upper()
    if rng.random() < 0.35:
        for i, c in enumerate(chars):
            if c in _LEET and rng.random() < 0.5:
                chars[i] = _LEET[c]
    password = "".join(chars)
    digits = str(int(rng.integers(0, 10000)))
    password += digits
    if rng.random() < 0.5:
        password += _SYMBOLS[int(rng.integers(len(_SYMBOLS)))]
    # clip into the experiment band
    if len(password) > max_len:
        password = password[:max_len]
    while len(password) < min_len:
        password += str(int(rng.integers(10)))
    return password


def pattern_password_batch(
    rng: np.random.Generator, count: int, min_len: int = 8, max_len: int = 16
) -> List[str]:
    """A batch of structured passwords."""
    return [pattern_password(rng, min_len, max_len) for _ in range(count)]
