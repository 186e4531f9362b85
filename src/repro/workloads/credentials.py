"""Random credential generation for experiments.

The paper emulates "random texts" of length 8-16 for usernames and
passwords (Section 7.1).  Character pools follow what login forms accept;
the full pool matches the keyboard character set of Fig 18 so the per-key
accuracy sweep covers every key.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.android.glyphs import KEYBOARD_CHARACTERS

LOWERCASE = "abcdefghijklmnopqrstuvwxyz"
UPPERCASE = LOWERCASE.upper()
DIGITS = "1234567890"
SYMBOLS = "@#$&-+()/*\"':;!?,."

#: Pool resembling realistic credentials: mostly lowercase, some digits.
USERNAME_POOL = LOWERCASE + DIGITS + "."
#: Password pool: the full Fig 18 keyboard character set.
PASSWORD_POOL = KEYBOARD_CHARACTERS

MIN_CREDENTIAL_LEN = 8
MAX_CREDENTIAL_LEN = 16


def random_text(
    rng: np.random.Generator,
    length: int,
    pool: str = PASSWORD_POOL,
) -> str:
    """A uniform random string over ``pool``."""
    if length <= 0:
        raise ValueError("length must be positive")
    indices = rng.integers(0, len(pool), size=length)
    return "".join(pool[i] for i in indices)


def random_credential(
    rng: np.random.Generator,
    length: Optional[int] = None,
    pool: str = PASSWORD_POOL,
) -> str:
    """A credential of the paper's length range 8-16 (inclusive)."""
    if length is None:
        length = int(rng.integers(MIN_CREDENTIAL_LEN, MAX_CREDENTIAL_LEN + 1))
    if not MIN_CREDENTIAL_LEN <= length <= MAX_CREDENTIAL_LEN:
        raise ValueError(
            f"credential length must be in [{MIN_CREDENTIAL_LEN}, {MAX_CREDENTIAL_LEN}]"
        )
    return random_text(rng, length, pool)


def credential_batch(
    rng: np.random.Generator,
    count: int,
    length: Optional[int] = None,
) -> List[str]:
    """``count`` random credentials, as in '300 random texts per length'."""
    return [random_credential(rng, length=length) for _ in range(count)]


def character_group(char: str) -> str:
    """The Fig 17(c) grouping: lower / upper / number / symbol."""
    if char in LOWERCASE:
        return "lower"
    if char in UPPERCASE:
        return "upper"
    if char in DIGITS:
        return "number"
    return "symbol"


def balanced_character_stream(rng: np.random.Generator, repeats: int) -> List[str]:
    """Every Fig 18 character exactly ``repeats`` times, shuffled —
    used for per-key accuracy sweeps so rare symbols get equal coverage."""
    chars: List[str] = [c for c in KEYBOARD_CHARACTERS for _ in range(repeats)]
    order = rng.permutation(len(chars))
    return [chars[i] for i in order]


def pool_for_keyboard(spec) -> str:
    """Every PASSWORD_POOL character with a key on ``spec``'s layout
    (on the default display).

    This is the scenario-resolved replacement for assuming the global
    Fig 18 pool: a qwerty keyboard returns the full pool, the PIN pad
    only its ten digits.  Mirrors the filter offline training applies
    (``OfflineTrainer.trainable_characters``).
    """
    from repro.android.display import Display
    from repro.android.keyboard import keyboard_layout

    layout = keyboard_layout(spec, Display())
    return "".join(c for c in PASSWORD_POOL if layout.has_key(c))


def scenario_credential(
    rng: np.random.Generator,
    scenario,
    length: Optional[int] = None,
) -> str:
    """A random credential over the scenario's pool (paper lengths 8-16)."""
    return random_credential(rng, length=length, pool=scenario.credential_pool())
