"""Regenerate ``src/repro/kgsl/ziggurat.py``: numpy's exponential ziggurat tables.

Usage, from the repository root::

    python tools/gen_ziggurat_tables.py

``Generator.standard_exponential`` draws one 64-bit word ``w``, splits it
into ``ri = w >> 11`` and ``idx = (w >> 3) & 0xFF``, and returns
``ri * we[idx]`` when ``ri < ke[idx]``; otherwise it takes a slower path
that reads more words.  The sampler decodes raw words with the same two
256-entry tables, so they must be numpy's own, bit for bit: a float64
re-derivation of the Marsaglia-Tsang construction misses hundreds of the
512 entries.  numpy does not export them, so :func:`probe_tables` recovers
them by setting ``PCG64`` states whose next output is a chosen word and
watching what ``standard_exponential`` returns and how many words it reads.
Probing takes ~0.1 s, too long to pay on every import, so the tables are
committed as generated source.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

MODULE = Path(__file__).resolve().parents[1] / "src" / "repro" / "kgsl" / "ziggurat.py"

#: PCG64's 128-bit LCG: ``state' = state * _MULT + inc`` (mod 2**128),
#: then the output is ``rotr64(hi ^ lo, hi >> 58)`` of ``state'``.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK = (1 << 128) - 1
_INVERSE = pow(_MULT, -1, 1 << 128)
_INC = 0xDA3E39CB94B95BDB4C60F8F0D5A2A0B1 | 1
#: ``ri`` is 53 bits wide: every ``ke`` at or past this bound lets every
#: ``ri`` through the fast path.
_RI_LIMIT = 1 << 53


def state_before(word: int, high: int = 1, at: int = 0) -> Dict[str, object]:
    """A PCG64 state whose raw word number ``at`` (0: the next) is
    ``word``: the state that outputs it is ``high:high ^ word``, whose
    rotation (``high >> 58``) is 0; ``high`` picks the words around it."""
    state = (high << 64) | (high ^ word)
    for _ in range(at + 1):
        state = ((state - _INC) * _INVERSE) & _MASK
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": _INC},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _exponential(gen: np.random.Generator, word: int, high: int = 1) -> Tuple[float, int]:
    """``standard_exponential`` when its first word is ``word``, and the
    words it read (1 on the fast path)."""
    start = state_before(word, high)
    gen.bit_generator.state = start
    value = gen.standard_exponential()
    state, after = start["state"]["state"], gen.bit_generator.state["state"]["state"]
    for words in range(1, 64):
        state = (state * _MULT + _INC) & _MASK
        if state == after:
            return value, words
    raise RuntimeError("standard_exponential read more than 63 words")


def probe_tables() -> Tuple[List[float], List[int]]:
    """numpy's ``we_double`` and ``ke_double``, recovered by probing.

    ``we[idx]`` is the value of the word with ``ri = 1``: the fast path
    returns ``1 * we[idx]``, and where ``ke[idx] <= 1`` the slow path
    returns the same ``x`` when it accepts without redrawing (two words
    read; another ``high`` changes the second word until it does).
    ``ke[idx]`` is the least ``ri`` that leaves the fast path, found by
    bisection; ``_RI_LIMIT`` stands for every larger value.
    """
    gen = np.random.Generator(np.random.PCG64())
    we: List[float] = []
    ke: List[int] = []
    for idx in range(256):
        for high in range(1, 1000):
            value, words = _exponential(gen, (1 << 11) | (idx << 3), high)
            if words == 1 or (words == 2 and idx):
                break
        else:
            raise RuntimeError(f"no probe of entry {idx} accepted its first draw")
        we.append(value)
        lo, hi = 0, _RI_LIMIT
        while lo < hi:
            mid = (lo + hi) // 2
            if _exponential(gen, (mid << 11) | (idx << 3))[1] == 1:
                lo = mid + 1
            else:
                hi = mid
        ke.append(lo)
    return we, ke


def render(we: List[float], ke: List[int]) -> str:
    """The source of the tables module."""

    def rows(values, per_line):
        return "".join(
            "    " + " ".join(f"{value!r}," for value in values[i : i + per_line]) + "\n"
            for i in range(0, len(values), per_line)
        )

    return (
        '"""numpy\'s exponential ziggurat tables, probed from numpy '
        f"{np.__version__}.\n\n"
        "Generated by ``tools/gen_ziggurat_tables.py``; do not edit.  A 64-bit\n"
        "word ``w`` is a fast-path standard exponential iff\n"
        "``w >> 11 < KE[(w >> 3) & 0xFF]``, and its value is then\n"
        "``(w >> 11) * WE[(w >> 3) & 0xFF]``.  A ``KE`` of ``2**53`` stands for\n"
        'every larger bound.\n"""\n\n'
        f"WE = (\n{rows(we, 3)})\n\nKE = (\n{rows(ke, 4)})\n"
    )


def main() -> int:
    MODULE.write_text(render(*probe_tables()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
