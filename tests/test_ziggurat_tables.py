"""The committed ziggurat tables are the installed numpy's own, and the
decoders built on them draw what numpy draws, word for word.

The sampler decodes its wakeup draws, and the victim device its frame
jitter, from raw ``PCG64`` words with :mod:`repro.kgsl.ziggurat`; a numpy
whose ziggurats differ would move every read time and counter, so these
guards check each table entry against numpy through ``Generator`` alone
and name the version that disagrees.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kgsl import ziggurat
from tests.oracles import numpy_draw, pcg64_emitting, ziggurat_tool

REGENERATE = "regenerate it with python tools/gen_ziggurat_tables.py"
#: Each law's ``W``, ``K`` and ``F`` tables and its decoder.
LAWS = {
    "exponential": (ziggurat.WE, ziggurat.KE, ziggurat.FE, ziggurat.exponentials),
    "normal": (ziggurat.WI, ziggurat.KI, ziggurat.FI, ziggurat.normals),
}


def differs(name, ours, numpys):
    return [f"{name}[{i}]" for i, (a, b) in enumerate(zip(ours, numpys)) if a != b]


def assert_numpys_own(wrong, what):
    assert not wrong, (
        f"numpy {np.__version__}'s {what} differs from src/repro/kgsl/ziggurat.py at "
        f"{', '.join(wrong[:8])}{' ...' if len(wrong) > 8 else ''} ({len(wrong)} entries); "
        + REGENERATE
    )


def test_fast_path_tables_are_numpys_own():
    we, ke, wi, ki = ziggurat_tool().probe_fast_tables()
    assert len(we) == len(ke) == len(wi) == len(ki) == 256
    wrong = differs("WE", ziggurat.WE, we) + differs("KE", ziggurat.KE, ke)
    wrong += differs("WI", ziggurat.WI, wi) + differs("KI", ziggurat.KI, ki)
    assert_numpys_own(wrong, "ziggurat fast path")


def test_tail_constants_are_numpys_own():
    tails = ziggurat_tool().probe_tails()
    ours = (ziggurat.R_EXP, ziggurat.R_NOR, ziggurat.INV_R_NOR)
    wrong = differs("(R_EXP, R_NOR, INV_R_NOR)", ours, tails)
    assert_numpys_own(wrong, "ziggurat tail")


@pytest.mark.parametrize("law", sorted(LAWS))
def test_wedge_tables_are_numpys_own(law):
    """Every ``F`` entry, at the edge of the wedge test it takes part in:
    for a slow word of layer ``idx``, the least ``u`` the committed
    tables reject is where numpy stops accepting too."""
    tool = ziggurat_tool()
    w, k, f, _ = LAWS[law]
    method, word_of, limit = tool.LAWS[law]
    wrong = []
    for idx in range(1, 256):
        magnitude = (k[idx] + limit) // 2
        x = magnitude * w[idx]
        density = math.exp(-x) if law == "exponential" else math.exp(-0.5 * x * x)
        lo, hi = 0, 1 << 53  # the least ri of u that the tables reject
        while lo < hi:
            mid = (lo + hi) // 2
            if (f[idx - 1] - f[idx]) * (mid * 2.0**-53) + f[idx] < density:
                lo = mid + 1
            else:
                hi = mid
        assert 0 < lo < 1 << 53, f"the wedge of layer {idx} has no edge at {magnitude}"
        word = tool.word64(word_of(idx, magnitude))
        accepted = tool.drawn_from(method, *word, *tool.double53(lo - 1))
        rejected = tool.drawn_from(method, *word, *tool.double53(lo))
        if accepted != (x, 4) or rejected[1] <= 4:
            wrong.append(f"F[{idx - 1}:{idx + 1}]")
    assert_numpys_own(wrong, f"{law} wedge")


def numpys_draw(law, word, high):
    """numpy's draw when its first word is ``word``, and the words read."""
    return numpy_draw(f"standard_{law}", word, high)


def decoded(law, word, high, words):
    """The decoder's draw at the first of ``words`` raw words."""
    raw = pcg64_emitting(word, high=high).bit_generator.random_raw(words)
    value, read = LAWS[law][3](raw, ziggurat.uniforms(raw))
    return float(value[0]), int(read[0])


def crafted_word(law, idx, fraction, negative=False):
    """A word of layer ``idx`` whose magnitude lies ``fraction`` of the
    way from the layer's fast-path bound to its largest."""
    tool = ziggurat_tool()
    _, word_of, limit = tool.LAWS[law]
    bound = LAWS[law][1][idx]
    magnitude = min(bound + int(fraction * (limit - bound)), limit - 1)
    return word_of(idx, magnitude) if law == "exponential" else word_of(idx, magnitude, negative)


@given(
    st.sampled_from(sorted(LAWS)),
    st.integers(0, 255),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.booleans(),
    st.integers(1, 2**57 - 1),
    st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_a_slow_word_decodes_to_numpys_draw(law, idx, fraction, negative, high, spare):
    """Any word off the fast path, of any layer: the decoder's value and
    word count are numpy's, and a block that ends before the draw does
    reads 0 words."""
    word = crafted_word(law, idx, fraction, negative)
    value, read = numpys_draw(law, word, high)
    assert decoded(law, word, high, read + spare) == (value, read)
    assert decoded(law, word, high, read - 1)[1] == 0


@given(st.sampled_from(sorted(LAWS)), st.integers(0, 2**64 - 1), st.integers(1, 2**57 - 1))
@settings(max_examples=200, deadline=None)
def test_a_word_decodes_to_numpys_draws(law, word, high):
    """Any word at all (nearly always a fast one), as a uniform too."""
    assert pcg64_emitting(word, high=high).random() == (word >> 11) * 2.0**-53
    value, read = numpys_draw(law, word, high)
    assert decoded(law, word, high, read + 2) == (value, read)


def path(law, word, high):
    """The ziggurat path numpy takes on ``word`` (with ``high``'s words)."""
    value, read = numpys_draw(law, word, high)
    idx = (word >> 3) & 0xFF if law == "exponential" else word & 0xFF
    if read == 1:
        return "fast"
    if idx == 0:
        return "tail" if law == "exponential" or read == 3 else "tail, pair rejected"
    return "wedge accepts" if read == 2 else "wedge rejects"


PATHS = [
    ("exponential", "fast", 7, 0.0),
    ("exponential", "wedge accepts", 9, 0.5),
    ("exponential", "wedge rejects", 9, 0.5),
    ("exponential", "tail", 0, 0.5),
    ("normal", "fast", 7, 0.0),
    ("normal", "wedge accepts", 9, 0.5),
    ("normal", "wedge rejects", 9, 0.5),
    ("normal", "tail", 0, 0.5),
    ("normal", "tail, pair rejected", 0, 0.999),
]


@pytest.mark.parametrize("law, taken, idx, fraction", PATHS)
def test_every_path_decodes_to_numpys_draw(law, taken, idx, fraction):
    """Each path of both ziggurats, reached on purpose: the first
    ``high`` whose words send the crafted word down it."""
    if taken == "fast":
        word = ziggurat_tool().LAWS[law][1](idx, 1)
    else:
        word = crafted_word(law, idx, fraction)
    high = next(h for h in range(1, 100_000) if path(law, word, h) == taken)
    value, read = numpys_draw(law, word, high)
    assert decoded(law, word, high, read) == (value, read)
