"""The victim device's frame jitter, decoded from raw words, is the
per-frame scalar law draw for draw.

``VictimDevice._materialize`` draws each frame's submit delay and its
jitter normals for the whole session at once with
:func:`repro.kgsl.ziggurat.uniform_then_normals`.  These properties hold
it to the scalar loop in :func:`tests.oracles.jitter_draws`: the same
values, bit for bit, and the generator left where the loop leaves it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.apps import app
from repro.android.device import SUBMIT_DELAY_S, VictimDevice
from repro.android.events import (
    AppSwitchAway,
    AppSwitchBack,
    BackspacePress,
    KeyPress,
    NotificationArrival,
    ViewNotificationShade,
)
from repro.android.keyboard import keyboard
from repro.android.os_config import DeviceConfig, phone
from repro.kgsl import ziggurat
from tests import oracles
from tests.oracles import pcg64_emitting, ziggurat_tool

CONFIGS = (
    ("oneplus8pro", "gboard", "chase"),
    ("galaxy_s21", "sogou", "amex"),
    ("pixel2", "grammarly", "experian"),
)


class ScalarJitterDevice(VictimDevice):
    """A victim that draws its frame jitter by the scalar loop."""

    def _jitter_draws(self, counts):
        return oracles.jitter_draws(self.rng, counts)


def foreign_draw(rng, kind):
    """What else may have drawn from the generator first: nothing, a
    32-bit draw that leaves half a word pending, or a normal."""
    if kind == "half-word":
        rng.random(dtype=np.float32)
    elif kind == "normal":
        rng.standard_normal()


def assert_same_draws(ours, theirs, counts):
    """The decode on ``ours`` and the scalar loop on ``theirs``, two
    generators in one state, draw the same and leave the same state."""
    submits, normals = ziggurat.uniform_then_normals(ours.bit_generator, *SUBMIT_DELAY_S, counts)
    expected_submits, expected_normals = oracles.jitter_draws(theirs, counts)
    assert submits.tolist() == expected_submits
    assert normals.tolist() == expected_normals.tolist()
    assert ours.bit_generator.state == theirs.bit_generator.state


def seeded(seed, foreign="none"):
    """Two generators from ``seed`` after the same foreign draw."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        foreign_draw(rng, foreign)
    return pair


@given(
    st.lists(st.integers(0, 7), max_size=400),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["none", "half-word", "normal"]),
)
@settings(max_examples=120, deadline=None)
def test_decoded_draws_are_the_scalar_loops(counts, seed, foreign):
    assert_same_draws(*seeded(seed, foreign), counts)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=300), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_reading_ahead_again_after_slow_words(counts, seed):
    """With no spare words read ahead, every slow normal runs the read
    ahead past its end, and it is read again, longer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ziggurat, "_SPARE_WORDS", 0)
        assert_same_draws(*seeded(seed), counts)


def slow_normal(word):
    """Whether ``standard_normal`` leaves its fast path on ``word``."""
    return (word >> 9) & (2**52 - 1) >= ziggurat.KI[word & 0xFF]


def accepted_then_slow(high, word):
    """Whether ``word``, as raw word 1, is a slow normal that accepts
    (reads 2 words) and raw word 2 would be a slow normal too."""
    raw = pcg64_emitting(word, at=1, high=high).bit_generator.random_raw(4)
    _, words = ziggurat.normals(raw, ziggurat.uniforms(raw))
    return words[1] == 2 and slow_normal(int(raw[2]))


@pytest.mark.parametrize("counts", [[1], [2, 0, 3], [5]])
def test_a_slow_normals_extra_words_start_no_draw(counts):
    """A slow normal whose wedge uniform would itself be a slow normal:
    that word belongs to the first draw and starts none of its own."""
    word = ziggurat_tool().normal_word(9, (ziggurat.KI[9] + 2**52) // 2)  # off the fast path
    high = next(h for h in range(1, 100_000) if accepted_then_slow(h, word))
    assert_same_draws(*(pcg64_emitting(word, at=1, high=high) for _ in range(2)), counts)


@st.composite
def scripts(draw):
    """A session script: presses, backspaces, notifications, a look at
    the shade and app switches, at gaps of 50 ms to 0.9 s; no typing
    while away from the target app."""
    kinds = st.sampled_from(["press", "press", "backspace", "notification", "shade", "switch"])
    events, t, away = [], 0.3, False
    for kind, gap, char in draw(
        st.lists(st.tuples(kinds, st.floats(0.05, 0.9), st.sampled_from("abcdwxyz19")), max_size=16)
    ):
        t += gap
        if kind == "switch":
            events.append(AppSwitchBack(t=t) if away else AppSwitchAway(t=t))
            away = not away
        elif kind == "notification":
            events.append(NotificationArrival(t=t))
        elif away:
            continue  # typing elsewhere is the device's away activity
        elif kind == "press":
            events.append(KeyPress(t=t, char=char, duration=0.08))
        elif kind == "backspace":
            events.append(BackspacePress(t=t))
        else:
            events.append(ViewNotificationShade(t=t))
    return events, t + 1.0


@given(st.sampled_from(CONFIGS), scripts(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_compile_matches_the_scalar_jitter(config, script, seed):
    """Across scripts and seeds: the same timeline columns, and the
    device's generator where the scalar loop leaves it."""
    phone_name, keyboard_name, target = config
    config = DeviceConfig(phone=phone(phone_name), keyboard=keyboard(keyboard_name))
    events, end = script
    ours = VictimDevice(config, app(target), rng=np.random.default_rng(seed))
    theirs = ScalarJitterDevice(config, app(target), rng=np.random.default_rng(seed))
    a = ours.compile(events, end_time_s=end).timeline
    b = theirs.compile(events, end_time_s=end).timeline
    assert a.labels == b.labels
    assert a.starts.tolist() == b.starts.tolist()
    assert a.durations.tolist() == b.durations.tolist()
    assert a.amounts.tolist() == b.amounts.tolist()
    assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
)
def test_other_bit_generators_are_refused(bit_generator):
    config = DeviceConfig(phone=phone("oneplus8pro"), keyboard=keyboard("gboard"))
    with pytest.raises(TypeError, match=bit_generator.__name__):
        VictimDevice(config, app("chase"), rng=np.random.Generator(bit_generator(0)))
