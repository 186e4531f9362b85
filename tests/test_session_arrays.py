"""The offline session's array passes equal their per-item forms.

The victim device finds every frame's vsync boundary in one array
expression (``Display.next_vsyncs``), and the trainer joins a session's
clean windows to their class labels with one sort
(``label_samples``).  These properties hold both to the per-item rules
they replace.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.android.display import Display
from repro.core.offline import TrainingData, label_samples
from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import COUNTER_ORDER, RenderTimeline
from tests.oracles import PcDelta, label_deltas

RATES = (30, 60, 90, 120, 144)


def vsync_by_frames(t: float, interval: float) -> float:
    """The vsync rule one time at a time, with integer frame counts."""
    boundary = int(t / interval) * interval
    if boundary + 1e-12 < t:
        boundary += interval
    return boundary


@st.composite
def vsync_times(draw):
    """A refresh rate and times on, just around and far from its vsync
    boundaries, and at large ``t``."""
    rate = draw(st.sampled_from(RATES))
    interval = 1.0 / rate
    frames = st.integers(0, 10**9 // rate)
    near = st.tuples(frames, st.floats(-2e-12, 2e-12)).map(lambda p: p[0] * interval + p[1])
    anywhere = st.floats(0.0, 1e9, allow_nan=False)
    times = draw(
        st.lists(st.one_of(frames.map(lambda k: k * interval), near, anywhere), max_size=50)
    )
    return rate, [max(0.0, t) for t in times]


@given(vsync_times())
@settings(max_examples=200, deadline=None)
@example((60, [0.0, 1.0, 1e-12, 1 / 60 + 1e-12, 1 / 60 + 2e-12, 1e9, 2**40 / 60]))
def test_the_array_vsync_rule_is_the_per_frame_rule(case):
    rate, times = case
    display = Display(refresh_rate_hz=rate)
    interval = display.frame_interval_s
    expected = [vsync_by_frames(t, interval) for t in times]
    assert display.next_vsyncs(np.array(times, dtype=float)).tolist() == expected
    assert [display.next_vsync(t) for t in times] == expected


#: Frame labels of many classes: keys, field lengths, dismissals, system
#: frames, and labels that map to no class.
LABELS = (
    [f"press:{c}" for c in "abcdefghijklmnop"]
    + [f"press_dup:{c}" for c in "aeiou"]
    + [f"echo:{n}" for n in range(1, 9)]
    + [f"cursor_blink:{n}:{s}" for n in range(4) for s in ("on", "off")]
    + [f"dismiss:{c}" for c in "abcd"]
    + ["notification", "other_app", "switch_away_2", "mystery_frame"]
)
GRID_S = 0.001


@st.composite
def sessions(draw):
    """Sessions of frames with labels in scattered order, and read
    windows around each frame (clean unless a frame is cut) plus windows
    that split or merge frames."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        timeline = RenderTimeline()
        edges = set()
        for i, label in enumerate(draw(st.lists(st.sampled_from(LABELS), max_size=60))):
            start = (8 * i + draw(st.integers(1, 3))) * GRID_S
            length = draw(st.integers(0, 4)) * GRID_S
            stats = FrameStats(
                increment=pc.CounterIncrement(), pixels_touched=0, render_time_s=length
            )
            timeline.add_render(start, stats, label=label)
            edges.update((start - GRID_S, start + length))
        cuts = draw(st.lists(st.integers(0, 8 * 61).map(lambda k: k * GRID_S), max_size=10))
        times = sorted(edges.union(cuts, [0.0]))
        n = len(times) - 1
        row = st.lists(st.integers(0, 999), min_size=11, max_size=11)
        rows = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.int64)
        out.append((timeline, np.array(times[:-1]), np.array(times[1:]), rows.reshape(n, 11)))
    return out


def cycling_session(labels, frames):
    """``frames`` frames cycling through ``labels``, each read in a clean
    window of its own, every window's row distinct."""
    timeline = RenderTimeline()
    times = [0.0]
    for i in range(frames):
        stats = FrameStats(
            increment=pc.CounterIncrement(), pixels_touched=0, render_time_s=2 * GRID_S
        )
        timeline.add_render((8 * i + 2) * GRID_S, stats, label=labels[i % len(labels)])
        times += [(8 * i + 1) * GRID_S, (8 * i + 4) * GRID_S]
    rows = np.arange((len(times) - 1) * 11, dtype=np.int64).reshape(-1, 11)
    return timeline, np.array(times[:-1]), np.array(times[1:]), rows


@given(sessions())
@settings(max_examples=100, deadline=None)
# more clean windows of each class than a sort leaves in place unsorted
@example(
    [
        cycling_session(["press:a", "echo:3", "dismiss:b"], 60),
        cycling_session(["echo:3", "notification", "press:a"], 45),
    ]
)
def test_label_samples_across_sessions_is_the_per_delta_oracle(sessions):
    data = TrainingData()
    expected, clean, discarded = {}, 0, 0
    for timeline, prev_t, t, rows in sessions:
        label_samples(timeline, prev_t, t, rows, data)
        deltas = [
            PcDelta(t=end, prev_t=start, values=dict(zip(COUNTER_ORDER, row)))
            for start, end, row in zip(prev_t.tolist(), t.tolist(), rows.tolist())
        ]
        vectors, session_clean, session_discarded = label_deltas(timeline, deltas)
        clean += session_clean
        discarded += session_discarded
        for label, found in vectors.items():
            expected.setdefault(label, []).extend(found)
    assert (data.clean_windows, data.discarded_windows) == (clean, discarded)
    assert sorted(data.vectors_by_label) == sorted(expected)
    for label, vectors in expected.items():
        got = data.vectors_by_label[label]
        assert got.dtype == float and got.tobytes() == np.vstack(vectors).tobytes(), label
