"""Fig 14: PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ tracks the input length.

"The PC value strictly increases by 2 with a new input character and
decreases by 2 whenever an input character is deleted by backspace", and
cursor blinks redraw the field at the unchanged length on a 0.5 s cadence.
"""

import numpy as np

from conftest import run_once
from repro.android.device import VictimDevice
from repro.android.events import BackspacePress, KeyPress
from repro.gpu import counters as pc


def _field_series(config, chase):
    events = [
        KeyPress(t=0.8, char="a"),
        KeyPress(t=1.8, char="b"),
        KeyPress(t=2.8, char="c"),
        BackspacePress(t=3.8),
        BackspacePress(t=4.8),
    ]
    device = VictimDevice(config, chase, rng=np.random.default_rng(14))
    trace = device.compile(events, end_time_s=6.5)
    series = []
    for frame in trace.timeline.frames:
        head = frame.label.split(":")[0]
        if head in ("echo", "backspace", "cursor_blink"):
            series.append(
                (
                    frame.start_s,
                    head,
                    int(frame.label.split(":")[1]),
                    frame.increment.get(pc.LRZ_VISIBLE_PRIM_AFTER_LRZ),
                )
            )
    return series


def test_fig14_plus_minus_two_per_character(benchmark, config, chase):
    series = run_once(benchmark, lambda: _field_series(config, chase))
    print("\nFig 14 — field redraw LRZ13 changes:")
    for t, kind, length, lrz13 in series:
        print(f"  t={t:6.3f}s {kind:12s} len={length}  dLRZ13={lrz13}")

    by_kind_len = {}
    for _, kind, length, lrz13 in series:
        by_kind_len.setdefault((kind, length), []).append(lrz13)

    # echo at length n vs echo at n+1: exactly +2 primitives
    echo = {length: vals[0] for (kind, length), vals in by_kind_len.items() if kind == "echo"}
    assert echo[2] - echo[1] == 2
    assert echo[3] - echo[2] == 2

    # backspace redraws step back down by 2
    back = {length: vals[0] for (kind, length), vals in by_kind_len.items() if kind == "backspace"}
    assert echo[3] - back[2] == 2
    assert back[2] - back[1] == 2


def test_fig14_cursor_blink_is_length_neutral(benchmark, config, chase):
    series = run_once(benchmark, lambda: _field_series(config, chase))
    echo = {length: lrz for _, kind, length, lrz in series if kind == "echo"}
    # a blink at length n carries n's primitive count, +-2 for the cursor
    for _, kind, length, lrz13 in series:
        if kind != "cursor_blink" or length not in echo:
            continue
        assert abs(lrz13 - echo[length]) <= 2

    # the blink timer resets on every text change (Android suspends the
    # cursor while typing): each blink fires ~0.5 s after the previous
    # field activity
    times = [(t, kind) for t, kind, _, _ in series]
    for i, (t, kind) in enumerate(times):
        if kind != "cursor_blink" or i == 0:
            continue
        gap = t - times[i - 1][0]
        assert 0.4 < gap < 0.6, (t, kind, gap)
