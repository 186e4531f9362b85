"""Fig 5: PC value variations due to key presses and system factors.

Regenerates the PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ trace for a 'w n w n'
typing sequence and verifies the figure's three observations: values only
change when the screen changes; each key has a repeatable, unique first
change; duplication shows up as two consecutive identical changes.
"""

import numpy as np

from conftest import read_window, run_once
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
from repro.core.features import counter_index
from repro.gpu import counters as pc
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler, nonzero_deltas_vectorized


def _trace(config, chase):
    events = [KeyPress(t=0.6 + 0.6 * i, char="wnwn"[i % 4]) for i in range(12)]
    device = VictimDevice(config, chase, rng=np.random.default_rng(5))
    trace = device.compile(events, end_time_s=0.6 + 12 * 0.6 + 1.0)
    kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
    sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(55))
    return trace, read_window(sampler, 0.0, trace.end_time_s)


def test_fig05_pc_trace(benchmark, config, chase):
    trace, batch = run_once(benchmark, lambda: _trace(config, chase))

    frames = trace.timeline.frames
    press_totals = {"w": [], "n": []}
    lrz13 = counter_index(pc.LRZ_VISIBLE_PRIM_AFTER_LRZ)
    deltas = nonzero_deltas_vectorized(batch)
    print("\nFig 5 — PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ changes:")
    for prev_t, t, row in zip(deltas.prev_t.tolist(), deltas.t.tolist(), deltas.rows.tolist()):
        labels = [f.label for f in frames if f.start_s < t and f.end_s > prev_t]
        if len(labels) == 1 and labels[0].startswith("press:"):
            char = labels[0].split(":")[1]
            press_totals[char].append(sum(row))
            print(f"  t={t:7.3f}s  key '{char}'  dLRZ13={row[lrz13]}")

    # 1) no screen change -> no PC change: zero deltas dominate idle time
    zero = int((batch.rows[1:] == batch.rows[:-1]).all(axis=1).sum())
    assert zero > len(batch.t) * 0.5

    # 2) per-key uniqueness and repeatability of the first change
    w_totals, n_totals = press_totals["w"], press_totals["n"]
    assert len(w_totals) >= 2 and len(n_totals) >= 2
    assert np.std(w_totals) / np.mean(w_totals) < 0.02, "repeated 'w' must match"
    assert abs(np.mean(w_totals) - np.mean(n_totals)) > 3 * (
        np.std(w_totals) + np.std(n_totals) + 1
    ), "'w' and 'n' must be separable"
    print(f"  mean 'w' change={np.mean(w_totals):.0f}, mean 'n' change={np.mean(n_totals):.0f}")


def test_fig05_duplication_and_split_visible(benchmark, config, chase):
    """The figure's annotated 'Duplication' and 'Split' events occur."""

    def run():
        # human-like irregular intervals: a perfectly periodic bot can
        # resonate with the sampling grid and never produce a split
        rng = np.random.default_rng(8)
        times = np.cumsum(rng.uniform(0.4, 0.6, size=120)) + 0.6
        events = [KeyPress(t=float(t), char="w") for t in times]
        device = VictimDevice(config, chase, rng=np.random.default_rng(9))
        end = float(times[-1]) + 1.0
        trace = device.compile(events, end_time_s=end)
        kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
        sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(99))
        return trace, read_window(sampler, 0.0, end)

    trace, batch = run_once(benchmark, run)
    dups = sum(1 for f in trace.timeline.frames if f.label.startswith("press_dup"))
    assert dups > 5, "Gboard's popup animation must produce duplications"

    splits = 0
    for frame in trace.timeline.frames:
        if not frame.label.startswith("press:"):
            continue
        inside = [t for t in batch.t.tolist() if frame.start_s < t < frame.end_s]
        splits += bool(inside)
    print(f"\nFig 5 factors over 120 presses: duplications={dups}, split reads={splits}")
    assert splits > 0, "some reads must land mid-render (split)"
