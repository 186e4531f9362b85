"""Fig 13: PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ changes across an app switch.

The figure shows fierce PC bursts at the beginning and end of the switch,
with inter-change gaps (<50 ms) far below human typing intervals, and the
target-app typing in between the bursts dwarfed by them.
"""

import numpy as np

from conftest import read_window, run_once
from repro.android.device import VictimDevice
from repro.android.events import AppSwitchAway, AppSwitchBack, KeyPress
from repro.core.appswitch import AppSwitchDetector
from repro.core.classifier import Classification
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler, nonzero_deltas_vectorized


def _session(config, chase):
    events = [
        KeyPress(t=0.8, char="u"),
        KeyPress(t=1.4, char="s"),
        KeyPress(t=2.0, char="r"),
        AppSwitchAway(t=3.0),
        AppSwitchBack(t=7.0),
        KeyPress(t=8.2, char="p"),
        KeyPress(t=8.8, char="w"),
    ]
    device = VictimDevice(config, chase, rng=np.random.default_rng(13))
    trace = device.compile(events, end_time_s=10.0)
    kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
    sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(131))
    return trace, nonzero_deltas_vectorized(read_window(sampler, 0.0, 10.0))


def test_fig13_burst_structure(benchmark, config, chase):
    trace, deltas = run_once(benchmark, lambda: _session(config, chase))

    t, total = deltas.t, deltas.rows.sum(axis=1)
    typing = (0.5 < t) & (t < 2.8)  # skip the initial full render
    burst_away = (3.0 <= t) & (t < 3.36)
    burst_back = (7.0 <= t) & (t < 7.36)

    typing_peak = int(total[typing].max())
    away_peak = int(total[burst_away].max())
    back_peak = int(total[burst_back].max())
    print(
        f"\nFig 13 — peak PC change: typing={typing_peak}, "
        f"switch-away burst={away_peak}, switch-back burst={back_peak}"
    )
    assert away_peak > 3 * typing_peak
    assert back_peak > 3 * typing_peak

    gaps = np.diff(t[burst_away])
    assert gaps.size and gaps.max() < 0.05, "burst inter-change gaps must be <50 ms"


def test_fig13_detector_tracks_switch(benchmark, config, chase):
    trace, deltas = run_once(benchmark, lambda: _session(config, chase))
    t, total = deltas.t, deltas.rows.sum(axis=1)
    detector = AppSwitchDetector(big_threshold=5 * int(total[(0.5 < t) & (t < 2.8)].max()))
    away_states = []
    for when, magnitude in zip(t.tolist(), total.tolist()):
        obs = detector.observe(when, magnitude, Classification(label=None, distance=9.9))
        away_states.append((when, obs.in_target))
    detector.flush(10.0)
    # in-target before, away in the middle, back at the end
    assert all(state for t, state in away_states if t < 2.9)
    assert any(not state for t, state in away_states if 4.0 < t < 6.5)
    assert detector.in_target
    assert detector.bursts_seen == 2
