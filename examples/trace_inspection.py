#!/usr/bin/env python3
"""Trace inspection: watch the side channel leak, delta by delta.

Compiles a short victim session, samples the counters like the attack
does, and prints every nonzero PC change aligned with the ground-truth
frames that produced it and the classifier's verdict — the Fig 5/11-style
view used to develop the attack.

Usage:
    python examples/trace_inspection.py [text]
"""

import sys

import numpy as np

from repro.api import (
    BackspacePress,
    DeviceClock,
    KeyPress,
    PerfCounterSampler,
    SamplerDeltaSource,
    TraceSummary,
    VictimDevice,
    annotate,
    app,
    default_config,
    open_kgsl,
    render_trace,
    train_model,
)


def main() -> None:
    text = sys.argv[1] if len(sys.argv) > 1 else "wn,"
    config = default_config()

    print(f"training model for {config.config_key()} ...")
    model = train_model(config, app("chase"), seed=7)

    events = [KeyPress(t=0.6 + 0.55 * i, char=c) for i, c in enumerate(text)]
    backspace_t = 0.6 + 0.55 * len(text) + 0.4
    events.append(BackspacePress(t=backspace_t))
    end = backspace_t + 1.6

    device = VictimDevice(config, app("chase"), rng=np.random.default_rng(1))
    trace = device.compile(events, end_time_s=end)

    kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
    sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(2))
    source = SamplerDeltaSource(sampler, 0.0, end)

    annotated = annotate(trace, (payload for _, payload in source.events()), model=model)
    print(
        f"\nsession: typed {text!r} then backspace — "
        f"{len(trace.timeline.frames)} frames, {source.reads_issued} counter reads, "
        f"{len(annotated)} nonzero changes\n"
    )
    print(render_trace(annotated, limit=60))

    summary = TraceSummary.from_annotated(annotated)
    print(
        f"\nsummary: {summary.deltas} changes, {summary.splits} split reads, "
        f"{summary.classified} classified / {summary.rejected} rejected"
    )
    print("by ground-truth kind:", dict(sorted(summary.by_truth_kind.items())))


if __name__ == "__main__":
    main()
