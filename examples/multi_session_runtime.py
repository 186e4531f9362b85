#!/usr/bin/env python3
"""Multi-session streaming runtime: one process, a fleet of victims.

The session runtime (``repro.runtime``) multiplexes many eavesdropping
sessions on a single virtual timeline: each session owns its KGSL device
file, sampler RNG and online engine, while one scheduler interleaves
their counter reads in global time order.  A shared ``RuntimeTrace``
records every engine decision — key inferences, duplication suppression,
split merges, app-switch suppression, corrections — across the fleet.

Usage:
    python examples/multi_session_runtime.py [n_sessions] [credential]
"""

import sys
import time

from repro.api import (
    AttackConfig,
    RuntimeTrace,
    app,
    default_config,
    run_sessions,
    simulate,
    train,
)


def main() -> None:
    n_sessions = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    credential = sys.argv[2] if len(sys.argv) > 2 else "secretpw1"

    config = default_config()
    print(f"victim device : {config.phone.display_name} ({config.gpu.name})")
    print(f"credential    : {credential!r}")
    print(f"sessions      : {n_sessions} concurrent, one runtime\n")

    print("offline phase: training the classification model ...")
    cfg = AttackConfig(recognize_device=False)
    store = train([(config, app("chase"))], config=cfg)

    print("victim phase: compiling one GPU trace per session ...")
    traces = [
        simulate(config, app("chase"), credential, seed=100 + i)
        for i in range(n_sessions)
    ]

    print("online phase: streaming all sessions through the runtime ...\n")
    runtime_trace = RuntimeTrace(capacity=256)
    started = time.perf_counter()
    results = run_sessions(store, traces, seed=500, config=cfg, runtime_trace=runtime_trace)
    elapsed = time.perf_counter() - started

    exact = 0
    for i, result in enumerate(results):
        marker = "EXACT" if result.text == credential else "partial"
        exact += result.text == credential
        print(f"  session {i:2d}: {result.text!r:20s} {marker}")

    print(f"\nexact matches : {exact}/{n_sessions} ({exact / n_sessions:.0%})")
    print(f"throughput    : {n_sessions / elapsed:.1f} sessions/s")
    print("\nengine decisions across the fleet (RuntimeTrace):")
    for (stage, kind), count in sorted(runtime_trace.counters.items()):
        print(f"  {stage:>10s}.{kind:<22s}: {count}")


if __name__ == "__main__":
    main()
