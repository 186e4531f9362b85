"""Benchmark harness configuration.

Each module regenerates one table or figure from the paper's evaluation
(see DESIGN.md's per-experiment index).  Benches print the same rows or
series the paper reports and assert only the *shape* — who wins, by
roughly what factor, where crossovers fall — since the substrate is a
simulator, not the authors' testbed.

Batch sizes are scaled down from the paper's (e.g. 30 random credentials
per length instead of 300) to keep a full harness run in minutes; every
module takes a ``--thorough``-style scale-up via the REPRO_BENCH_SCALE
environment variable.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.android.apps import app
from repro.android.os_config import default_config

#: Multiplier on batch sizes (REPRO_BENCH_SCALE=10 approximates the paper).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(n: int) -> int:
    return max(2, int(n * SCALE))


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def chase():
    return app("chase")


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def write_bench_manifest(name: str, registry, **meta):
    """Write a bench's run manifest to ``BENCH_<name>.json``.

    The output directory is ``REPRO_BENCH_OUT`` when set, otherwise this
    ``benchmarks/`` directory (the files are gitignored).  Benches pass
    their headline numbers as registry gauges so the manifest doubles as
    a machine-readable result record.
    """
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", Path(__file__).parent))
    path = out_dir / f"BENCH_{name}.json"
    registry.manifest(bench=name, scale=SCALE, **meta).write(path)
    print(f"\nwrote bench manifest: {path}")
    return path
