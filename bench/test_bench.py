"""Tests of the benchmark itself: ``pytest bench/``.

Kept out of the tier-1 suite (``testpaths = tests``): the smoke runs start
one benchmark process per workload and trace mode, a few minutes in all.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from reference import Reference
from tracer import LAYERS, Tracer, resolve

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))

_ATTACK_LAYERS = {
    "android.compile",
    "gpu.values_at",
    "kgsl.ioctl",
    "kgsl.read",
    "kgsl.extract",
    "core.classify",
    "core.step",
    "runtime.run",
}

#: Layers each workload's traced run must call; every other layer must stay
#: idle.  Rendering is cached per configuration, so the attack workloads
#: may or may not render a frame of their own.
ACTIVE = {
    "train": {
        "android.compile",
        "gpu.render",
        "gpu.values_at",
        "kgsl.ioctl",
        "kgsl.read",
        "core.label",
        "core.fit",
    },
    "attack": _ATTACK_LAYERS,
    "attack-defended": _ATTACK_LAYERS
    | {"interpose.fault", "interpose.drift", "interpose.policy", "lifecycle.calibrate"},
    "ingest": {"collector.send", "collector.codec", "collector.journal"},
}
EITHER = {"attack": {"gpu.render"}, "attack-defended": {"gpu.render"}}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_excludes_wrapped_callees():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        timed_leaf()
        clock.now += 1.0

    def top():
        clock.now += 3.0
        timed_middle()
        timed_middle()

    timed_leaf = tracer.wrap("leaf", leaf)
    timed_middle = tracer.wrap("middle", middle)
    tracer.wrap("top", top)()
    totals = tracer.totals()
    assert (totals["top"].calls, totals["top"].self_s) == (1, 3.0)
    assert (totals["middle"].calls, totals["middle"].self_s) == (2, 4.0)
    assert (totals["leaf"].calls, totals["leaf"].self_s) == (2, 4.0)


def test_entry_points_of_one_layer_calling_each_other_count_one_call():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def batch():
        clock.now += 1.0

    def single():
        clock.now += 0.5
        timed_batch()

    timed_batch = tracer.wrap("core.classify", batch)
    tracer.wrap("core.classify", single)()
    stats = tracer.totals()["core.classify"]
    assert (stats.calls, stats.self_s) == (1, 1.5)


def test_errors_and_result_hooks_are_counted():
    tracer = Tracer()

    def fails():
        raise OSError("busy")

    def hook(stats, result):
        stats.extra["none"] = stats.extra.get("none", 0) + (result is None)

    with pytest.raises(OSError):
        tracer.wrap("kgsl.ioctl", fails)()
    tracer.wrap("kgsl.read", lambda: None, on_return=hook)()
    totals = tracer.totals()
    assert totals["kgsl.ioctl"].errors == 1
    assert totals["kgsl.read"].extra == {"none": 1}


def test_each_thread_keeps_its_own_stack():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    entered, release = threading.Event(), threading.Event()

    def outer():
        entered.set()
        assert release.wait(5)

    def inner():
        clock.now += 5.0

    first = threading.Thread(target=tracer.wrap("outer", outer))
    first.start()
    assert entered.wait(5)
    clock.now = 10.0
    # runs while `outer` is open on the other thread: a shared stack would
    # charge these 5 s to outer's callees
    second = threading.Thread(target=tracer.wrap("inner", inner))
    second.start()
    second.join(5)
    assert not second.is_alive()
    clock.now = 20.0
    release.set()
    first.join(5)
    assert not first.is_alive()
    totals = tracer.totals()
    assert totals["outer"].self_s == 20.0
    assert totals["inner"].self_s == 5.0


def test_reference_helper_reports_slowness_and_exits():
    with Reference() as reference:
        values = [reference.slowness() for _ in range(3)]
        helper = reference._proc
    assert all(0.0 < v < 100.0 for v in values)
    assert helper.poll() is not None


def _attributes():
    out = {}
    for _, targets in LAYERS:
        for target in targets:
            owner, attr = resolve(target)
            out[target] = vars(owner).get(attr)
    return out


def test_install_restores_every_attribute_even_when_the_run_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with Tracer().install():
            during = _attributes()
            assert all(during[t] is not before[t] for t in before)
            raise RuntimeError("the run failed")
    after = _attributes()
    assert all(after[t] is before[t] for t in before)


def test_failed_install_restores_what_it_patched():
    before = _attributes()
    layers = LAYERS + (("bogus", ("repro.api:NoSuchThing.attr",)),)
    with pytest.raises(AttributeError):
        Tracer().install(layers)
    after = _attributes()
    assert all(after[t] is before[t] for t in before)


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [
            sys.executable,
            str(script),
            "--workload",
            workload,
            "--seed",
            "2022",
            "--seconds",
            "0",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_its_checks_and_emits_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    called = {layer for layer, _ in LAYERS if values[f"{layer}.calls_per_op"] > 0}
    either = EITHER.get(workload, set())
    assert called - either == ACTIVE[workload]


def test_fails_without_printing_a_result_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("attack", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
