"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 bench/run.py --workload attack [--seed 2022] [--seconds 10] [--trace 0|1] [--out runs.jsonl]

The run sets the workload up :data:`SETUP_REPS` times (each time also
importing the package in a fresh interpreter), then runs its operations
in a closed loop for ``--seconds``, in whole cycles of the workload's
``cycle_ops``.  Timings are scaled to nominal machine speed by a reference
loop timed before and after every operation (``reference.py``) on the one
CPU the run is pinned to.  It prints every
metric by name with its unit, one line per output check, and as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same loop untraced, then replays exactly those operations with every
layer's entry points wrapped in a timer (``tracer.py``), and reports the
per-layer metrics: calls and self time per operation, share of the traced
wall time, and the tracing overhead.

Exit status: 0 when every check passes, 1 when one fails, 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
#: Output digests recorded per seed, over each workload's first ``cycle_ops``
#: operations.
DIGESTS = BENCH_DIR / "digests.json"
#: Set-ups per run; ``setup_s`` reports their median.  Three keep the
#: ``train`` run, whose set-up trains six models, under a minute on a slow
#: host.
SETUP_REPS = 3


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("train", "attack", "attack-defended", "ingest"),
    )
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", type=Path, help="append the result as one JSON line")
    return parser.parse_args(argv)


def measure(workload, reference, seconds: float, count: Optional[int] = None):
    """Run operations on fresh loop state: exactly ``count`` of them, or
    whole multiples of ``cycle_ops`` until ``seconds`` have passed.  Each
    operation carries the mean of the machine's slowness sampled just
    before and just after it.  Returns the operations, the loop's wall
    time and the process's peak RSS in MB after the first cycle."""
    from workloads import Op

    workload.start()
    ops: List[Op] = []
    peak_rss_mb = 0.0
    before = reference.slowness()
    t0 = time.perf_counter()
    while True:
        done = len(ops)
        if count is not None:
            if done >= count:
                break
        elif (
            done
            and done % workload.cycle_ops == 0
            and time.perf_counter() - t0 >= seconds
        ):
            break
        try:
            op = workload.op(done)
        except Exception:
            traceback.print_exc()
            units = workload.units_per_op
            op = Op(busy_s=0.0, units=units, failed=units)
        after = reference.slowness()
        op.slowness = (before + after) / 2
        before = after
        ops.append(op)
        if len(ops) == workload.cycle_ops:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ops, time.perf_counter() - t0, peak_rss_mb


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the package."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "t = time.perf_counter(); import repro.api; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(proc.stdout)


def end_to_end(ops, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    """Medians over the operations that ran, at nominal machine speed, so
    neither a slow second nor a slow minute of a shared host moves the
    run's number.  Memory is read after the first cycle, because how many
    cycles fit in the run depends on the machine's speed."""
    ran = [op for op in ops if op.record is not None]
    rates = [op.work / op.busy_s * op.slowness for op in ran]
    return {
        "setup_s": setup_s,
        "throughput_per_s": statistics.median(rates or [0.0]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(totals, ops, untraced_ops, store) -> Dict[str, float]:
    """Layer metrics of the traced replay ``ops``, which repeated
    ``untraced_ops`` one for one.  Self times are at nominal machine
    speed; shares are of the time spent inside operations."""
    from tracer import LayerStats, layer_names
    from workloads import clean_frac

    n = len(ops)
    busy = sum(op.busy_s for op in ops)
    slowness = statistics.median(op.slowness for op in ops)
    out: Dict[str, float] = {}
    for layer in layer_names():
        stats = totals.get(layer, LayerStats())
        out[f"{layer}.calls_per_op"] = stats.calls / n
        out[f"{layer}.self_ms_per_op"] = stats.self_s * 1e3 / n / slowness
        out[f"{layer}.share"] = stats.self_s / busy
    ioctl, read, extract, step = (
        totals.get(name, LayerStats())
        for name in ("kgsl.ioctl", "kgsl.read", "kgsl.extract", "core.step")
    )
    keys = sum(
        len(op.record.get("key_t", ())) for op in ops if isinstance(op.record, dict)
    )
    out["kgsl.ioctl.errors_per_op"] = ioctl.errors / n
    out["kgsl.read.abandoned_per_op"] = read.extra.get("abandoned", 0) / n
    out["kgsl.read.useful_frac"] = (
        extract.extra.get("emitted", 0) / read.calls if read.calls else 0.0
    )
    out["core.step.keys_per_step"] = keys / step.calls if step.calls else 0.0
    out["core.label.clean_frac"] = clean_frac(store) if store is not None else 0.0
    # paired per operation, so cold caches in the first untraced
    # operations do not read as negative overhead
    ratios = [
        (t.busy_s / t.slowness) / (u.busy_s / u.slowness)
        for t, u in zip(ops, untraced_ops)
        if u.busy_s > 0
    ]
    out["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    return out


def run(args: argparse.Namespace, workdir: Path) -> dict:
    import workloads
    from reference import REFERENCE_S, Reference
    from tracer import Tracer

    spec = json.loads(SPEC.read_text())
    workload = workloads.make(args.workload, args.seed, workdir)
    with Reference() as reference:
        setups = []
        for _ in range(SETUP_REPS):
            slowness = statistics.median(reference.slowness() for _ in range(3))
            t0 = time.perf_counter()
            workload.prepare()
            prepare_s = time.perf_counter() - t0
            setups.append((import_seconds() + prepare_s) / slowness)
        setup_s = statistics.median(setups)

        ops, wall, peak_rss_mb = measure(workload, reference, args.seconds)
        all_ops = list(ops)
        if args.trace:
            with Tracer().install() as tracer:
                traced, _, _ = measure(workload, reference, 0.0, count=len(ops))
            all_ops += traced
            values = per_layer(tracer.totals(), traced, ops, workload.store)
            declared = spec["per_layer"]
        else:
            values = end_to_end(ops, setup_s, peak_rss_mb)
            declared = spec["end_to_end"]

    checks = workload.checks(ops)
    outputs_sha256 = workloads.sha256_json([op.record for op in ops[: workload.cycle_ops]])
    recorded = json.loads(DIGESTS.read_text()).get(str(args.seed), {}).get(args.workload)
    if recorded is not None:
        checks.append(("outputs", outputs_sha256 == recorded, outputs_sha256))
    if args.trace:
        same = [op.record for op in traced] == [op.record for op in ops]
        checks.append(("trace_parity", same, "traced replay reproduces the outputs"))

    attempted = sum(op.units for op in all_ops)
    failed = sum(op.failed for op in all_ops)
    correct = failed == 0 and all(ok for _, ok, _ in checks)

    slowness = statistics.median(op.slowness for op in ops)
    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  wall {wall:.2f} s")
    print(
        f"  machine slowness {slowness:.3f} (reference loop "
        f"{slowness * REFERENCE_S * 1e3:.3f} ms, nominal {REFERENCE_S * 1e3:.3f} ms)"
    )
    for key, value in workload.summary(ops).items():
        print(f"  {key:<34} {value:g}")
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from {SPEC.name}: {sorted(set(units) ^ set(values))}")
    for name in units:
        print(f"  {name:<34} {values[name]:12.4f} {units[name]}")
    print(f"  outputs_sha256 {outputs_sha256}")
    for name, ok, detail in checks:
        print(f"check.{args.workload}.{name} {'ok' if ok else 'FAIL'} ({detail})")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ops": len(ops),
            "slowness": slowness,
            "outputs_sha256": outputs_sha256,
            **result,
        }
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    return result


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and the processes it starts on one
    CPU, so the reference helper times the CPU the workload runs on: on a
    shared host one virtual CPU can run far slower than another."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} holds no src/repro package or no {SPEC.name}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        result = run(args, Path(workdir))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
