"""Outside-in layer timing: wrap each layer's public entry points in a timer.

The benchmark measures layers from outside the package.  For the length of
one traced run, :class:`Tracer` replaces each entry point named in
:data:`LAYERS` with a wrapper that records calls and *self time*: the
wrapper's own wall time minus the time spent in wrapped callees.  Every
thread keeps its own call stack, so the collector's server thread and the
two sender threads never attribute time to each other's frames.  Leaving
the ``with`` block puts every original attribute back, also when the run
raised.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

_MISSING = object()


def _read_abandoned(stats: "LayerStats", result) -> None:
    # read_once returns None when retries could not complete the read
    if result is None:
        stats.extra["abandoned"] = stats.extra.get("abandoned", 0) + 1


def _deltas_emitted(stats: "LayerStats", result) -> None:
    stats.extra["emitted"] = stats.extra.get("emitted", 0) + len(result)


#: Layer name -> the ``"module:attribute.path"`` entry points it owns.
#: Functions that callers reach through a module global are patched in the
#: namespace the caller looks them up in, not where they are defined.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("android.compile", ("repro.android.device:VictimDevice.compile",)),
    ("gpu.render", ("repro.gpu.pipeline:AdrenoPipeline.render",)),
    ("gpu.values_at", ("repro.gpu.timeline:RenderTimeline.values_at",)),
    ("kgsl.ioctl", ("repro.kgsl.device_file:KgslDeviceFile.ioctl",)),
    ("kgsl.read", ("repro.kgsl.sampler:PerfCounterSampler.read_once",)),
    ("kgsl.extract", ("repro.runtime.source:nonzero_deltas_vectorized",)),
    (
        "core.classify",
        (
            "repro.core.classifier:ClassificationModel.classify",
            "repro.core.classifier:ClassificationModel.classify_vector_masked",
            "repro.core.classifier:ClassificationModel.classify_batch",
        ),
    ),
    ("core.step", ("repro.core.online:OnlineEngine.feed",)),
    ("core.label", ("repro.core.offline:label_samples",)),
    ("core.fit", ("repro.core.offline:build_model",)),
    ("runtime.run", ("repro.runtime.session:SessionRuntime.run",)),
    (
        "interpose.fault",
        ("repro.faults:FaultInjector.on_ioctl", "repro.faults:FaultInjector.after_read"),
    ),
    ("interpose.drift", ("repro.lifecycle.drift:DriftInjector.drift_value",)),
    (
        "interpose.policy",
        (
            "repro.mitigations.policy:PolicyEnforcer.check",
            "repro.mitigations.policy:PolicyEnforcer.filter_value",
        ),
    ),
    (
        "lifecycle.calibrate",
        (
            "repro.lifecycle.calibration:CalibrationService.observe",
            "repro.lifecycle.calibration:CalibrationService.recalibrate",
        ),
    ),
    ("collector.send", ("repro.collector.client:CollectorClient.send_results",)),
    (
        "collector.codec",
        (
            "repro.collector.frames:BinaryCodec.encode",
            "repro.collector.server:decode_any",
            "repro.collector.client:decode_any",
        ),
    ),
    ("collector.journal", ("repro.collector.journal:CollectorJournal.append",)),
)

#: Entry point -> hook called with (layer stats, return value).
RESULT_HOOKS: Dict[str, Callable[["LayerStats", object], None]] = {
    "repro.kgsl.sampler:PerfCounterSampler.read_once": _read_abandoned,
    "repro.runtime.source:nonzero_deltas_vectorized": _deltas_emitted,
}


def resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@dataclass
class LayerStats:
    """What one layer did during a traced run."""

    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.errors += other.errors
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    """Per-thread self-time accounting for wrapped callables.

    ``calls`` counts entries into a layer from outside it, so a layer
    whose entry points call each other (``classify`` -> ``classify_batch``)
    counts one call; its self time still sums every frame.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._ledgers: List[Dict[str, LayerStats]] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            ledger: Dict[str, LayerStats] = {}
            with self._lock:
                self._ledgers.append(ledger)
            state = self._local.state = ([], ledger)
        return state

    def wrap(self, layer: str, fn, on_return=None):
        """``fn`` timed under ``layer``."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, ledger = tracer._thread_state()
            stats = ledger.get(layer)
            if stats is None:
                stats = ledger[layer] = LayerStats()
            if not stack or stack[-1][0] != layer:
                stats.calls += 1
            frame = [layer, 0.0]  # [layer, time spent in wrapped callees]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(stats, result)
            return result

        return timed

    def patch(self, owner, attr: str, layer: str, on_return=None) -> None:
        """Replace ``owner.attr`` with its timed wrapper until :meth:`restore`."""
        original = vars(owner).get(attr, _MISSING)
        fn = getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)) or not callable(fn):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, fn, on_return))

    def install(self, layers=LAYERS) -> "Tracer":
        """Patch every entry point of ``layers``; use as a context manager."""
        try:
            for layer, targets in layers:
                for target in targets:
                    owner, attr = resolve(target)
                    self.patch(owner, attr, layer, RESULT_HOOKS.get(target))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def totals(self) -> Dict[str, LayerStats]:
        """Every thread's ledger merged by layer."""
        out: Dict[str, LayerStats] = {}
        with self._lock:
            ledgers = list(self._ledgers)
        for ledger in ledgers:
            for layer, stats in ledger.items():
                out.setdefault(layer, LayerStats()).merge(stats)
        return out


def layer_names() -> List[str]:
    return [layer for layer, _ in LAYERS]
