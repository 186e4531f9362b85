"""Obfuscation mitigations (paper Section 9.3).

Two flavours:

* **Application-level**: decorative login-screen animation, as on the PNC
  Mobile Bank app — already modeled by :data:`repro.android.apps.PNC`.
  The animation frames constantly perturb the counter stream, and any
  animation frame sharing a read window with a key press corrupts its
  delta; the paper measures accuracy dropping to 30.2 %.

* **OS-level**: the OS randomly executes small GPU workloads in the
  background.  :class:`OsNoiseInjector` adds such frames to a victim
  timeline with a configurable duty cycle; the open question the paper
  raises — how much noise is enough, given that excessive workloads cost
  performance and battery — is explored by the Section 9.3 bench's sweep.

* **Value obfuscation at the driver**: the ``noise_strength`` layer of a
  :class:`~repro.mitigations.policy.MitigationPolicy` (``obfuscate-*``)
  perturbs returned counter values inside the KGSL read path, an
  alternative the paper suggests ("applying obfuscations on the values of
  GPU performance counters").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.android.display import Display
from repro.android.geometry import Rect
from repro.android.layers import DrawOp, Layer, Scene
from repro.gpu.adreno import AdrenoSpec
from repro.gpu.pipeline import AdrenoPipeline
from repro.gpu.timeline import RenderTimeline


class OsNoiseInjector:
    """OS-injected random GPU workloads (Section 9.3's OS-level defence).

    Frames of random geometry are rendered at random times with mean rate
    ``rate_hz`` and sizes scaled by ``intensity`` (0..1: fraction of the
    screen a noise frame may touch).
    """

    def __init__(
        self,
        gpu: AdrenoSpec,
        display: Display,
        rate_hz: float = 20.0,
        intensity: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if not 0.0 < intensity <= 1.0:
            raise ValueError("intensity must be in (0, 1]")
        self.gpu = gpu
        self.display = display
        self.rate_hz = rate_hz
        self.intensity = intensity
        self.rng = rng if rng is not None else np.random.default_rng(11)
        self.pipeline = AdrenoPipeline(gpu)

    def _noise_scene(self) -> Scene:
        screen = self.display.resolution
        w = int(screen.width * self.rng.uniform(0.05, self.intensity))
        h = int(screen.height * self.rng.uniform(0.05, self.intensity))
        w, h = max(16, w), max(16, h)
        left = int(self.rng.uniform(0, max(1, screen.width - w)))
        top = int(self.rng.uniform(0, max(1, screen.height - h)))
        layer = Layer("os_noise")
        layer.add(
            DrawOp(
                rect=Rect.from_size(left, top, w, h),
                coverage=float(self.rng.uniform(0.2, 1.0)),
                primitives=int(self.rng.integers(2, 64)),
                textured=True,
                label="os_noise_quad",
            )
        )
        return Scene([layer])

    def timeline(self, t0: float, t1: float) -> RenderTimeline:
        timeline = RenderTimeline()
        t = t0 + float(self.rng.exponential(1.0 / self.rate_hz))
        while t < t1:
            timeline.add_render(t, self.pipeline.render(self._noise_scene()), label="os_noise")
            t += float(self.rng.exponential(1.0 / self.rate_hz))
        return timeline
