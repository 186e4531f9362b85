"""Display hardware model: resolutions, refresh rates and frame timing.

The paper evaluates two panel resolutions (Fig 24b) and two refresh rates
(Fig 23): FHD+ 2376x1080 / QHD+ 3168x1440 at 60 Hz or 120 Hz.  The display
object owns frame timing — a frame can only start on a vsync boundary —
which is what couples the attacker's counter-sampling interval to the
screen refresh interval (Section 4: read at most every half refresh
interval).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.android.geometry import Rect


class Resolution(Enum):
    """Panel resolutions evaluated in the paper (portrait orientation)."""

    FHD_PLUS = (1080, 2376)
    QHD_PLUS = (1440, 3168)

    @property
    def width(self) -> int:
        return self.value[0]

    @property
    def height(self) -> int:
        return self.value[1]

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    @property
    def label(self) -> str:
        if self is Resolution.FHD_PLUS:
            return "FHD+ (2376x1080)"
        return "QHD+ (3168x1440)"


@dataclass(frozen=True)
class Display:
    """A smartphone display panel.

    Attributes:
        resolution: panel resolution.
        refresh_rate_hz: vsync rate, 60 or 120 in the paper's experiments.
    """

    resolution: Resolution = Resolution.FHD_PLUS
    refresh_rate_hz: int = 60

    def __post_init__(self) -> None:
        if self.refresh_rate_hz <= 0:
            raise ValueError("refresh rate must be positive")

    @property
    def frame_interval_s(self) -> float:
        """Seconds between consecutive vsync boundaries."""
        return 1.0 / self.refresh_rate_hz

    @property
    def bounds(self) -> Rect:
        return Rect(0, 0, self.resolution.width, self.resolution.height)

    def next_vsyncs(self, t: np.ndarray) -> np.ndarray:
        """Earliest vsync boundary at or after each time of ``t``
        (seconds): the whole frames before it, one more if that boundary
        is more than 1e-12 s early."""
        interval = self.frame_interval_s
        boundary = np.trunc(t / interval) * interval
        return np.where(boundary + 1e-12 < t, boundary + interval, boundary)

    def next_vsync(self, t: float) -> float:
        """Earliest vsync boundary at or after time ``t`` (seconds)."""
        return float(self.next_vsyncs(np.float64(t)))

    def scale(self, fraction_w: float, fraction_h: float) -> Rect:
        """Rectangle covering the given fraction of the panel, top-left
        anchored — a convenience for layout code expressed in fractions."""
        return Rect(
            0,
            0,
            int(self.resolution.width * fraction_w),
            int(self.resolution.height * fraction_h),
        )
