"""Integer pixel-space geometry used by the Android scene model.

All screen-space coordinates in the simulator are integer pixels with the
origin at the top-left corner of the display, x growing right and y growing
down, matching the Android window coordinate convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Optional


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``[left, right) x [top, bottom)`` in pixels.

    Empty rectangles (zero or negative extent) are permitted and behave as
    the empty set for intersection/area queries.
    """

    left: int
    top: int
    right: int
    bottom: int

    @property
    def width(self) -> int:
        return max(0, self.right - self.left)

    @property
    def height(self) -> int:
        return max(0, self.bottom - self.top)

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def is_empty(self) -> bool:
        return self.right <= self.left or self.bottom <= self.top

    @classmethod
    def from_size(cls, left: int, top: int, width: int, height: int) -> "Rect":
        return cls(left, top, left + width, top + height)

    def intersect(self, other: "Rect") -> "Rect":
        """Return the intersection rectangle (possibly empty)."""
        return Rect(
            max(self.left, other.left),
            max(self.top, other.top),
            min(self.right, other.right),
            min(self.bottom, other.bottom),
        )

    def translate(self, dx: int, dy: int) -> "Rect":
        return Rect(self.left + dx, self.top + dy, self.right + dx, self.bottom + dy)

    def inset(self, dx: int, dy: int) -> "Rect":
        """Shrink (positive inset) or grow (negative inset) symmetrically."""
        return Rect(self.left + dx, self.top + dy, self.right - dx, self.bottom - dy)

    def union(self, other: "Rect") -> "Rect":
        """Return the bounding box of both rectangles."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Rect(
            min(self.left, other.left),
            min(self.top, other.top),
            max(self.right, other.right),
            max(self.bottom, other.bottom),
        )

    def tile_counts(self, tile_w: int, tile_h: int) -> "TileCoverage":
        """Count grid tiles fully and partially covered by this rectangle.

        Computed arithmetically (no per-tile loop) and memoized — this is
        the hottest operation in the render pipeline.
        """
        return _tile_counts_cached(self.left, self.top, self.right, self.bottom, tile_w, tile_h)


@lru_cache(maxsize=65536)
def _tile_counts_cached(
    left: int, top: int, right: int, bottom: int, tile_w: int, tile_h: int
) -> "TileCoverage":
    if right <= left or bottom <= top:
        return TileCoverage(full=0, partial=0)
    cols = -(-right // tile_w) - left // tile_w
    rows = -(-bottom // tile_h) - top // tile_h
    full_cols = max(0, right // tile_w - -(-left // tile_w))
    full_rows = max(0, bottom // tile_h - -(-top // tile_h))
    full = full_cols * full_rows
    return TileCoverage(full=full, partial=cols * rows - full)


@dataclass(frozen=True)
class TileCoverage:
    """Counts of fully and partially covered tiles for one coverage query."""

    full: int
    partial: int

    @property
    def total(self) -> int:
        return self.full + self.partial

    def __add__(self, other: "TileCoverage") -> "TileCoverage":
        return TileCoverage(self.full + other.full, self.partial + other.partial)


ZERO_RECT = Rect(0, 0, 0, 0)


def covered_area(rects: Iterable[Rect]) -> int:
    """Exact area of the union of rectangles (sweep over x slabs).

    Used to compute occlusion from several popup/overlay rectangles without
    double counting overlaps.  The rectangle count in any scene is small
    (tens), so an O(n^2) slab sweep is more than fast enough.
    """
    boxes: List[Rect] = [r for r in rects if not r.is_empty]
    if not boxes:
        return 0
    xs = sorted({r.left for r in boxes} | {r.right for r in boxes})
    total = 0
    for x0, x1 in zip(xs, xs[1:]):
        slab_w = x1 - x0
        if slab_w <= 0:
            continue
        intervals = sorted(
            (r.top, r.bottom) for r in boxes if r.left <= x0 and r.right >= x1
        )
        covered = 0
        cur_top: Optional[int] = None
        cur_bottom: Optional[int] = None
        for top, bottom in intervals:
            if cur_top is None:
                cur_top, cur_bottom = top, bottom
                continue
            assert cur_bottom is not None
            if top > cur_bottom:
                covered += cur_bottom - cur_top
                cur_top, cur_bottom = top, bottom
            else:
                cur_bottom = max(cur_bottom, bottom)
        if cur_top is not None and cur_bottom is not None:
            covered += cur_bottom - cur_top
        total += covered * slab_w
    return total
