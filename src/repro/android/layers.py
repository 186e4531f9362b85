"""Layered scene model mirroring Android's back-to-front rendering.

Android composites every window out of layers drawn back-to-front
(paper Section 2.1, Fig 2): the activity background, the on-screen
keyboard, and — during a key press — the popup layer on top.  GPU
overdraw happens exactly where upper layers cover lower ones.

A :class:`Scene` is an ordered list of :class:`Layer` objects
(bottom first).  Each layer holds :class:`DrawOp` quads.  The Adreno
pipeline model in :mod:`repro.gpu.pipeline` walks a scene to compute
per-frame increments of the hardware performance counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.android.geometry import Rect

#: Vertex components for a plain colored quad: xyzw position + rgba color.
QUAD_COMPONENTS_PER_VERTEX: int = 8
#: Vertex components for a textured quad: xyzw position + rgba color + uv.
TEXTURED_COMPONENTS_PER_VERTEX: int = 10
#: Vertices per quad (two triangles sharing an edge, no index reuse modeled).
VERTICES_PER_QUAD: int = 4


@dataclass(frozen=True)
class DrawOp:
    """One draw call: a quad (or stack of stroke quads) in screen space.

    Attributes:
        rect: screen-space bounding rectangle of the geometry.
        coverage: fraction of ``rect`` actually covered by fragments
            (ink fraction for glyphs, 1.0 for solid quads).
        primitives: triangle count submitted by this op.
        opaque: whether the op occludes content beneath it (lets the LRZ
            pass discard occluded fragments of lower layers).
        textured: textured quads carry more vertex components (uv attrs).
        label: free-form tag for debugging and trace inspection.
    """

    rect: Rect
    coverage: float = 1.0
    primitives: int = 2
    opaque: bool = False
    textured: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must be in [0, 1], got {self.coverage}")
        if self.primitives < 0:
            raise ValueError("primitives must be non-negative")

    @property
    def fragment_pixels(self) -> int:
        """Pixels emitted by the rasterizer for this op (before occlusion)."""
        return int(round(self.rect.area * self.coverage))

    @property
    def vertices(self) -> int:
        quads = max(1, (self.primitives + 1) // 2)
        return quads * VERTICES_PER_QUAD

    @property
    def vertex_components(self) -> int:
        per_vertex = (
            TEXTURED_COMPONENTS_PER_VERTEX if self.textured else QUAD_COMPONENTS_PER_VERTEX
        )
        return self.vertices * per_vertex


@dataclass
class Layer:
    """One Android rendering layer (a window surface or view subtree)."""

    name: str
    ops: List[DrawOp] = field(default_factory=list)

    def add(self, op: DrawOp) -> "Layer":
        self.ops.append(op)
        return self

    def opaque_rects(self) -> List[Rect]:
        """Rectangles this layer fully occludes (opaque ops only)."""
        return [op.rect for op in self.ops if op.opaque and not op.rect.is_empty]

    @property
    def primitives(self) -> int:
        return sum(op.primitives for op in self.ops)

    @property
    def fragment_pixels(self) -> int:
        return sum(op.fragment_pixels for op in self.ops)

    def bounds(self) -> Rect:
        bounds = Rect(0, 0, 0, 0)
        for op in self.ops:
            bounds = bounds.union(op.rect)
        return bounds


@dataclass
class Scene:
    """A full frame's worth of layers, bottom (index 0) to top."""

    layers: List[Layer] = field(default_factory=list)

    def push(self, layer: Layer) -> "Scene":
        self.layers.append(layer)
        return self

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def bounds(self) -> Rect:
        bounds = Rect(0, 0, 0, 0)
        for layer in self.layers:
            bounds = bounds.union(layer.bounds())
        return bounds

    def op_arrays(self) -> "SceneArrays":
        """Stack every op's fields into parallel numpy arrays.

        This is the render hot path's input: one structured pass over the
        scene instead of per-op Python attribute access inside the
        pipeline (see :meth:`repro.gpu.pipeline.AdrenoPipeline.render`).
        Ops keep scene order (back-to-front, layer-major), so reductions
        over these arrays see exactly the sequence
        :meth:`ops_with_occluders` yields.
        """
        import numpy as np

        rows = [
            (
                index,
                op.rect.left,
                op.rect.top,
                op.rect.right,
                op.rect.bottom,
                op.primitives,
                op.opaque,
                op.textured,
            )
            for index, layer in enumerate(self.layers)
            for op in layer.ops
        ]
        coverage = [
            op.coverage for layer in self.layers for op in layer.ops
        ]
        if rows:
            ints = np.array(rows, dtype=np.int64)
        else:
            ints = np.empty((0, 8), dtype=np.int64)
        return SceneArrays(
            layer=ints[:, 0],
            left=ints[:, 1],
            top=ints[:, 2],
            right=ints[:, 3],
            bottom=ints[:, 4],
            primitives=ints[:, 5],
            opaque=ints[:, 6].astype(bool),
            textured=ints[:, 7].astype(bool),
            coverage=np.array(coverage, dtype=np.float64),
        )

    def ops_with_occluders(self) -> Iterator[Tuple[int, DrawOp, List[Rect]]]:
        """Yield ``(layer_index, op, occluding_rects)`` for every op.

        ``occluding_rects`` are the opaque rectangles of all layers strictly
        above the op's layer — the geometry the LRZ pass tests fragments
        against.  Back-to-front order is preserved.
        """
        opaque_above: List[List[Rect]] = []
        running: List[Rect] = []
        for layer in reversed(self.layers):
            opaque_above.append(list(running))
            running.extend(layer.opaque_rects())
        opaque_above.reverse()
        for index, layer in enumerate(self.layers):
            for op in layer.ops:
                yield index, op, opaque_above[index]


@dataclass
class SceneArrays:
    """One scene's ops as parallel numpy columns (layer-major order).

    ``layer``/``left``/``top``/``right``/``bottom``/``primitives`` are
    int64, ``opaque``/``textured`` bool, ``coverage`` float64 — the
    batched form the vectorized Adreno pipeline composites in one pass.
    """

    layer: "object"
    left: "object"
    top: "object"
    right: "object"
    bottom: "object"
    primitives: "object"
    opaque: "object"
    textured: "object"
    coverage: "object"

    def __len__(self) -> int:
        return int(self.layer.shape[0])


def solid_quad(rect: Rect, label: str = "", opaque: bool = True) -> DrawOp:
    """A fully covered opaque quad — backgrounds, key caps, popup bodies."""
    return DrawOp(rect=rect, coverage=1.0, primitives=2, opaque=opaque, label=label)

