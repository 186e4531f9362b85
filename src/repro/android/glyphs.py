"""Synthetic glyph metrics for on-screen keyboard characters.

The side channel works because the popup of each key press draws a large
glyph whose ink coverage, advance width and stroke structure differ per
character, producing per-key-unique amounts of rasterized pixels, occluded
tiles and primitives (paper Section 2.2, Fig 6).  We model each glyph with
three quantities:

* ``ink_fraction`` — fraction of the glyph's bounding box covered by ink.
  Drives the rasterized-pixel (RAS) and visible-pixel (LRZ) counters.
* ``width_fraction`` — advance width relative to the font size (em).
  Drives glyph box area.
* ``strokes`` — number of straight/curved stroke segments used when the
  glyph is drawn as vector geometry in the large popup rendering.  Each
  stroke is one quad = 2 triangles, so this drives the primitive (VPC/LRZ
  prim) counters for popups.

Small text-echo glyphs are drawn as a single textured quad (2 triangles)
regardless of the character.  That is exactly what produces the paper's
Fig 14 signal: PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ moves by +-2 per character
entered or deleted, independent of which character it is.

The per-character values below are synthetic but shaped like a real
sans-serif font: 'i'/'l'/punctuation are narrow with little ink, 'm'/'w'
and '@' are wide and dense.  The paper's observation that ',' and '.'
produce the minimum amount of overdraw — and therefore the worst inference
accuracy (Fig 17c, Fig 18) — emerges from these values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Character set evaluated in the paper's Fig 18, in its display order.
KEYBOARD_CHARACTERS: str = (
    "abcdefghijklmnopqrstuvwxyz"
    "1234567890"
    ",."
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "@#$&-+()/*\"':;!?"
)


@dataclass(frozen=True)
class GlyphMetrics:
    """Geometric description of one character's glyph."""

    char: str
    ink_fraction: float
    width_fraction: float
    strokes: int

    def box_pixels(self, font_px: int) -> int:
        """Bounding-box pixel count when rendered at ``font_px``."""
        return int(round(font_px * font_px * self.width_fraction))

    def primitives(self, vector: bool) -> int:
        """Triangle count: stroke quads for vector (popup) rendering,
        one textured quad for bitmap (text echo) rendering."""
        if vector:
            return 2 * self.strokes
        return 2


# (ink_fraction, width_fraction, strokes) per character.  Ink fractions are
# relative to the glyph bounding box; width fractions relative to the em.
_GLYPH_TABLE: Dict[str, Tuple[float, float, int]] = {
    # lowercase
    "a": (0.340, 0.55, 4),
    "b": (0.330, 0.57, 3),
    "c": (0.280, 0.52, 3),
    "d": (0.330, 0.57, 3),
    "e": (0.350, 0.55, 4),
    "f": (0.240, 0.35, 3),
    "g": (0.360, 0.57, 4),
    "h": (0.300, 0.56, 3),
    "i": (0.110, 0.24, 2),
    "j": (0.140, 0.26, 3),
    "k": (0.290, 0.52, 3),
    "l": (0.100, 0.24, 1),
    "m": (0.420, 0.86, 5),
    "n": (0.300, 0.56, 3),
    "o": (0.320, 0.56, 4),
    "p": (0.330, 0.57, 3),
    "q": (0.335, 0.57, 3),
    "r": (0.200, 0.37, 2),
    "s": (0.290, 0.50, 5),
    "t": (0.190, 0.33, 2),
    "u": (0.295, 0.56, 3),
    "v": (0.250, 0.50, 2),
    "w": (0.385, 0.78, 4),
    "x": (0.260, 0.50, 2),
    "y": (0.255, 0.50, 3),
    "z": (0.300, 0.50, 3),
    # digits
    "1": (0.140, 0.55, 2),
    "2": (0.320, 0.55, 4),
    "3": (0.330, 0.55, 5),
    "4": (0.300, 0.55, 3),
    "5": (0.330, 0.55, 5),
    "6": (0.345, 0.55, 5),
    "7": (0.220, 0.55, 2),
    "8": (0.380, 0.55, 6),
    "9": (0.345, 0.55, 5),
    "0": (0.360, 0.55, 4),
    # the minimum-overdraw symbols called out by the paper
    ",": (0.035, 0.22, 1),
    ".": (0.028, 0.22, 1),
    # uppercase
    "A": (0.330, 0.66, 6),
    "B": (0.380, 0.62, 5),
    "C": (0.300, 0.64, 5),
    "D": (0.360, 0.66, 5),
    "E": (0.360, 0.58, 6),
    "F": (0.300, 0.54, 5),
    "G": (0.350, 0.68, 6),
    "H": (0.330, 0.66, 5),
    "I": (0.130, 0.26, 4),
    "J": (0.200, 0.44, 5),
    "K": (0.320, 0.62, 5),
    "L": (0.220, 0.52, 3),
    "M": (0.440, 0.82, 7),
    "N": (0.370, 0.68, 5),
    "O": (0.360, 0.70, 6),
    "P": (0.330, 0.60, 5),
    "Q": (0.385, 0.70, 5),
    "R": (0.360, 0.62, 5),
    "S": (0.330, 0.58, 7),
    "T": (0.220, 0.58, 4),
    "U": (0.330, 0.66, 5),
    "V": (0.270, 0.64, 4),
    "W": (0.430, 0.92, 6),
    "X": (0.290, 0.62, 4),
    "Y": (0.240, 0.62, 5),
    "Z": (0.330, 0.58, 5),
    # symbols
    "@": (0.460, 0.90, 7),
    "#": (0.380, 0.62, 4),
    "$": (0.370, 0.56, 6),
    "&": (0.400, 0.68, 6),
    "-": (0.070, 0.40, 1),
    "+": (0.160, 0.48, 2),
    "(": (0.120, 0.30, 2),
    ")": (0.120, 0.30, 2),
    "/": (0.130, 0.34, 1),
    "*": (0.180, 0.44, 3),
    '"': (0.060, 0.30, 2),
    "'": (0.032, 0.18, 1),
    ":": (0.055, 0.22, 2),
    ";": (0.065, 0.22, 2),
    "!": (0.110, 0.24, 2),
    "?": (0.240, 0.50, 4),
    # characters that can appear in credentials but are not in Fig 18
    "•": (0.200, 0.35, 1),  # bullet used by masked password fields
    " ": (0.000, 0.50, 0),
    "_": (0.080, 0.50, 1),
    "=": (0.130, 0.48, 2),
    "%": (0.330, 0.80, 5),
    "^": (0.090, 0.44, 2),
}


def glyph(char: str) -> GlyphMetrics:
    """Look up the glyph metrics for one character.

    Raises:
        KeyError: for characters outside the modeled keyboard set.
    """
    if len(char) != 1:
        raise KeyError(f"glyph() takes a single character, got {char!r}")
    ink, width, strokes = _GLYPH_TABLE[char]
    return GlyphMetrics(char=char, ink_fraction=ink, width_fraction=width, strokes=strokes)


def has_glyph(char: str) -> bool:
    return len(char) == 1 and char in _GLYPH_TABLE

