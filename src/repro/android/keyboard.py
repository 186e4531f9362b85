"""On-screen keyboard models: layouts, key geometry and press popups.

The attack exploits the *popup* drawn above a key while it is pressed
(paper Fig 1).  Per-key uniqueness of the GPU counter deltas comes from
two geometric facts modeled here:

* each popup shows a different glyph (different ink, width, strokes);
* each popup sits at a different keyboard position, so it occludes a
  different set of key caps beneath it.

Six keyboards from the paper's Fig 20 are modeled (Microsoft SwiftKey,
Google Keyboard/Gboard, Sogou, Google Pinyin, Go, Grammarly).  They share
the qwerty arrangement but differ in key aspect ratio, popup scale, font
size and popup animation behaviour — the animation is what causes
*duplication* readings on Gboard (Section 5.1: "due to the rich animation
of popups on some keyboards ... one key press may result in two
consecutive PC value changes with the same amount").

This module is a *producer* for the keyboard registry: the specs above
are registered into :data:`KEYBOARD_REGISTRY` at import time, and any
code — including code outside this package, like the PIN-pad keyboard in
:mod:`repro.scenarios.pinpad` — can register further keyboards through
:func:`register_keyboard`.  :func:`keyboard` resolves names through the
registry, so a registered keyboard is addressable everywhere a built-in
one is.  :data:`KEYBOARDS` stays a snapshot of the paper's Fig 20 set
and is not the source of truth.

Two key arrangements (``KeyboardSpec.layout``) are supported:

* ``"qwerty"`` — number row + three letter rows + bottom row, with
  upper/symbol pages reached via shift / ?123;
* ``"pinpad"`` — a 3-wide numeric grid (1-9 plus 0), digit-only, as on
  banking PIN entry screens.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.android.display import Display
from repro.android.geometry import Rect
from repro.registry import Registry

#: qwerty letter rows (lowercase page; uppercase shares positions via shift).
_LETTER_ROWS: Tuple[str, ...] = ("qwertyuiop", "asdfghjkl", "zxcvbnm")
#: number row shown above the letters (all modeled keyboards have one).
_NUMBER_ROW: str = "1234567890"
#: symbol page rows (reached via the ?123 key; positions reuse the grid).
_SYMBOL_ROWS: Tuple[str, ...] = ("+()/*\"'#$&", "-@!?:;,.", "")

#: Characters that live on the primary page next to the spacebar.
_BOTTOM_ROW_CHARS: str = ",."

#: Per-page label strings drawn by the scene builder.  Order matters:
#: the keyboard layer iterates these strings, so changing an order here
#: changes draw-op order and breaks golden-trace byte parity.
_QWERTY_PAGE_LABELS: Dict[str, str] = {
    "lower": "qwertyuiopasdfghjklzxcvbnm1234567890,.",
    "upper": "QWERTYUIOPASDFGHJKLZXCVBNM1234567890,.",
    "symbol": "1234567890+()/*\"'#$&-@!?:;,.",
}

#: PIN-pad rows: a phone-style numeric grid.
_PINPAD_ROWS: Tuple[str, ...] = ("123", "456", "789", "0")
_PINPAD_CHARS: str = "1234567890"

#: Supported values of :attr:`KeyboardSpec.layout`.
LAYOUT_KINDS: Tuple[str, ...] = ("qwerty", "pinpad")


@dataclass(frozen=True)
class KeyGeometry:
    """Where one key lives and what its popup looks like when pressed."""

    char: str
    key_rect: Rect
    popup_rect: Rect
    page: str  # "lower", "upper", or "symbol"


@dataclass(frozen=True)
class KeyboardSpec:
    """Static parameters of one keyboard app.

    Attributes:
        name: short identifier used in experiment tables (Fig 20 order).
        display_name: human-readable product name.
        height_fraction: share of the screen height the keyboard occupies.
        key_gap_fraction: gap between keys relative to key width.
        popup_scale: popup width/height relative to the key size.
        popup_rise_fraction: how far above the key the popup floats,
            relative to key height.
        popup_font_fraction: popup glyph em size relative to popup height.
        label_font_fraction: key-cap label em size relative to key height.
        duplicate_popup_prob: probability the popup animation emits a
            second identical frame (the *duplication* factor, Section 5.1).
        popup_shadow: whether the popup draws a translucent drop shadow.
        supports_popup: whether key presses draw popups at all.
        layout: key arrangement — ``"qwerty"`` or ``"pinpad"``.
    """

    name: str
    display_name: str
    height_fraction: float
    key_gap_fraction: float
    popup_scale: float
    popup_rise_fraction: float
    popup_font_fraction: float
    label_font_fraction: float
    duplicate_popup_prob: float
    popup_shadow: bool
    supports_popup: bool = True
    layout: str = "qwerty"

    def __post_init__(self) -> None:
        if self.layout not in LAYOUT_KINDS:
            raise ValueError(
                f"unknown keyboard layout {self.layout!r}; known: {list(LAYOUT_KINDS)}"
            )


#: The keyboard registry: the source of truth for name → spec lookup.
KEYBOARD_REGISTRY: Registry[KeyboardSpec] = Registry("keyboard")


def register_keyboard(spec: KeyboardSpec, tags: Tuple[str, ...] = ()) -> KeyboardSpec:
    """Register a keyboard spec so :func:`keyboard` (and the CLI, the
    scenario registry, …) can resolve it by name."""
    return KEYBOARD_REGISTRY.register(spec, tags=tags)


_GBOARD = register_keyboard(
    KeyboardSpec(
        name="gboard",
        display_name="Google Keyboard",
        height_fraction=0.285,
        key_gap_fraction=0.12,
        popup_scale=1.55,
        popup_rise_fraction=1.15,
        popup_font_fraction=0.58,
        label_font_fraction=0.42,
        duplicate_popup_prob=0.182,
        popup_shadow=True,
    ),
    tags=("paper", "fig20"),
)

_SWIFTKEY = register_keyboard(
    KeyboardSpec(
        name="swift",
        display_name="Microsoft SwiftKey",
        height_fraction=0.270,
        key_gap_fraction=0.08,
        popup_scale=1.45,
        popup_rise_fraction=1.05,
        popup_font_fraction=0.55,
        label_font_fraction=0.40,
        duplicate_popup_prob=0.110,
        popup_shadow=True,
    ),
    tags=("paper", "fig20"),
)

_SOGOU = register_keyboard(
    KeyboardSpec(
        name="sogou",
        display_name="Sogou Keyboard",
        height_fraction=0.300,
        key_gap_fraction=0.10,
        popup_scale=1.60,
        popup_rise_fraction=1.20,
        popup_font_fraction=0.60,
        label_font_fraction=0.44,
        duplicate_popup_prob=0.140,
        popup_shadow=False,
    ),
    tags=("paper", "fig20"),
)

_GOOGLE_PINYIN = register_keyboard(
    KeyboardSpec(
        name="pinyin",
        display_name="Google Pinyin Keyboard",
        height_fraction=0.290,
        key_gap_fraction=0.11,
        popup_scale=1.50,
        popup_rise_fraction=1.10,
        popup_font_fraction=0.57,
        label_font_fraction=0.42,
        duplicate_popup_prob=0.160,
        popup_shadow=True,
    ),
    tags=("paper", "fig20"),
)

_GO_KEYBOARD = register_keyboard(
    KeyboardSpec(
        name="go",
        display_name="Go Keyboard",
        height_fraction=0.280,
        key_gap_fraction=0.09,
        popup_scale=1.40,
        popup_rise_fraction=1.00,
        popup_font_fraction=0.52,
        label_font_fraction=0.38,
        duplicate_popup_prob=0.125,
        popup_shadow=False,
    ),
    tags=("paper", "fig20"),
)

_GRAMMARLY = register_keyboard(
    KeyboardSpec(
        name="grammarly",
        display_name="Grammarly Keyboard",
        height_fraction=0.275,
        key_gap_fraction=0.10,
        popup_scale=1.48,
        popup_rise_fraction=1.08,
        popup_font_fraction=0.55,
        label_font_fraction=0.41,
        duplicate_popup_prob=0.150,
        popup_shadow=True,
    ),
    tags=("paper", "fig20"),
)

#: The paper's Fig 20 evaluation set, keyed by short name.  A historical
#: snapshot: lookups go through :data:`KEYBOARD_REGISTRY`, which may hold
#: more keyboards than these six (e.g. the PIN pad).
KEYBOARDS: Dict[str, KeyboardSpec] = {
    spec.name: spec
    for spec in (_SWIFTKEY, _GBOARD, _SOGOU, _GOOGLE_PINYIN, _GO_KEYBOARD, _GRAMMARLY)
}

def keyboard(name: str) -> KeyboardSpec:
    """Resolve a keyboard by registry name.

    Raises:
        repro.registry.UnknownNameError: (a ``KeyError``) for unknown
            names, with the known set and a closest-match suggestion.
    """
    return KEYBOARD_REGISTRY.get(name)


class KeyboardLayout:
    """Concrete pixel geometry of one keyboard on one display."""

    def __init__(self, spec: KeyboardSpec, display: Display) -> None:
        self.spec = spec
        self.display = display
        screen = display.resolution
        self.height_px = int(screen.height * spec.height_fraction)
        self.top_px = screen.height - self.height_px
        self.width_px = screen.width
        if spec.layout == "pinpad":
            # digit grid rows (no number/letter split)
            self.rows = len(_PINPAD_ROWS)
        else:
            # number row + 3 letter rows + bottom row
            self.rows = 5
        self.row_height = self.height_px // self.rows
        self._geometry = (
            self._build_pinpad_geometry()
            if spec.layout == "pinpad"
            else self._build_geometry()
        )

    @property
    def bounds(self) -> Rect:
        return Rect(0, self.top_px, self.width_px, self.top_px + self.height_px)

    def _key_rect(self, row: int, col: int, row_len: int) -> Rect:
        """Pixel rectangle of the key at grid position (row, col)."""
        cell_w = self.width_px / row_len
        gap = cell_w * self.spec.key_gap_fraction / 2.0
        left = int(col * cell_w + gap)
        right = int((col + 1) * cell_w - gap)
        top = self.top_px + row * self.row_height + int(self.row_height * 0.06)
        bottom = self.top_px + (row + 1) * self.row_height - int(self.row_height * 0.06)
        return Rect(left, top, right, bottom)

    def _popup_rect(self, key: Rect) -> Rect:
        pop_w = int(key.width * self.spec.popup_scale)
        pop_h = int(key.height * self.spec.popup_scale)
        center_x = (key.left + key.right) // 2
        rise = int(key.height * self.spec.popup_rise_fraction)
        top = key.top - rise - pop_h
        left = center_x - pop_w // 2
        # Clamp into the screen so edge-key popups shift inward, like real
        # keyboards do — another source of per-key positional uniqueness.
        left = max(2, min(left, self.width_px - pop_w - 2))
        top = max(2, top)
        return Rect(left, top, left + pop_w, top + pop_h)

    def _build_geometry(self) -> Dict[str, KeyGeometry]:
        geometry: Dict[str, KeyGeometry] = {}

        def place(char: str, row: int, col: int, row_len: int, page: str) -> None:
            key = self._key_rect(row, col, row_len)
            geometry[char] = KeyGeometry(
                char=char, key_rect=key, popup_rect=self._popup_rect(key), page=page
            )

        for col, char in enumerate(_NUMBER_ROW):
            place(char, 0, col, len(_NUMBER_ROW), "lower")
        for row_index, row_chars in enumerate(_LETTER_ROWS, start=1):
            # middle/bottom letter rows are centered, approximated by using
            # the row's own length as the grid size
            for col, char in enumerate(row_chars):
                place(char, row_index, col, len(row_chars), "lower")
                upper = char.upper()
                key = self._key_rect(row_index, col, len(row_chars))
                geometry[upper] = KeyGeometry(
                    char=upper,
                    key_rect=key,
                    popup_rect=self._popup_rect(key),
                    page="upper",
                )
        for col, char in enumerate(_BOTTOM_ROW_CHARS):
            # comma sits left of the spacebar, period right of it
            grid_col = 1 if char == "," else 8
            place(char, 4, grid_col, 10, "lower")
        for row_index, row_chars in enumerate(_SYMBOL_ROWS):
            for col, char in enumerate(row_chars):
                if char in geometry:
                    continue
                place(char, row_index + 1, col, max(len(row_chars), 8), "symbol")
        return geometry

    def _build_pinpad_geometry(self) -> Dict[str, KeyGeometry]:
        """The 3-wide digit grid: 1-9 over three rows, 0 bottom-center."""
        geometry: Dict[str, KeyGeometry] = {}
        for row_index, row_chars in enumerate(_PINPAD_ROWS):
            for col, char in enumerate(row_chars):
                grid_col = 1 if row_chars == "0" else col  # 0 sits center
                key = self._key_rect(row_index, grid_col, 3)
                geometry[char] = KeyGeometry(
                    char=char,
                    key_rect=key,
                    popup_rect=self._popup_rect(key),
                    page="lower",
                )
        return geometry

    def page_labels(self, page: str) -> str:
        """The key-cap labels the scene builder draws for one page, in
        draw order (the order is part of the golden-trace contract)."""
        if self.spec.layout == "pinpad":
            return _PINPAD_CHARS
        return _QWERTY_PAGE_LABELS[page]

    def key(self, char: str) -> KeyGeometry:
        """Geometry of the key producing ``char``.

        Raises:
            KeyError: if the character has no key on this keyboard.
        """
        try:
            return self._geometry[char]
        except KeyError:
            raise KeyError(f"no key for character {char!r}") from None

    def has_key(self, char: str) -> bool:
        return char in self._geometry

    def backspace_rect(self) -> Rect:
        """The backspace key; pressing it shows no popup on any modeled
        keyboard (Section 5.3).  On qwerty it ends the bottom letter row;
        on the PIN pad it takes the bottom-right grid cell."""
        if self.spec.layout == "pinpad":
            return self._key_rect(len(_PINPAD_ROWS) - 1, 2, 3)
        row = 3
        row_len = len(_LETTER_ROWS[2]) + 2
        return self._key_rect(row, row_len - 1, row_len)


@functools.lru_cache(maxsize=64)
def keyboard_layout(spec: KeyboardSpec, display: Display) -> KeyboardLayout:
    """The :class:`KeyboardLayout` of ``spec`` on ``display``, built once
    per pair: both are frozen and a layout is never mutated, so every
    caller can share it."""
    return KeyboardLayout(spec, display)
