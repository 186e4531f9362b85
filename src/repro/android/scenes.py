"""Scene construction: turning UI state into layered draw geometry.

This module builds the layer stacks of Fig 2 in the paper — status bar,
application window, on-screen keyboard, and (during a key press) the popup
window on top — and clips them to *damage rectangles*, because Android's
tiled renderer only re-renders the screen region invalidated by a change
(partial updates).  The damage-clipped scene of each UI event is what the
GPU pipeline model renders, and its counter increment is the raw side
channel signal:

* a key press damages the popup region → large, key-unique increment
  (glyph geometry + which key caps the popup occludes);
* a key release damages the text field → small increment that carries the
  2-primitives-per-character signal of the paper's Fig 14;
* the popup dismissal damages the popup region again, without the popup —
  a constant-valued change the classifier learns to ignore;
* a cursor blink damages the text field, giving the Fig 14 "cursor
  blinking" changes at 0.5 s cadence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.android.apps import AppSpec
from repro.android.display import Display
from repro.android.geometry import Rect
from repro.android.glyphs import glyph
from repro.android.keyboard import keyboard_layout
from repro.android.layers import DrawOp, Layer, Scene, solid_quad
from repro.android.os_config import DeviceConfig

#: Mask character echoed by password fields.
MASK_CHAR = "•"


@dataclass(frozen=True)
class UiState:
    """Everything that determines what the victim screen looks like."""

    app: AppSpec
    typed_len: int = 0
    cursor_on: bool = True
    popup_char: Optional[str] = None
    key_highlight: Optional[str] = None
    notification_icons: int = 2

    def with_popup(self, char: Optional[str]) -> "UiState":
        return replace(self, popup_char=char, key_highlight=char)


class SceneBuilder:
    """Builds damage-clipped scenes for one device configuration."""

    def __init__(self, config: DeviceConfig) -> None:
        self.config = config
        self.display: Display = config.display
        self.layout = keyboard_layout(config.keyboard, self.display)

    # ------------------------------------------------------------------
    # Layer builders
    # ------------------------------------------------------------------

    def status_bar_layer(self, state: UiState) -> Layer:
        screen = self.display.resolution
        height = int(screen.height * self.config.android.status_bar_fraction)
        layer = Layer("status_bar")
        layer.add(solid_quad(Rect(0, 0, screen.width, height), label="statusbar_bg"))
        icon = max(8, height // 2)
        for i in range(state.notification_icons):
            left = 8 + i * (icon + 6)
            layer.add(
                DrawOp(
                    rect=Rect.from_size(left, (height - icon) // 2, icon, icon),
                    coverage=0.55,
                    primitives=2,
                    textured=True,
                    label=f"notif_icon_{i}",
                )
            )
        # clock glyphs on the right
        clock_w = icon * 3
        layer.add(
            DrawOp(
                rect=Rect.from_size(screen.width - clock_w - 8, (height - icon) // 2, clock_w, icon),
                coverage=0.30,
                primitives=8,
                textured=True,
                label="clock",
            )
        )
        return layer

    def app_layer(self, state: UiState) -> Layer:
        app = state.app
        screen = self.display.resolution
        layer = Layer(f"app:{app.name}")
        layer.add(solid_quad(self.display.bounds, label="app_bg"))

        if app.is_web:
            # Chrome URL bar + tab strip above the page content.
            bar_h = int(screen.height * 0.045)
            bar_top = int(screen.height * self.config.android.status_bar_fraction)
            layer.add(
                solid_quad(Rect(0, bar_top, screen.width, bar_top + bar_h), label="chrome_bar")
            )
            layer.add(
                DrawOp(
                    rect=Rect.from_size(int(screen.width * 0.12), bar_top + 6, int(screen.width * 0.7), bar_h - 12),
                    coverage=0.35,
                    primitives=10,
                    textured=True,
                    label="chrome_url",
                )
            )

        # Decorative widgets (logo, banners, buttons) spread over the top
        # region of the screen; their count/area is the app's fingerprint.
        decor_area = app.decor_area_fraction * screen.pixel_count
        per_widget = decor_area / max(1, app.decor_widgets)
        widget_h = int(per_widget**0.5 * 0.8)
        widget_w = int(per_widget / max(1, widget_h))
        for i in range(app.decor_widgets):
            top = int(screen.height * 0.06) + i * int(widget_h * 1.25)
            left = int(screen.width * 0.08) + (i % 3) * int(screen.width * 0.04)
            layer.add(
                DrawOp(
                    rect=Rect.from_size(left, top, widget_w, widget_h),
                    coverage=0.75,
                    primitives=4,
                    textured=True,
                    label=f"decor_{i}",
                )
            )

        field = app.field_rect(self.display)
        layer.add(solid_quad(field, label="field_bg"))
        layer.add(
            DrawOp(rect=field.inset(-2, -2), coverage=0.06, primitives=8, label="field_border")
        )

        # Echoed content: every credential field masks it with bullets.
        font = int(field.height * 0.55)
        advance = int(font * 0.62)
        x = field.left + int(font * 0.4)
        metrics = glyph(MASK_CHAR)
        for i in range(state.typed_len):
            g_rect = Rect.from_size(x, field.top + (field.height - font) // 2, advance, font)
            layer.add(
                DrawOp(
                    rect=g_rect,
                    coverage=metrics.ink_fraction,
                    primitives=metrics.primitives(vector=False),
                    textured=True,
                    label=f"echo_{i}",
                )
            )
            x += advance + 2
        if state.cursor_on:
            cursor = Rect.from_size(x + 1, field.top + int(field.height * 0.18), max(2, font // 14), int(field.height * 0.64))
            layer.add(DrawOp(rect=cursor, coverage=1.0, primitives=2, label="cursor"))
        return layer

    @staticmethod
    def _keyboard_page(state: UiState) -> str:
        """Which keyboard page is showing: pressing a shifted or symbol key
        means the whole keyboard is rendered with that page's labels, which
        is a large part of what separates 'u' from 'U' in counter space."""
        char = state.popup_char
        if char is None:
            return "lower"
        if char.isupper():
            return "upper"
        if not (char.islower() or char.isdigit() or char in ",."):
            return "symbol"
        return "lower"

    def keyboard_layer(self, state: UiState) -> Layer:
        layer = Layer(f"keyboard:{self.config.keyboard.name}")
        layer.add(solid_quad(self.layout.bounds, label="kb_bg"))
        scale = self.config.ui_scale
        # The layout owns the per-page label strings (draw order included);
        # qwerty and pinpad layouts return different label sets here.
        for char in self.layout.page_labels(self._keyboard_page(state)):
            geo = self.layout.key(char)
            highlighted = (
                state.key_highlight is not None
                and char.lower() == state.key_highlight.lower()
            )
            layer.add(
                solid_quad(geo.key_rect, label=f"cap_{char}", opaque=True)
                if not highlighted
                else DrawOp(rect=geo.key_rect, coverage=1.0, primitives=2, opaque=True, label=f"cap_hl_{char}")
            )
            metrics = glyph(char)
            font = int(geo.key_rect.height * self.config.keyboard.label_font_fraction * scale)
            label_w = max(2, int(font * metrics.width_fraction))
            label_rect = Rect.from_size(
                (geo.key_rect.left + geo.key_rect.right - label_w) // 2,
                (geo.key_rect.top + geo.key_rect.bottom - font) // 2,
                label_w,
                font,
            )
            layer.add(
                DrawOp(
                    rect=label_rect,
                    coverage=metrics.ink_fraction,
                    primitives=metrics.primitives(vector=False),
                    textured=True,
                    label=f"label_{char}",
                )
            )
        # function keys: shift, backspace, symbols, spacebar, enter
        bs = self.layout.backspace_rect()
        layer.add(solid_quad(bs, label="cap_backspace"))
        layer.add(
            DrawOp(rect=bs.inset(bs.width // 4, bs.height // 3), coverage=0.4, primitives=6, textured=True, label="icon_backspace")
        )
        return layer

    def popup_layer(self, state: UiState) -> Optional[Layer]:
        if state.popup_char is None or not self.config.keyboard.supports_popup:
            return None
        char = state.popup_char
        geo = self.layout.key(char)
        pop = geo.popup_rect
        scale = self.config.ui_scale
        layer = Layer(f"popup:{char}")
        if self.config.keyboard.popup_shadow:
            layer.add(
                DrawOp(rect=pop.inset(-6, -6).translate(0, 4), coverage=0.5, primitives=2, label="popup_shadow")
            )
        layer.add(solid_quad(pop, label="popup_body"))
        metrics = glyph(char)
        font = int(pop.height * self.config.keyboard.popup_font_fraction * scale)
        g_w = max(2, int(font * metrics.width_fraction))
        g_rect = Rect.from_size(
            (pop.left + pop.right - g_w) // 2,
            (pop.top + pop.bottom - font) // 2,
            g_w,
            font,
        )
        layer.add(
            DrawOp(
                rect=g_rect,
                coverage=metrics.ink_fraction,
                primitives=metrics.primitives(vector=True),
                label=f"popup_glyph_{char}",
            )
        )
        return layer

    def animation_layer(self, state: UiState, phase: int) -> Optional[Layer]:
        anim = state.app.animation
        if anim is None:
            return None
        screen = self.display.resolution
        area = anim.area_fraction * screen.pixel_count
        height = int(area**0.5)
        width = int(area / max(1, height))
        # The animated region drifts with the phase so consecutive frames
        # damage slightly different tiles, like a real animation.
        left = int(screen.width * 0.1) + (phase % 7) * 3
        top = int(screen.height * 0.55) + (phase % 5) * 2
        layer = Layer("login_animation")
        layer.add(
            DrawOp(
                rect=Rect.from_size(left, top, width, height),
                coverage=anim.intensity,
                primitives=anim.primitives + (phase % 3) * 2,
                textured=True,
                label=f"anim_{phase}",
            )
        )
        return layer

    # ------------------------------------------------------------------
    # Full scenes and damage clipping
    # ------------------------------------------------------------------

    def full_layers(self, state: UiState, anim_phase: Optional[int] = None) -> List[Layer]:
        """The complete back-to-front layer stack for a UI state."""
        layers = [self.app_layer(state), self.status_bar_layer(state)]
        if anim_phase is not None:
            anim = self.animation_layer(state, anim_phase)
            if anim is not None:
                layers.append(anim)
        layers.append(self.keyboard_layer(state))
        popup = self.popup_layer(state)
        if popup is not None:
            layers.append(popup)
        return layers

    def damage_scene(self, state: UiState, damage: Rect, anim_phase: Optional[int] = None) -> Scene:
        """Scene clipped to the invalidated region — what the GPU renders."""
        scene = Scene()
        for layer in self.full_layers(state, anim_phase):
            clipped = Layer(layer.name)
            for op in layer.ops:
                rect = op.rect.intersect(damage)
                if rect.is_empty:
                    continue
                clipped.add(replace(op, rect=rect))
            if clipped.ops:
                scene.push(clipped)
        return scene

    # ------------------------------------------------------------------
    # Event damages
    # ------------------------------------------------------------------

    def popup_damage(self, char: str) -> Rect:
        geo = self.layout.key(char)
        if not self.config.keyboard.supports_popup:
            # popups disabled (Section 9.1): only the touch ripple overlay
            # invalidates the screen
            return self._ripple_rect(char)
        damage = geo.popup_rect.union(geo.key_rect)
        if self.config.keyboard.popup_shadow:
            damage = damage.inset(-8, -8)
        return damage.intersect(self.display.bounds)

    #: Radius of the touch-feedback ripple drawn when popups are disabled.
    RIPPLE_RADIUS_PX = 44

    def _ripple_rect(self, char: str) -> Rect:
        geo = self.layout.key(char)
        cx = (geo.key_rect.left + geo.key_rect.right) // 2
        cy = (geo.key_rect.top + geo.key_rect.bottom) // 2
        r = self.RIPPLE_RADIUS_PX
        return Rect(cx - r, cy - r, cx + r, cy + r).intersect(self.display.bounds)

    def ripple_scene(self, char: str) -> Scene:
        """The press feedback when popups are disabled (Section 9.1).

        The keyboard draws a translucent ripple on its *overlay* canvas —
        the key caps beneath are not re-rendered — so the frame's geometry
        is identical for every key: the same circle, merely translated.
        Counter increments are therefore (nearly) key-independent, which
        is why disabling popups defeats direct key inference while the
        input-length signal of Section 5.3 survives.
        """
        rect = self._ripple_rect(char)
        layer = Layer("ripple_overlay")
        layer.add(
            DrawOp(
                rect=rect,
                coverage=0.61,  # disc area within its bounding square
                primitives=4,
                opaque=False,
                label="touch_ripple",
            )
        )
        return Scene([layer])

    def field_damage(self, app: AppSpec) -> Rect:
        return app.field_rect(self.display).inset(-4, -4).intersect(self.display.bounds)

    def status_bar_damage(self) -> Rect:
        screen = self.display.resolution
        height = int(screen.height * self.config.android.status_bar_fraction)
        return Rect(0, 0, screen.width, height)

    def animation_damage(self, state: UiState, phase: int) -> Rect:
        layer = self.animation_layer(state, phase)
        if layer is None:
            return Rect(0, 0, 0, 0)
        return layer.bounds().inset(-4, -4).intersect(self.display.bounds)

    # ------------------------------------------------------------------
    # App-switch overview scene (Section 5.2, Fig 13)
    # ------------------------------------------------------------------

    def overview_scene(self, progress: float, cards: int = 3) -> Scene:
        """One frame of the app-switch overview animation.

        The overview shows scaled app cards sliding in; every frame damages
        most of the screen, which is why the PC burst of Fig 13 dwarfs
        typing-induced changes.
        """
        if not 0.0 <= progress <= 1.0:
            raise ValueError("progress must be in [0, 1]")
        screen = self.display.resolution
        scene = Scene()
        base = Layer("overview_bg")
        base.add(solid_quad(self.display.bounds, label="overview_dim"))
        scene.push(base)
        card_layer = Layer("overview_cards")
        card_w = int(screen.width * (0.45 + 0.25 * progress))
        card_h = int(screen.height * (0.55 + 0.25 * progress))
        for i in range(cards):
            left = int(screen.width * 0.1) + i * int(card_w * 0.55)
            top = int(screen.height * 0.18)
            rect = Rect.from_size(left, top, card_w, card_h).intersect(self.display.bounds)
            card_layer.add(solid_quad(rect, label=f"card_{i}"))
            card_layer.add(
                DrawOp(
                    rect=rect.inset(12, 12),
                    coverage=0.6,
                    primitives=26,
                    textured=True,
                    label=f"card_content_{i}",
                )
            )
        scene.push(card_layer)
        return scene
