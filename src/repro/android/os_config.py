"""Device models and Android OS configurations (paper Section 7.5).

A classification model is trained per *(device model, configuration)*
pair — the paper's Fig 24 sweeps GPU models, screen resolutions, phone
models sharing a GPU, and Android OS versions.  This module defines those
axes and the resolved :class:`DeviceConfig` bundle the rest of the
simulator consumes.

Android version and vendor skin shift UI metrics slightly (status bar
height, popup corner treatment, font rendering), which changes the
absolute counter values — hence per-configuration models — without
changing their per-key separability, which is why the paper measures
near-identical accuracy across all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.android.display import Display, Resolution
from repro.android.keyboard import KeyboardSpec
from repro.android.keyboard import keyboard as _keyboard_lookup
from repro.gpu.adreno import AdrenoSpec, adreno
from repro.registry import Registry


@dataclass(frozen=True)
class AndroidVersion:
    """An Android OS release with its UI-metric fingerprint."""

    version: str
    api_level: int
    status_bar_fraction: float
    popup_style_scale: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Android {self.version}"


ANDROID_8_1 = AndroidVersion("8.1", 27, status_bar_fraction=0.030, popup_style_scale=0.96)
ANDROID_9 = AndroidVersion("9", 28, status_bar_fraction=0.030, popup_style_scale=0.98)
ANDROID_10 = AndroidVersion("10", 29, status_bar_fraction=0.032, popup_style_scale=1.00)
ANDROID_11 = AndroidVersion("11", 30, status_bar_fraction=0.034, popup_style_scale=1.02)
ANDROID_12 = AndroidVersion("12", 31, status_bar_fraction=0.036, popup_style_scale=1.05)

ANDROID_VERSIONS: Dict[str, AndroidVersion] = {
    v.version: v
    for v in (ANDROID_8_1, ANDROID_9, ANDROID_10, ANDROID_11, ANDROID_12)
}


@dataclass(frozen=True)
class PhoneModel:
    """A smartphone model from the paper's evaluation."""

    name: str
    display_name: str
    gpu: AdrenoSpec
    android: AndroidVersion
    resolution: Resolution
    refresh_rates: Tuple[int, ...] = (60,)
    vendor_ui_scale: float = 1.0
    battery_mah: int = 4000

    @property
    def battery_mwh(self) -> float:
        """Usable battery energy at a nominal 3.85 V cell voltage."""
        return self.battery_mah * 3.85


#: The phone registry: the source of truth for name → model lookup.
PHONE_REGISTRY: Registry[PhoneModel] = Registry("phone")


def register_phone(spec: PhoneModel, tags: Tuple[str, ...] = ()) -> PhoneModel:
    """Register a phone model so :func:`phone` (and the CLI, the scenario
    registry, …) can resolve it by name."""
    return PHONE_REGISTRY.register(spec, tags=tags)


_LG_V30 = register_phone(
    PhoneModel(
        name="lg_v30",
        display_name="LG V30+",
        gpu=adreno(540),
        android=ANDROID_9,
        resolution=Resolution.QHD_PLUS,
        vendor_ui_scale=0.99,
        battery_mah=3300,
    ),
    tags=("paper",),
)

_PIXEL_2 = register_phone(
    PhoneModel(
        name="pixel2",
        display_name="Google Pixel 2",
        gpu=adreno(540),
        android=ANDROID_10,
        resolution=Resolution.FHD_PLUS,
        vendor_ui_scale=1.00,
        battery_mah=2700,
    ),
    tags=("paper",),
)

_ONEPLUS_7_PRO = register_phone(
    PhoneModel(
        name="oneplus7pro",
        display_name="Oneplus 7 Pro",
        gpu=adreno(640),
        android=ANDROID_11,
        resolution=Resolution.QHD_PLUS,
        refresh_rates=(60, 90),
        vendor_ui_scale=1.01,
        battery_mah=4000,
    ),
    tags=("paper",),
)

_ONEPLUS_8_PRO = register_phone(
    PhoneModel(
        name="oneplus8pro",
        display_name="Oneplus 8 Pro",
        gpu=adreno(650),
        android=ANDROID_11,
        resolution=Resolution.FHD_PLUS,
        refresh_rates=(60, 120),
        vendor_ui_scale=1.01,
        battery_mah=4510,
    ),
    tags=("paper",),
)

_ONEPLUS_9 = register_phone(
    PhoneModel(
        name="oneplus9",
        display_name="Oneplus 9",
        gpu=adreno(660),
        android=ANDROID_11,
        resolution=Resolution.FHD_PLUS,
        refresh_rates=(60, 120),
        vendor_ui_scale=1.01,
        battery_mah=4500,
    ),
    tags=("paper",),
)

_GALAXY_S21 = register_phone(
    PhoneModel(
        name="galaxy_s21",
        display_name="Samsung Galaxy S21",
        gpu=adreno(660),
        android=ANDROID_11,
        resolution=Resolution.FHD_PLUS,
        refresh_rates=(60, 120),
        vendor_ui_scale=1.02,
        battery_mah=4000,
    ),
    tags=("paper",),
)

#: Phones of the paper's Section 7.5 experiments.  A historical snapshot:
#: lookups go through :data:`PHONE_REGISTRY`.
PHONE_MODELS: Dict[str, PhoneModel] = {
    phone.name: phone
    for phone in (
        _LG_V30,
        _PIXEL_2,
        _ONEPLUS_7_PRO,
        _ONEPLUS_8_PRO,
        _ONEPLUS_9,
        _GALAXY_S21,
    )
}

def phone(name: str) -> PhoneModel:
    """Resolve a phone model by registry name.

    Raises:
        repro.registry.UnknownNameError: (a ``KeyError``) for unknown
            names, with the known set and a closest-match suggestion.
    """
    return PHONE_REGISTRY.get(name)


@dataclass(frozen=True)
class DeviceConfig:
    """A fully resolved victim device configuration.

    This is the unit the paper trains one classification model for: the
    same phone with a different keyboard or resolution counts as a
    different configuration (Section 3.2).  Every configuration renders
    the dark theme, so its model key always ends in ``dark``.
    """

    phone: PhoneModel
    keyboard: KeyboardSpec = _keyboard_lookup("gboard")
    resolution: Resolution = None  # type: ignore[assignment]
    refresh_rate_hz: int = 0
    android: AndroidVersion = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.resolution is None:
            object.__setattr__(self, "resolution", self.phone.resolution)
        if not self.refresh_rate_hz:
            object.__setattr__(self, "refresh_rate_hz", self.phone.refresh_rates[0])
        if self.android is None:
            object.__setattr__(self, "android", self.phone.android)

    @property
    def gpu(self) -> AdrenoSpec:
        return self.phone.gpu

    @property
    def display(self) -> Display:
        return Display(resolution=self.resolution, refresh_rate_hz=self.refresh_rate_hz)

    @property
    def ui_scale(self) -> float:
        """Combined vendor + OS-version scaling of popup/label metrics."""
        return self.phone.vendor_ui_scale * self.android.popup_style_scale

    def config_key(self) -> str:
        """Stable identifier for the model store (Section 3.2)."""
        return "/".join(
            (
                self.phone.name,
                f"android{self.android.version}",
                self.resolution.name.lower(),
                f"{self.refresh_rate_hz}hz",
                self.keyboard.name,
                "dark",
            )
        )

    def with_android(self, version: str) -> "DeviceConfig":
        return replace(self, android=ANDROID_VERSIONS[version])


def default_config(**overrides) -> DeviceConfig:
    """The paper's workhorse setup: Oneplus 8 Pro + Gboard + FHD+ @60 Hz."""
    return replace(DeviceConfig(phone=_ONEPLUS_8_PRO), **overrides) if overrides else DeviceConfig(phone=_ONEPLUS_8_PRO)
