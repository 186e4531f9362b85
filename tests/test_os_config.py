"""Tests for device models and configurations."""

import pytest

from repro.android.display import Resolution
from repro.android.keyboard import keyboard
from repro.android.os_config import (
    ANDROID_VERSIONS,
    DeviceConfig,
    PHONE_MODELS,
    default_config,
    phone,
)


class TestPhones:
    def test_six_phones_from_section75(self):
        assert sorted(PHONE_MODELS) == [
            "galaxy_s21",
            "lg_v30",
            "oneplus7pro",
            "oneplus8pro",
            "oneplus9",
            "pixel2",
        ]

    def test_gpu_assignments_match_paper(self):
        assert phone("lg_v30").gpu.model == 540
        assert phone("pixel2").gpu.model == 540
        assert phone("oneplus7pro").gpu.model == 640
        assert phone("oneplus8pro").gpu.model == 650
        assert phone("oneplus9").gpu.model == 660
        assert phone("galaxy_s21").gpu.model == 660

    def test_android_versions_match_paper(self):
        assert phone("lg_v30").android.version == "9"
        assert phone("pixel2").android.version == "10"
        assert phone("oneplus8pro").android.version == "11"

    def test_unknown_phone_rejected(self):
        with pytest.raises(KeyError):
            phone("iphone")

    def test_battery_energy(self):
        assert phone("oneplus8pro").battery_mwh == pytest.approx(4510 * 3.85)


class TestAndroidVersions:
    def test_versions_covered_by_fig24d(self):
        for version in ("8.1", "9", "10", "11"):
            assert version in ANDROID_VERSIONS

    def test_ui_metrics_differ_across_versions(self):
        scales = {v.popup_style_scale for v in ANDROID_VERSIONS.values()}
        assert len(scales) == len(ANDROID_VERSIONS)


class TestDeviceConfig:
    def test_defaults_resolve_from_phone(self):
        config = DeviceConfig(phone=phone("oneplus8pro"))
        assert config.resolution is Resolution.FHD_PLUS
        assert config.refresh_rate_hz == 60
        assert config.android.version == "11"

    def test_default_config_is_paper_workhorse(self):
        config = default_config()
        assert config.phone.name == "oneplus8pro"
        assert config.keyboard.name == "gboard"

    def test_overrides(self):
        config = default_config(keyboard=keyboard("sogou"), refresh_rate_hz=120)
        assert config.keyboard.name == "sogou"
        assert config.refresh_rate_hz == 120

    def test_config_key_distinguishes_configurations(self):
        a = default_config()
        b = default_config(keyboard=keyboard("sogou"))
        c = default_config(refresh_rate_hz=120)
        d = default_config(resolution=Resolution.QHD_PLUS)
        keys = {x.config_key() for x in (a, b, c, d)}
        assert len(keys) == 4

    def test_with_android(self):
        config = default_config().with_android("9")
        assert config.android.version == "9"
        assert "android9" in config.config_key()

    def test_ui_scale_combines_vendor_and_os(self):
        config = default_config()
        expected = config.phone.vendor_ui_scale * config.android.popup_style_scale
        assert config.ui_scale == pytest.approx(expected)

    def test_display_property(self):
        config = default_config(refresh_rate_hz=120)
        assert config.display.refresh_rate_hz == 120
        assert config.gpu.model == 650
