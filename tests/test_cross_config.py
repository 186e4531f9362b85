"""Parametrized cross-configuration grid tests.

The per-configuration model premise (Section 3.2) only holds if the
substrate behaves sanely on *every* configuration: every keyboard on
every resolution lays out correctly, every GPU model renders every scene
with consistent invariants, and signatures genuinely differ across
configurations (or per-config models would be pointless).
"""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.display import Display, Resolution
from repro.android.events import KeyPress
from repro.android.keyboard import KEYBOARDS, KeyboardLayout
from repro.android.os_config import PHONE_MODELS, DeviceConfig, default_config
from repro.android.scenes import SceneBuilder, UiState
from repro.gpu import counters as pc
from repro.gpu.adreno import ADRENO_MODELS, adreno
from repro.gpu.pipeline import AdrenoPipeline


@pytest.mark.parametrize("keyboard_name", sorted(KEYBOARDS))
@pytest.mark.parametrize("resolution", list(Resolution))
class TestKeyboardResolutionGrid:
    def test_layout_fits_display(self, keyboard_name, resolution):
        display = Display(resolution=resolution)
        layout = KeyboardLayout(KEYBOARDS[keyboard_name], display)
        for char in "qwertyuiopasdfghjklzxcvbnm1234567890,.":
            geo = layout.key(char)
            assert display.bounds.contains(geo.key_rect)
            assert display.bounds.contains(geo.popup_rect)

    def test_popup_scene_renders_nonzero(self, keyboard_name, resolution):
        config = default_config(
            keyboard=KEYBOARDS[keyboard_name], resolution=resolution
        )
        builder = SceneBuilder(config)
        pipeline = AdrenoPipeline(config.gpu)
        state = UiState(app=app("chase")).with_popup("g")
        scene = builder.damage_scene(state, builder.popup_damage("g"))
        stats = pipeline.render(scene)
        assert stats.increment.get(pc.VPC_PC_PRIMITIVES) > 0
        assert stats.increment.get(pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ) > 0


@pytest.mark.parametrize("model", sorted(ADRENO_MODELS))
class TestGpuGrid:
    def test_press_renders_consistently(self, model, config):
        pipeline = AdrenoPipeline(adreno(model))
        builder = SceneBuilder(config)
        state = UiState(app=app("chase")).with_popup("w")
        scene = builder.damage_scene(state, builder.popup_damage("w"))
        stats = pipeline.render(scene)
        # primitives are GPU-independent; tile counts are not
        base = AdrenoPipeline(adreno(650)).render(scene)
        assert stats.increment.get(pc.VPC_PC_PRIMITIVES) == base.increment.get(
            pc.VPC_PC_PRIMITIVES
        )
        assert stats.increment.get(pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ) == base.increment.get(
            pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ
        )

    def test_supertile_counts_scale_with_bin_size(self, model, config):
        pipeline = AdrenoPipeline(adreno(model))
        builder = SceneBuilder(config)
        state = UiState(app=app("chase")).with_popup("w")
        scene = builder.damage_scene(state, builder.popup_damage("w"))
        supertiles = pipeline.render(scene).increment.get(pc.RAS_SUPER_TILES)
        assert supertiles > 0


@pytest.mark.parametrize("phone_name", sorted(PHONE_MODELS))
class TestPhoneGrid:
    def test_device_compiles_a_session(self, phone_name):
        config = DeviceConfig(phone=PHONE_MODELS[phone_name])
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(0))
        trace = device.compile([KeyPress(t=0.6, char="a")], end_time_s=1.5)
        labels = [f.label for f in trace.timeline.frames]
        assert "press:a" in labels
        assert any(l.startswith("echo:") for l in labels)

    def test_config_key_is_unique(self, phone_name):
        keys = {
            DeviceConfig(phone=spec).config_key() for spec in PHONE_MODELS.values()
        }
        assert len(keys) == len(PHONE_MODELS)


class TestSignaturesDifferAcrossConfigs:
    """Per-config models exist because absolute values shift with the
    configuration; verify the shift is real."""

    def _press_total(self, config, char="w"):
        builder = SceneBuilder(config)
        pipeline = AdrenoPipeline(config.gpu)
        state = UiState(app=app("chase")).with_popup(char)
        scene = builder.damage_scene(state, builder.popup_damage(char))
        return pipeline.render(scene).increment.total

    def test_resolution_changes_signatures(self):
        fhd = self._press_total(default_config(resolution=Resolution.FHD_PLUS))
        qhd = self._press_total(default_config(resolution=Resolution.QHD_PLUS))
        assert abs(fhd - qhd) / max(fhd, qhd) > 0.1

    def test_keyboard_changes_signatures(self):
        a = self._press_total(default_config(keyboard=KEYBOARDS["gboard"]))
        b = self._press_total(default_config(keyboard=KEYBOARDS["sogou"]))
        assert a != b

    def test_android_version_changes_signatures(self):
        a = self._press_total(default_config().with_android("8.1"))
        b = self._press_total(default_config().with_android("11"))
        assert a != b

    def test_same_config_same_signature(self):
        a = self._press_total(default_config())
        b = self._press_total(default_config())
        assert a == b
