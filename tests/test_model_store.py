"""Tests for the preloaded model store."""

import numpy as np
import pytest

from repro.core import features
from repro.core.classifier import ClassificationModel
from repro.core.model_store import ModelStore


def model(key, offset=0.0):
    return ClassificationModel(
        labels=["key:a", "key:b"],
        centroids=np.vstack(
            [np.full(features.DIMENSIONS, 1.0 + offset), np.full(features.DIMENSIONS, 2.0 + offset)]
        ),
        scale=np.ones(features.DIMENSIONS),
        cth=1.0,
        model_key=key,
    )


class TestStore:
    def test_add_and_get(self):
        store = ModelStore()
        store.add(model("a/chase"))
        assert store.get("a/chase").model_key == "a/chase"

    def test_unknown_key_raises(self):
        store = ModelStore()
        with pytest.raises(KeyError):
            store.get("nope")

    def test_unkeyed_model_rejected(self):
        store = ModelStore()
        with pytest.raises(ValueError):
            store.add(model(""))

    def test_contains_len_iter(self):
        store = ModelStore()
        store.add(model("x"))
        store.add(model("y"))
        assert "x" in store and "z" not in store
        assert len(store) == 2
        assert {m.model_key for m in store} == {"x", "y"}

    def test_duplicate_key_replaces(self):
        store = ModelStore()
        store.add(model("x"))
        store.add(model("x", offset=5.0))
        assert len(store) == 1
        assert store.get("x").centroids[0, 0] == 6.0

    def test_keys_sorted(self):
        store = ModelStore()
        for key in ("b", "a", "c"):
            store.add(model(key))
        assert store.keys() == ["a", "b", "c"]


class TestSizes:
    def test_total_and_average(self):
        store = ModelStore()
        store.add(model("x"))
        store.add(model("y"))
        assert store.total_size_bytes() > 0
        assert store.average_size_bytes() == pytest.approx(store.total_size_bytes() / 2)

    def test_empty_average_is_zero(self):
        assert ModelStore().average_size_bytes() == 0.0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        store = ModelStore()
        store.add(model("cfg1/chase"))
        store.add(model("cfg2/amex", offset=3.0))
        path = tmp_path / "models.json"
        store.save(path)
        loaded = ModelStore.load(path)
        assert loaded.keys() == store.keys()
        assert np.allclose(
            loaded.get("cfg2/amex").centroids, store.get("cfg2/amex").centroids
        )

    def test_loaded_model_classifies(self, tmp_path, chase_model):
        store = ModelStore()
        store.add(chase_model)
        path = tmp_path / "m.json"
        store.save(path)
        loaded = ModelStore.load(path).get(chase_model.model_key)
        centroid = chase_model.centroid("key:w")
        assert loaded.classify_vector(centroid).label == "key:w"


class TestIntegrity:
    def _saved(self, tmp_path):
        store = ModelStore()
        store.add(model("cfg1/chase"))
        path = tmp_path / "models.json"
        store.save(path)
        return store, path

    def test_envelope_schema_and_checksum(self, tmp_path):
        import json

        from repro.core.model_store import STORE_SCHEMA

        _, path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        assert document["schema"] == STORE_SCHEMA
        assert "checksum" in document and "payload" in document

    def test_checksum_mismatch_raises(self, tmp_path):
        from repro.core.model_store import ModelIntegrityError

        _, path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        # flip one digit inside a centroid value
        idx = raw.index(b"1.0")
        raw[idx] = ord(b"9")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelIntegrityError, match="checksum mismatch"):
            ModelStore.load(path)

    def test_truncated_file_raises(self, tmp_path):
        from repro.core.model_store import ModelIntegrityError

        _, path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelIntegrityError, match="truncated|checksum"):
            ModelStore.load(path)

    def test_missing_file_raises_integrity_error(self, tmp_path):
        from repro.core.model_store import ModelIntegrityError

        with pytest.raises(ModelIntegrityError, match="cannot read"):
            ModelStore.load(tmp_path / "nope.json")

    def test_unknown_schema_raises(self, tmp_path):
        import json

        from repro.core.model_store import ModelIntegrityError

        legacy = ModelStore()
        legacy.add(model("cfg1/chase"))
        documents = [
            {"schema": "repro.model_store/99"},
            # a pre-envelope dump (bare {"models": [...]}) is not a store
            legacy.to_dict(),
        ]
        for document in documents:
            path = tmp_path / "weird.json"
            path.write_text(json.dumps(document))
            with pytest.raises(ModelIntegrityError, match="unknown model store schema"):
                ModelStore.load(path)

    def test_version_and_lineage_roundtrip(self, tmp_path):
        store = ModelStore()
        store.add(model("cfg1/chase"))
        store.version = 7
        store.lineage = {"reason": "test"}
        path = tmp_path / "v.json"
        store.save(path)
        loaded = ModelStore.load(path)
        assert loaded.version == 7
        assert loaded.lineage == {"reason": "test"}


class TestVersionedStore:
    def _store(self, key="cfg1/chase", offset=0.0):
        s = ModelStore()
        s.add(model(key, offset=offset))
        return s

    def test_versions_are_monotonic(self, tmp_path):
        from repro.core.model_store import VersionedModelStore

        versioned = VersionedModelStore(tmp_path / "store")
        assert versioned.latest_version() is None
        assert versioned.save(self._store()) == 1
        assert versioned.save(self._store(offset=1.0)) == 2
        assert versioned.save(self._store(offset=2.0)) == 3
        assert versioned.versions() == [1, 2, 3]
        assert len(versioned) == 3

    def test_concurrent_save_collision_takes_next_version(self, tmp_path):
        from repro.core.model_store import VersionedModelStore

        versioned = VersionedModelStore(tmp_path / "store")
        versioned.save(self._store())
        # simulate a concurrent writer that already created v2
        (tmp_path / "store" / "v00002.json").write_text("{}")
        assert versioned.save(self._store(offset=1.0)) == 3

    def test_load_by_version_and_latest(self, tmp_path):
        from repro.core.model_store import VersionedModelStore

        versioned = VersionedModelStore(tmp_path / "store")
        versioned.save(self._store(offset=0.0), lineage={"reason": "offline"})
        versioned.save(self._store(offset=5.0), lineage={"reason": "refit"})
        v1 = versioned.load(1)
        v2 = versioned.load_latest()
        assert v1.version == 1 and v1.lineage == {"reason": "offline"}
        assert v2.version == 2 and v2.lineage == {"reason": "refit"}
        assert v2.get("cfg1/chase").centroids[0, 0] == 6.0

    def test_load_missing_version_raises(self, tmp_path):
        from repro.core.model_store import ModelIntegrityError, VersionedModelStore

        versioned = VersionedModelStore(tmp_path / "store")
        with pytest.raises(ModelIntegrityError, match="no versions"):
            versioned.load_latest()
        versioned.save(self._store())
        with pytest.raises(ModelIntegrityError, match="no version 9"):
            versioned.load(9)

    def test_manifest_records_lineage(self, tmp_path):
        from repro.core.model_store import STORE_DIR_SCHEMA, VersionedModelStore

        versioned = VersionedModelStore(tmp_path / "store")
        versioned.save(self._store(), lineage={"device_id": "d0"})
        manifest = versioned.manifest()
        assert manifest["schema"] == STORE_DIR_SCHEMA
        assert manifest["latest"] == 1
        assert versioned.lineage_of(1) == {"device_id": "d0"}
        with pytest.raises(KeyError):
            versioned.lineage_of(2)

    def test_swapped_file_detected_by_manifest(self, tmp_path):
        from repro.core.model_store import ModelIntegrityError, VersionedModelStore

        versioned = VersionedModelStore(tmp_path / "store")
        versioned.save(self._store(offset=0.0))
        versioned.save(self._store(offset=5.0))
        # swap v2's (validly checksummed) file in as v1: the per-file
        # checksum still passes, but the envelope claims version 2
        v2_bytes = (tmp_path / "store" / "v00002.json").read_bytes()
        (tmp_path / "store" / "v00001.json").write_bytes(v2_bytes)
        with pytest.raises(ModelIntegrityError, match="claims version"):
            versioned.load(1)

    def test_tampered_manifest_checksum_detected(self, tmp_path):
        import json

        from repro.core.model_store import ModelIntegrityError, VersionedModelStore

        versioned = VersionedModelStore(tmp_path / "store")
        versioned.save(self._store())
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["versions"][0]["checksum"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ModelIntegrityError, match="manifest checksum"):
            versioned.load(1)
