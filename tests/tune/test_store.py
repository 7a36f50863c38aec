"""TuneStore persistence and fingerprinting tests."""

import json

import pytest

from repro.errors import ConfigError
from repro.hw.config import ASCEND_910B4, toy_config
from repro.tune import STORE_VERSION, TunedEntry, TuneStore, config_fingerprint


def entry(ns=1000.0, **kw):
    kw.setdefault("algorithm", "mcscan")
    kw.setdefault("s", 64)
    kw.setdefault("block_dim", None)
    kw.setdefault("layout", "1d")
    kw.setdefault("default_ns", 2000.0)
    return TunedEntry(tuned_ns=ns, **kw)


class TestFingerprint:
    def test_deterministic(self):
        assert config_fingerprint(ASCEND_910B4) == config_fingerprint(ASCEND_910B4)

    def test_distinguishes_configs(self):
        assert config_fingerprint(ASCEND_910B4) != config_fingerprint(toy_config())


class TestRecordLookup:
    def test_lookup_roundtrip_and_counters(self):
        store = TuneStore(ASCEND_910B4)
        store.record("1d:4096:fp16:i", entry())
        assert store.lookup_1d(n=4096, dtype="fp16") == entry()
        assert store.lookup_1d(n=4096, dtype="fp16", exclusive=True) is None
        assert store.lookup_1d(n=8192, dtype="fp16") is None
        assert store.lookup_hits == 1
        assert store.lookup_misses == 2
        assert len(store) == 1

    def test_record_keeps_better_entry(self):
        store = TuneStore(ASCEND_910B4)
        store.record("k", entry(1000.0))
        store.record("k", entry(1500.0))  # worse: ignored
        assert store.entries["k"].tuned_ns == 1000.0
        store.record("k", entry(500.0))  # better: replaces
        assert store.entries["k"].tuned_ns == 500.0

    def test_speedup(self):
        assert entry(1000.0, default_ns=3000.0).speedup == 3.0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        store = TuneStore(ASCEND_910B4)
        store.record("1d:4096:fp16:i", entry(block_dim=8))
        path = store.save(str(tmp_path / "sub" / "tuned.json"))
        loaded = TuneStore.load(path, ASCEND_910B4)
        assert not loaded.invalidated
        assert loaded.entries == store.entries
        assert loaded.entries["1d:4096:fp16:i"].block_dim == 8

    def test_missing_file_is_empty_not_invalidated(self, tmp_path):
        loaded = TuneStore.load(str(tmp_path / "absent.json"), ASCEND_910B4)
        assert len(loaded) == 0
        assert not loaded.invalidated

    def test_foreign_fingerprint_invalidates(self, tmp_path):
        store = TuneStore(ASCEND_910B4)
        store.record("k", entry())
        path = store.save(str(tmp_path / "tuned.json"))
        loaded = TuneStore.load(path, toy_config())
        assert len(loaded) == 0
        assert loaded.invalidated

    def test_version_bump_invalidates(self, tmp_path):
        store = TuneStore(ASCEND_910B4)
        store.record("k", entry())
        path = store.save(str(tmp_path / "tuned.json"))
        payload = json.loads(open(path).read())
        payload["version"] = STORE_VERSION + 1
        with open(path, "w") as f:
            json.dump(payload, f)
        loaded = TuneStore.load(path, ASCEND_910B4)
        assert len(loaded) == 0
        assert loaded.invalidated

    def test_corrupt_file_invalidates(self, tmp_path):
        path = tmp_path / "tuned.json"
        path.write_text("{not json")
        loaded = TuneStore.load(str(path), ASCEND_910B4)
        assert len(loaded) == 0
        assert loaded.invalidated

    def test_save_without_path_rejected(self):
        with pytest.raises(ConfigError):
            TuneStore(ASCEND_910B4).save()
