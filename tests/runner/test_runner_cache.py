"""Unit tests for the on-disk shard result cache."""

import json

import pytest

from repro.runner.cache import ResultCache, canonical_params, default_cache_root


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path, version="test-1")


class TestCanonicalParams:
    def test_key_order_does_not_matter(self):
        assert canonical_params({"b": 2, "a": 1}) == canonical_params(
            {"a": 1, "b": 2}
        )

    def test_nested_structures_stable(self):
        a = canonical_params({"mix": {"y": 0.2, "x": 0.8}, "n": 3})
        b = canonical_params({"n": 3, "mix": {"x": 0.8, "y": 0.2}})
        assert a == b


class TestResultCache:
    def test_roundtrip(self, cache):
        params = {"seed": 7, "chunk": 3}
        cache.put("exp", params, {"total": 11})
        assert cache.get("exp", params) == {"total": 11}
        assert cache.hits == 1 and cache.stores == 1

    def test_miss_returns_default(self, cache):
        assert cache.get("exp", {"seed": 1}, default="nope") == "nope"
        assert cache.misses == 1

    def test_params_distinguish_entries(self, cache):
        cache.put("exp", {"seed": 1}, "one")
        cache.put("exp", {"seed": 2}, "two")
        assert cache.get("exp", {"seed": 1}) == "one"
        assert cache.get("exp", {"seed": 2}) == "two"

    def test_experiments_namespaced(self, cache):
        cache.put("alpha", {"seed": 1}, "a")
        assert cache.get("beta", {"seed": 1}) is None

    def test_version_mismatch_is_miss(self, tmp_path):
        old = ResultCache(root=tmp_path, version="v1")
        old.put("exp", {"seed": 1}, "stale")
        new = ResultCache(root=tmp_path, version="v2")
        assert new.get("exp", {"seed": 1}) is None

    def test_corrupt_file_is_miss(self, cache):
        params = {"seed": 9}
        path = cache.put("exp", params, "ok")
        path.write_text("{truncated", encoding="utf-8")
        assert cache.get("exp", params) is None

    def test_corrupt_file_quarantined_and_counted(self, cache):
        params = {"seed": 9}
        path = cache.put("exp", params, "ok")
        path.write_text("{truncated", encoding="utf-8")
        assert cache.get("exp", params) is None
        assert cache.corrupt == 1
        assert not path.exists()
        quarantined = path.with_suffix(path.suffix + ".corrupt")
        assert quarantined.exists()
        assert quarantined.read_text(encoding="utf-8") == "{truncated"

    def test_quarantined_entry_not_reparsed(self, cache):
        params = {"seed": 9}
        path = cache.put("exp", params, "ok")
        path.write_text("not json", encoding="utf-8")
        cache.get("exp", params)
        assert cache.get("exp", params) is None  # plain miss the 2nd time
        assert cache.corrupt == 1

    def test_wrong_structure_quarantined(self, cache):
        params = {"seed": 9}
        path = cache.put("exp", params, "ok")
        path.write_text('["valid json, wrong shape"]', encoding="utf-8")
        assert cache.get("exp", params) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_corrupt_event_logged(self, cache, caplog):
        import logging

        params = {"seed": 9}
        path = cache.put("exp", params, "ok")
        path.write_text("xx", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
            cache.get("exp", params)
        assert any("cache_corrupt" in rec.message for rec in caplog.records)

    def test_version_mismatch_not_quarantined(self, tmp_path):
        old = ResultCache(root=tmp_path, version="v1")
        path = old.put("exp", {"seed": 1}, "stale")
        new = ResultCache(root=tmp_path, version="v2")
        assert new.get("exp", {"seed": 1}) is None
        assert new.corrupt == 0
        assert path.exists()  # healthy file from other code, left alone

    def test_missing_file_not_quarantined(self, cache):
        assert cache.get("exp", {"seed": 404}) is None
        assert cache.corrupt == 0

    def test_rewritten_entry_usable_after_quarantine(self, cache):
        params = {"seed": 9}
        path = cache.put("exp", params, "ok")
        path.write_text("xx", encoding="utf-8")
        cache.get("exp", params)
        cache.put("exp", params, "fresh")
        assert cache.get("exp", params) == "fresh"

    def test_entry_file_is_inspectable_json(self, cache):
        path = cache.put("exp", {"seed": 4}, [1, 2])
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["experiment"] == "exp"
        assert document["params"] == {"seed": 4}
        assert document["value"] == [1, 2]

    def test_clear_one_experiment(self, cache):
        cache.put("alpha", {"s": 1}, 1)
        cache.put("beta", {"s": 1}, 2)
        assert cache.clear("alpha") == 1
        assert cache.get("alpha", {"s": 1}) is None
        assert cache.get("beta", {"s": 1}) == 2

    def test_clear_all(self, cache):
        cache.put("alpha", {"s": 1}, 1)
        cache.put("beta", {"s": 1}, 2)
        assert cache.clear() == 2

    def test_no_leftover_temp_files(self, cache, tmp_path):
        cache.put("exp", {"seed": 1}, "v")
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_write_leaves_no_entry_and_no_temp_file(self, cache, tmp_path):
        with pytest.raises(TypeError):
            cache.put("exp", {"seed": 1}, object())
        assert not list(tmp_path.rglob("*.tmp"))
        assert cache.stores == 0
        assert cache.get("exp", {"seed": 1}, default="miss") == "miss"
        assert cache.corrupt == 0

    def test_clear_without_a_root_removes_nothing(self, tmp_path):
        cache = ResultCache(root=tmp_path / "never-created", version="v")
        assert cache.clear() == 0
        assert cache.clear("exp") == 0

    def test_repr_reports_counters(self, cache, tmp_path):
        cache.put("exp", {"seed": 1}, "v")
        cache.get("exp", {"seed": 1})
        cache.get("exp", {"seed": 2})
        assert repr(cache) == (
            f"ResultCache(root={str(tmp_path)!r}, version='test-1', "
            "hits=1, misses=1, corrupt=0)"
        )


class TestDefaultRoot:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_root() == tmp_path / "custom"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_root().name == "repro-greylisting"
