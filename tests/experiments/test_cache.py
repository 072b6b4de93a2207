"""Tests for the persistent on-disk run cache."""

import dataclasses
import enum
import errno
import hashlib
import json
import warnings

import pytest

from repro.experiments import cache as cache_module
from repro.experiments.cache import (
    MODEL_FINGERPRINT,
    CacheDegradedWarning,
    RunCache,
    cache_from_env,
    default_cache_dir,
    run_key,
)
from repro.experiments.runner import (
    RunScale,
    clear_cache,
    execute_run,
    run_design,
    set_cache,
)
from repro.kernels.serialize import RESULT_FORMAT_VERSION

TINY = RunScale(num_warps=2, trace_scale=0.1)


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    previous = set_cache(None)
    yield
    set_cache(previous)
    clear_cache()


@pytest.fixture
def cache(tmp_path):
    return RunCache(tmp_path / "runs")


class TestRunKey:
    def test_deterministic(self):
        assert (run_key("BFS", "bow", 3, TINY)
                == run_key("bfs", "bow", 3, TINY))

    def test_distinguishes_every_axis(self):
        base = run_key("BFS", "bow", 3, TINY)
        assert run_key("NW", "bow", 3, TINY) != base
        assert run_key("BFS", "bow-wb", 3, TINY) != base
        assert run_key("BFS", "bow", 4, TINY) != base
        assert run_key("BFS", "bow", 3,
                       RunScale(num_warps=3, trace_scale=0.1)) != base
        assert run_key("BFS", "bow", 3,
                       RunScale(num_warps=2, trace_scale=0.2)) != base
        assert run_key("BFS", "bow", 3,
                       RunScale(num_warps=2, trace_scale=0.1,
                                memory_seed=8)) != base

    def test_machine_config_invalidates(self):
        from repro.config import GPUConfig

        assert (run_key("BFS", "bow", 3, TINY,
                        config=GPUConfig(mem_global_latency=400))
                != run_key("BFS", "bow", 3, TINY))


def _oracle_jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {item.name: _oracle_jsonable(getattr(value, item.name))
                for item in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_oracle_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _oracle_jsonable(val)
                for key, val in sorted(value.items())}
    return value


def _oracle_key(benchmark, design, window_size, scale, config=None):
    """The original ``run_key`` formula: one ``json.dumps`` of the whole
    payload.  Keys must stay byte-identical to it, or every existing
    cache directory goes cold."""
    from repro.config import GPUConfig
    from repro.kernels.suites import get_profile

    profile = get_profile(benchmark)
    payload = {
        "schema": MODEL_FINGERPRINT,
        "benchmark": profile.name,
        "profile": _oracle_jsonable(profile.spec),
        "design": design,
        "window": window_size,
        "scale": _oracle_jsonable(scale),
        "gpu": _oracle_jsonable(config or GPUConfig()),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestRunKeyBytes:
    """``run_key`` encodes each frozen part once and reuses its text;
    the digests must not change."""

    def test_literal_pin(self):
        from repro.experiments.runner import QUICK

        assert run_key("SAD", "bow", 3, QUICK) == (
            "8d8ac2805004be0051df710bdd8beecbda2516bda0dd531b118686d4c72c15c0"
        )

    def test_matches_whole_payload_formula(self):
        from repro.config import GPUConfig, SchedulerPolicy
        from repro.core.designs import design_names
        from repro.experiments.runner import DEVICE_QUICK, FULL, QUICK
        from repro.kernels.suites import benchmark_names

        scales = [QUICK, FULL, DEVICE_QUICK] + [
            RunScale(4, 0.1, seed) for seed in (0, 7, 2027, 123456)
        ]
        checked = 0
        for bench in benchmark_names():
            for design in design_names():
                for window in (0, 1, 2, 3, 4, 7):
                    for scale in scales:
                        assert (run_key(bench, design, window, scale)
                                == _oracle_key(bench, design, window, scale))
                        checked += 1
        assert checked == 15 * len(design_names()) * 6 * len(scales)
        custom = GPUConfig(mem_global_latency=400, crossbar_width=2,
                           scheduler_policy=SchedulerPolicy.LRR,
                           mem_l1_hit_rate=0.25)
        for bench in ("SAD", "bfs"):
            assert (run_key(bench, "bow-wr", 3, TINY, config=custom)
                    == _oracle_key(bench, "bow-wr", 3, TINY, config=custom))

    def test_memo_grows_with_values_not_points(self):
        from repro.config import GPUConfig

        run_key("SAD", "bow", 3, TINY)
        run_key("SAD", "bow", 3, TINY, config=GPUConfig(alu_latency=5))
        sizes = (len(cache_module._TEXT_BY_VALUE),
                 len(cache_module._TEXT_BY_ID))
        keys = {run_key("SAD", "bow", 3, RunScale(4, 0.1, seed))
                for seed in range(1000)}
        assert len(keys) == 1000
        # A fresh but equal config is found by value, not re-encoded.
        run_key("SAD", "bow", 3, TINY, config=GPUConfig(alu_latency=5))
        run_key("SAD", "bow", 3, TINY, config=GPUConfig())
        assert (len(cache_module._TEXT_BY_VALUE),
                len(cache_module._TEXT_BY_ID)) == sizes


class TestRunCache:
    def test_miss_then_hit_round_trip(self, cache):
        result = execute_run("BFS", "baseline", scale=TINY)
        key = run_key("BFS", "baseline", 0, TINY)
        assert cache.get(key) is None
        cache.put(key, result)
        fetched = cache.get(key)
        assert fetched == result
        assert fetched is not result
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.bytes_written > 0
        assert cache.stats.bytes_read == cache.stats.bytes_written

    def test_contains_and_entry_count(self, cache):
        result = execute_run("BFS", "baseline", scale=TINY)
        key = run_key("BFS", "baseline", 0, TINY)
        assert key not in cache
        cache.put(key, result)
        assert key in cache
        assert cache.entry_count() == 1
        assert cache.clear() == 1
        assert cache.entry_count() == 0

    def test_corrupt_entry_is_a_counted_miss(self, cache):
        result = execute_run("BFS", "baseline", scale=TINY)
        key = run_key("BFS", "baseline", 0, TINY)
        cache.put(key, result)
        cache._path(key).write_text("corrupt {")
        assert cache.get(key) is None
        assert cache.stats.errors == 1
        assert key not in cache  # dropped, will be re-stored

    def test_model_fingerprint_embedded_in_layout(self, cache):
        result = execute_run("BFS", "baseline", scale=TINY)
        key = run_key("BFS", "baseline", 0, TINY)
        cache.put(key, result)
        parts = cache._path(key).parts
        assert parts[-4] == MODEL_FINGERPRINT
        assert parts[-3] == f"r{RESULT_FORMAT_VERSION}"
        assert parts[-2] == key[:2]

    def test_entry_of_the_old_format_is_a_plain_miss(self, cache):
        """A format-1 entry at its own path (no format directory), as
        an older checkout sharing the root leaves it, is neither served
        nor counted as an error, and stays on disk for that checkout."""
        result = execute_run("BFS", "baseline", scale=TINY)
        key = run_key("BFS", "baseline", 0, TINY)
        planted = cache.root / MODEL_FINGERPRINT / key[:2] / f"{key}.json"
        planted.parent.mkdir(parents=True)
        planted.write_text(json.dumps({
            "version": 1,
            "counters": result.counters.as_dict(),
            "registers": [[w, r, v] for (w, r), v
                          in sorted(result.register_image.items())],
            "memory": [[a, v] for a, v
                       in sorted(result.memory_image.items())],
        }))
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert cache.stats.errors == 0
        assert planted.is_file()
        assert cache.entry_count() == 0

    def test_entry_of_another_format_misses(self, cache, monkeypatch):
        """A run stored under another payload-format version is a
        clean miss once the version changes, and is left in place."""
        result = execute_run("BFS", "baseline", scale=TINY)
        key = run_key("BFS", "baseline", 0, TINY)
        with monkeypatch.context() as patched:
            patched.setattr(cache_module, "RESULT_FORMAT_VERSION",
                            RESULT_FORMAT_VERSION + 1)
            cache.put(key, result)
            other = cache._path(key)
        assert cache.get(key) is None
        assert cache.stats.errors == 0
        assert other.is_file()

    def test_entry_of_another_model_misses(self, cache, monkeypatch):
        """A run stored under an older model's fingerprint is never
        served once the fingerprint changes."""
        result = execute_run("BFS", "baseline", scale=TINY)
        with monkeypatch.context() as patched:
            patched.setattr(cache_module, "MODEL_FINGERPRINT", "0" * 64)
            old_key = run_key("BFS", "baseline", 0, TINY)
            cache.put(old_key, result)
            assert cache.get(old_key) == result
        key = run_key("BFS", "baseline", 0, TINY)
        assert key != old_key
        assert cache.get(key) is None
        assert cache.entry_count() == 0

    def test_clear_removes_empty_fanout_dirs(self, cache):
        result = execute_run("BFS", "baseline", scale=TINY)
        for design in ("baseline", "bow", "bow-wr"):
            cache.put(run_key("BFS", design, 0, TINY), result)
        assert cache.clear() == 3
        versioned = cache.root / MODEL_FINGERPRINT
        assert list(versioned.iterdir()) == []  # no skeleton left

    def test_clear_keeps_dirs_holding_foreign_files(self, cache):
        result = execute_run("BFS", "baseline", scale=TINY)
        key = run_key("BFS", "baseline", 0, TINY)
        cache.put(key, result)
        foreign = cache._path(key).parent / "unrelated.txt"
        foreign.write_text("keep me")
        cache.clear()
        assert foreign.read_text() == "keep me"


class TestGracefulDegradation:
    """get/put never raise; repeated I/O errors self-disable the cache."""

    def entry(self, cache):
        result = execute_run("BFS", "baseline", scale=TINY)
        key = run_key("BFS", "baseline", 0, TINY)
        cache.put(key, result)
        return key

    def test_missing_entry_is_a_plain_miss(self, cache):
        assert cache.get(run_key("BFS", "baseline", 0, TINY)) is None
        assert cache.stats.misses == 1
        assert cache.stats.errors == 0
        assert cache.stats.io_errors == 0

    def test_unreadable_entry_counts_an_io_error(self, cache, monkeypatch):
        """Satellite regression: EACCES used to look identical to a
        plain miss — it must feed ``errors``/``io_errors`` instead."""
        key = self.entry(cache)
        monkeypatch.setattr(
            RunCache, "_read_text",
            lambda self, path: (_ for _ in ()).throw(
                PermissionError(errno.EACCES, "denied", str(path))))
        assert cache.get(key) is None  # swallowed
        assert cache.stats.misses == 1
        assert cache.stats.errors == 1
        assert cache.stats.io_errors == 1

    def test_failed_write_is_swallowed_and_counted(self, cache, monkeypatch):
        monkeypatch.setattr(
            RunCache, "_write_entry",
            lambda self, path, text: (_ for _ in ()).throw(
                OSError(errno.ENOSPC, "no space left on device")))
        self.entry(cache)  # must not raise
        assert cache.stats.stores == 0
        assert cache.stats.io_errors == 1
        assert not cache.disabled

    def test_self_disables_after_threshold_with_one_warning(
            self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path / "runs", error_threshold=3)
        monkeypatch.setattr(
            RunCache, "_write_entry",
            lambda self, path, text: (_ for _ in ()).throw(
                OSError(errno.ENOSPC, "no space left on device")))
        result = execute_run("BFS", "baseline", scale=TINY)
        key = run_key("BFS", "baseline", 0, TINY)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(6):
                cache.put(key, result)
        degraded = [w for w in caught
                    if issubclass(w.category, CacheDegradedWarning)]
        assert len(degraded) == 1
        assert "continuing uncached" in str(degraded[0].message)
        assert cache.disabled
        assert cache.stats.disables == 1
        # Past the threshold every call is a no-op: no further errors.
        assert cache.stats.io_errors == 3

    def test_disabled_cache_ignores_reads_and_writes(self, cache,
                                                     monkeypatch):
        key = self.entry(cache)
        cache._disabled = True
        assert cache.get(key) is None
        assert cache.stats.hits == 0
        cache.reenable()
        assert cache.get(key) is not None

    def test_read_errors_also_feed_the_threshold(self, tmp_path,
                                                 monkeypatch):
        cache = RunCache(tmp_path / "runs", error_threshold=2)
        key = self.entry(cache)
        monkeypatch.setattr(
            RunCache, "_read_text",
            lambda self, path: (_ for _ in ()).throw(
                OSError(errno.EIO, "I/O error")))
        with pytest.warns(CacheDegradedWarning):
            cache.get(key)
            cache.get(key)
        assert cache.disabled

    def test_stats_format_reports_degradation(self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path / "runs", error_threshold=1)
        monkeypatch.setattr(
            RunCache, "_write_entry",
            lambda self, path, text: (_ for _ in ()).throw(
                OSError(errno.ENOSPC, "full")))
        result = execute_run("BFS", "baseline", scale=TINY)
        with pytest.warns(CacheDegradedWarning):
            cache.put(run_key("BFS", "baseline", 0, TINY), result)
        text = cache.stats.format()
        assert "1 I/O error" in text
        assert "cache disabled" in text

    def test_reenable_resets_counter_and_restores_service(
            self, tmp_path, monkeypatch):
        """After the disk "heals", reenable() re-arms the cache: the
        consecutive-error counter restarts from zero (a fresh disable
        needs a full threshold of *new* errors) and get/put work again.
        Each disable is its own counted event — not double-counted by
        the errors that preceded the reenable."""
        cache = RunCache(tmp_path / "runs", error_threshold=2)
        boom = lambda self, path, text: (_ for _ in ()).throw(  # noqa: E731
            OSError(errno.ENOSPC, "no space left on device"))
        monkeypatch.setattr(RunCache, "_write_entry", boom)
        result = execute_run("BFS", "baseline", scale=TINY)
        key = run_key("BFS", "baseline", 0, TINY)
        with pytest.warns(CacheDegradedWarning):
            cache.put(key, result)
            cache.put(key, result)
        assert cache.disabled
        assert cache.stats.disables == 1
        assert cache.stats.io_errors == 2

        monkeypatch.undo()  # the disk heals
        cache.reenable()
        assert not cache.disabled
        cache.put(key, result)
        assert cache.stats.stores == 1
        assert cache.get(key) is not None
        assert cache.stats.hits == 1

        # The internal counter really was reset: one new error sits
        # below the threshold, a second disables again — and that is
        # counted as a second disable, not a continuation of the first.
        monkeypatch.setattr(RunCache, "_write_entry", boom)
        cache.put(key, result)
        assert not cache.disabled
        with pytest.warns(CacheDegradedWarning):
            cache.put(key, result)
        assert cache.disabled
        assert cache.stats.disables == 2
        assert cache.stats.io_errors == 4


class TestRunDesignIntegration:
    def test_cross_process_equivalent_hit(self, cache):
        """clear_cache() simulates a fresh process: disk must serve it."""
        set_cache(cache)
        first = run_design("BFS", "bow", window_size=3, scale=TINY)
        clear_cache()  # drop the in-process memo, keep the disk
        second = run_design("BFS", "bow", window_size=3, scale=TINY)
        assert second == first
        assert second is not first  # deserialized, not memoized
        assert cache.stats.hits == 1

    def test_fresh_run_equals_cached_run(self, cache):
        set_cache(cache)
        cached = run_design("BFS", "bow-wr", window_size=3, scale=TINY)
        clear_cache()
        set_cache(None)
        fresh = run_design("BFS", "bow-wr", window_size=3, scale=TINY)
        assert cached == fresh

    def test_scale_change_misses(self, cache):
        set_cache(cache)
        run_design("BFS", "baseline", scale=TINY)
        clear_cache()
        run_design("BFS", "baseline",
                   scale=RunScale(num_warps=2, trace_scale=0.1,
                                  memory_seed=99))
        assert cache.stats.hits == 0
        assert cache.stats.stores == 2


class TestEnvironment:
    def test_cache_from_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cache_from_env() is None

    def test_cache_from_env_set(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        cache = cache_from_env()
        assert cache is not None
        assert cache.root == tmp_path / "env-cache"
        assert default_cache_dir() == tmp_path / "env-cache"
