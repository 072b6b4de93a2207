"""Tests for the experiment run infrastructure."""

import sys
import threading

import pytest

from repro.errors import ExperimentError
from repro.experiments.cache import RunCache
from repro.experiments.grid import run_grid
from repro.experiments.runner import (
    QUICK,
    RunScale,
    benchmark_trace,
    clear_cache,
    lookup_run,
    memo_lookup,
    run_design,
    set_cache,
    store_run,
    stored_runs,
)

TINY = RunScale(num_warps=2, trace_scale=0.1)


@pytest.fixture(autouse=True)
def isolated_cache():
    clear_cache()
    yield
    clear_cache()


class TestRunScale:
    def test_quick_defaults(self):
        assert QUICK.num_warps == 16
        assert QUICK.trace_scale == 0.25

    def test_validation(self):
        with pytest.raises(ExperimentError):
            RunScale(num_warps=0)
        with pytest.raises(ExperimentError):
            RunScale(trace_scale=0)


class TestTraceCache:
    def test_same_key_returns_same_object(self):
        first = benchmark_trace("BFS", TINY)
        second = benchmark_trace("BFS", TINY)
        assert first is second

    def test_window_size_distinguishes_hinted(self):
        plain = benchmark_trace("BFS", TINY)
        hinted = benchmark_trace("BFS", TINY, window_size=3)
        assert plain is not hinted

    def test_scale_applied(self):
        trace = benchmark_trace("BFS", TINY)
        assert trace.num_warps == 2


class TestRunDesign:
    def test_memoization(self):
        first = run_design("BFS", "baseline", scale=TINY)
        second = run_design("BFS", "baseline", scale=TINY)
        assert first is second

    def test_window_ignored_for_baseline(self):
        first = run_design("BFS", "baseline", window_size=2, scale=TINY)
        second = run_design("BFS", "baseline", window_size=4, scale=TINY)
        assert first is second

    def test_window_respected_for_bow(self):
        first = run_design("BFS", "bow", window_size=2, scale=TINY)
        second = run_design("BFS", "bow", window_size=4, scale=TINY)
        assert first is not second

    def test_unknown_design(self):
        with pytest.raises(ExperimentError):
            run_design("BFS", "quantum", scale=TINY)

    def test_unknown_design_error_has_clean_traceback(self):
        # Regression: the unknown-design error used to leak the internal
        # KeyError as "During handling of the above exception..." noise.
        with pytest.raises(ExperimentError) as excinfo:
            run_design("BFS", "quantum", scale=TINY)
        error = excinfo.value
        assert error.__context__ is None or error.__suppress_context__

    def test_hinted_designs_get_compiled_traces(self):
        from repro.isa import WritebackHint

        run_design("BFS", "bow-wr", window_size=3, scale=TINY)
        hinted = benchmark_trace("BFS", TINY, window_size=3)
        hints = {
            inst.hint
            for warp in hinted
            for inst in warp
            if inst.dest is not None
        }
        assert hints != {WritebackHint.BOTH}


class TestRunStore:
    """One in-memory store, keyed by ``run_key``, serves every caller."""

    @pytest.fixture
    def disk(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        previous = set_cache(cache)
        yield cache
        set_cache(previous)

    def test_grid_result_is_the_same_object_everywhere(self):
        grid = run_grid(["BFS"], ["bow", "baseline"], (3,), scale=TINY,
                        jobs=1, cache=None)
        bow = grid.get("BFS", "bow")
        assert run_design("BFS", "bow", window_size=3, scale=TINY) is bow
        assert memo_lookup("BFS", "bow", 3, TINY) is bow
        # memo_lookup applies the effective window, as run_design does.
        baseline = grid.get("BFS", "baseline")
        assert memo_lookup("BFS", "baseline", 5, TINY) is baseline
        assert memo_lookup("BFS", "bow", 5, TINY) is None

    def test_memory_hits_leave_disk_hits_unchanged(self, disk):
        run_design("BFS", "bow", window_size=3, scale=TINY)
        clear_cache()
        first = run_design("BFS", "bow", window_size=3, scale=TINY)
        assert disk.stats.hits == 1
        assert run_design("BFS", "bow", window_size=3, scale=TINY) is first
        grid = run_grid(["BFS"], ["bow"], (3,), scale=TINY, jobs=1)
        assert [record.source for record in grid.records] == ["memo"]
        assert grid.get("BFS", "bow") is first
        assert disk.stats.hits == 1

    def test_clear_cache_empties_the_store(self):
        run_design("BFS", "baseline", scale=TINY)
        assert stored_runs() == 1
        clear_cache()
        assert stored_runs() == 0
        assert memo_lookup("BFS", "baseline", 3, TINY) is None

    def test_concurrent_stores_lose_nothing(self):
        """The service reads the store on its event loop while
        ``run_grid`` writes it from the executor thread."""
        misses = []

        def work(worker):
            for index in range(500):
                key = f"{worker}:{index}"
                store_run(key, key)
                if lookup_run(key) != (key, "memo"):
                    misses.append(key)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert misses == []
        assert stored_runs() == 8 * 500
