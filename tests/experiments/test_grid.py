"""Tests for the parallel sweep runner (``run_grid``)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.cache import RunCache
from repro.experiments.grid import (
    default_jobs,
    run_grid,
    set_default_jobs,
    using_jobs,
)
from repro.experiments.runner import (
    RunScale,
    clear_cache,
    run_design,
    set_cache,
    simulations_run,
)

TINY = RunScale(num_warps=2, trace_scale=0.1)
BENCHES = ("BFS", "NW", "SAD")
DESIGNS = ("baseline", "bow", "bow-wr")


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    previous = set_cache(None)
    yield
    set_cache(previous)
    clear_cache()


class TestGridShape:
    def test_covers_the_full_grid(self):
        grid = run_grid(BENCHES, DESIGNS, (3,), scale=TINY, cache=None)
        assert len(grid.results) == len(BENCHES) * len(DESIGNS)
        assert grid.simulated == len(grid.results)
        for bench in BENCHES:
            for design in DESIGNS:
                assert grid.get(bench, design, 3) is not None

    def test_windowless_designs_deduplicate(self):
        grid = run_grid(("BFS",), ("baseline", "bow"), (2, 3), scale=TINY,
                        cache=None)
        # baseline contributes one point; bow one per window.
        assert len(grid.results) == 3
        assert grid.get("BFS", "baseline", 2) is grid.get("BFS", "baseline", 3)

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid((), DESIGNS, (3,), scale=TINY, cache=None)

    def test_unknown_design_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid(BENCHES, ("quantum",), (3,), scale=TINY, cache=None)

    def test_missing_point_lookup_raises(self):
        grid = run_grid(("BFS",), ("baseline",), (3,), scale=TINY, cache=None)
        with pytest.raises(ExperimentError):
            grid.get("BFS", "bow", 3)


class TestExplicitPoints:
    """``run_grid(points=...)`` — the reentrant entry the sweep service
    batches through — bypasses the cross-product enumeration."""

    def test_explicit_points_resolve(self):
        from repro.experiments.grid import GridPoint

        grid = run_grid((), (), (), scale=TINY, cache=None, points=[
            GridPoint("BFS", "baseline", 3),
            GridPoint("NW", "bow", 3),
        ])
        assert len(grid.results) == 2
        assert grid.get("BFS", "baseline", 3) is not None
        assert grid.get("NW", "bow", 3) is not None

    def test_tuples_accepted(self):
        grid = run_grid((), (), (), scale=TINY, cache=None,
                        points=[("BFS", "baseline", 3)])
        assert grid.get("BFS", "baseline", 3) is not None

    def test_points_normalize_and_deduplicate(self):
        # Case-folding plus effective-window collapse: both entries are
        # the same baseline point, so only one simulation runs.
        grid = run_grid((), (), (), scale=TINY, cache=None, points=[
            ("bfs", "baseline", 2),
            ("BFS", "baseline", 3),
        ])
        assert len(grid.results) == 1
        assert grid.simulated == 1

    def test_explicit_points_match_cross_product(self):
        explicit = run_grid((), (), (), scale=TINY, cache=None, points=[
            ("BFS", "bow", 3)])
        clear_cache()
        product = run_grid(("BFS",), ("bow",), (3,), scale=TINY, cache=None)
        assert (explicit.get("BFS", "bow", 3)
                == product.get("BFS", "bow", 3))

    def test_empty_points_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid((), (), (), scale=TINY, cache=None, points=[])

    def test_unknown_design_in_points_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid((), (), (), scale=TINY, cache=None,
                     points=[("BFS", "quantum", 3)])


class TestSerialParity:
    def test_grid_matches_run_design(self):
        grid = run_grid(BENCHES, DESIGNS, (3,), scale=TINY, cache=None)
        clear_cache()
        for bench in BENCHES:
            for design in DESIGNS:
                assert (grid.get(bench, design, 3)
                        == run_design(bench, design, 3, TINY))

    def test_parallel_matches_serial(self):
        parallel = run_grid(BENCHES, ("baseline", "bow"), (3,), scale=TINY,
                            jobs=2, cache=None)
        clear_cache()
        serial = run_grid(BENCHES, ("baseline", "bow"), (3,), scale=TINY,
                          jobs=1, cache=None)
        assert parallel.results == serial.results

    def test_memo_serves_second_call(self):
        run_grid(("BFS",), ("baseline",), (3,), scale=TINY, cache=None)
        before = simulations_run()
        grid = run_grid(("BFS",), ("baseline",), (3,), scale=TINY, cache=None)
        assert grid.from_memo == 1
        assert simulations_run() == before


class TestWarmCache:
    def test_warm_cache_needs_zero_simulations(self, tmp_path):
        """The acceptance check: 3 benchmarks x 3 designs, warm pass."""
        cache = RunCache(tmp_path / "runs")
        cold = run_grid(BENCHES, DESIGNS, (3,), scale=TINY, jobs=1,
                        cache=cache)
        assert cold.simulated == len(BENCHES) * len(DESIGNS)
        clear_cache()  # a fresh process would start with an empty memo
        before = simulations_run()
        warm = run_grid(BENCHES, DESIGNS, (3,), scale=TINY, jobs=1,
                        cache=cache)
        assert warm.simulated == 0
        assert warm.from_cache == len(BENCHES) * len(DESIGNS)
        assert warm.cache_stats.misses == cold.cache_stats.misses
        assert warm.cache_stats.hits == len(BENCHES) * len(DESIGNS)
        assert simulations_run() == before
        assert warm.results == cold.results

    def test_parallel_cold_run_populates_cache(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        run_grid(BENCHES, ("baseline", "bow"), (3,), scale=TINY, jobs=2,
                 cache=cache)
        assert cache.entry_count() == 6

    def test_cold_point_derives_its_key_once(self, tmp_path, monkeypatch):
        from repro.experiments import grid as grid_module

        keys = []
        original = grid_module.run_key

        def counted(*args, **kwargs):
            keys.append(original(*args, **kwargs))
            return keys[-1]

        monkeypatch.setattr(grid_module, "run_key", counted)
        cache = RunCache(tmp_path / "runs")
        run_grid(("BFS",), ("baseline", "bow"), (3,), scale=TINY,
                 cache=cache)
        # One key per point serves both the miss and the store.
        assert len(keys) == 2
        assert all(key in cache for key in keys)

    def test_runner_default_cache_is_used(self, tmp_path):
        set_cache(RunCache(tmp_path / "runs"))
        run_grid(("BFS",), ("baseline",), (3,), scale=TINY)
        clear_cache()
        warm = run_grid(("BFS",), ("baseline",), (3,), scale=TINY)
        assert warm.from_cache == 1


class TestInstrumentation:
    def test_records_and_progress(self):
        lines = []
        grid = run_grid(("BFS",), ("baseline", "bow"), (3,), scale=TINY,
                        cache=None, progress=lines.append)
        assert len(grid.records) == 2
        assert len(lines) == 2
        assert all(record.seconds >= 0.0 for record in grid.records)
        assert grid.wall_seconds > 0.0
        assert "BFS" in lines[0]

    def test_format_mentions_sources(self):
        grid = run_grid(("BFS",), ("baseline",), (3,), scale=TINY, cache=None)
        text = grid.format()
        assert "sim" in text
        assert "1 simulated" in text


class TestJobsDefaults:
    def test_env_default(self, monkeypatch):
        set_default_jobs(None)
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert default_jobs() == 1

    def test_using_jobs_restores(self):
        set_default_jobs(None)
        with using_jobs(3):
            assert default_jobs() == 3
        assert default_jobs() == 1
