"""Tests for the single-flight sweep service engine."""

import asyncio

import pytest

from repro.errors import ExperimentError, ServiceError
from repro.experiments import runner
from repro.experiments.cache import RunCache
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import (
    RunScale,
    clear_cache,
    reset_simulations_counter,
    run_design,
    set_cache,
    simulations_run,
)
from repro.service import PointSpec, SweepService, expand_points

TINY = RunScale(num_warps=2, trace_scale=0.1)
OTHER = RunScale(num_warps=2, trace_scale=0.1, memory_seed=11)
BENCHES = ("BFS", "NW")
DESIGNS = ("baseline", "bow")


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    previous = set_cache(None)
    reset_simulations_counter()
    yield
    set_cache(previous)
    clear_cache()


def grid_specs(scale=TINY):
    return expand_points(BENCHES, DESIGNS, (3,), scale)


async def submit_concurrently(service, jobs, specs, priority=0):
    return await asyncio.gather(*[
        service.submit(specs, priority=priority) for _ in range(jobs)
    ])


class TestPointSpec:
    def test_create_normalizes_case_and_window(self):
        spec = PointSpec.create("bfs", "baseline", 3, TINY)
        assert spec.benchmark == "BFS"
        assert spec.window == 0  # baseline is windowless

    def test_equal_specs_share_a_key(self):
        a = PointSpec.create("bfs", "baseline", 2, TINY)
        b = PointSpec.create("BFS", "baseline", 3, TINY)
        assert a == b
        assert a.key() == b.key()

    def test_key_matches_the_run_cache_key(self):
        from repro.experiments.cache import run_key

        spec = PointSpec.create("BFS", "bow", 3, TINY)
        assert spec.key() == run_key("BFS", "bow", 3, TINY)

    def test_unknown_design_rejected(self):
        with pytest.raises(ExperimentError):
            PointSpec.create("BFS", "quantum", 3, TINY)


class TestExpandPoints:
    def test_windowless_designs_deduplicate(self):
        specs = expand_points(("BFS",), ("baseline", "bow"), (2, 3), TINY)
        # baseline collapses to one point; bow keeps one per window.
        assert len(specs) == 3

    def test_empty_expansion_rejected(self):
        with pytest.raises(ServiceError):
            expand_points((), DESIGNS, (3,), TINY)


class TestSingleFlight:
    def test_concurrent_identical_jobs_cost_one_simulation_per_point(self):
        """The headline dedup claim: 8 concurrent clients requesting an
        identical grid execute exactly one simulation per unique point."""
        async def scenario():
            async with SweepService(cache=None) as service:
                jobs = await submit_concurrently(service, 8, grid_specs())
            return service, jobs

        service, jobs = asyncio.run(scenario())
        unique = len(grid_specs())
        assert simulations_run() == unique
        assert service.stats.simulated == unique
        assert service.stats.points_requested == 8 * unique
        assert service.stats.scheduled == unique
        # Every non-scheduled request either coalesced onto a flight or
        # hit the warm dict (possible when a batch lands between two
        # submits) — none of them scheduled new work.
        assert (service.stats.coalesced + service.stats.warm_hits
                == 7 * unique)
        for job in jobs:
            assert job.ok
            assert len(job.outcomes) == unique

    def test_all_jobs_see_identical_results(self):
        async def scenario():
            async with SweepService(cache=None) as service:
                return await submit_concurrently(service, 4, grid_specs())

        jobs = asyncio.run(scenario())
        reference = {outcome.key: outcome.result
                     for outcome in jobs[0].outcomes}
        for job in jobs[1:]:
            for outcome in job.outcomes:
                assert outcome.result == reference[outcome.key]

    def test_results_match_run_design(self):
        async def scenario():
            async with SweepService(cache=None) as service:
                return await service.submit(grid_specs())

        job = asyncio.run(scenario())
        clear_cache()
        for outcome in job.outcomes:
            spec = outcome.spec
            assert outcome.result == run_design(
                spec.benchmark, spec.design, spec.window or 3, TINY)

    def test_second_job_is_served_from_the_warm_dict(self):
        async def scenario():
            async with SweepService(cache=None) as service:
                await service.submit(grid_specs())
                before = simulations_run()
                job = await service.submit(grid_specs())
            return before, job, service

        before, job, service = asyncio.run(scenario())
        assert simulations_run() == before
        assert all(outcome.source == "warm" for outcome in job.outcomes)
        assert service.stats.warm_hits == len(job.outcomes)

    def test_point_resolved_by_run_grid_is_answered_warm(self):
        from repro.experiments.grid import run_grid

        grid = run_grid(BENCHES, DESIGNS, (3,), scale=TINY, jobs=1,
                        cache=None)

        async def scenario():
            async with SweepService(cache=None) as service:
                return service, await service.submit(grid_specs())

        service, job = asyncio.run(scenario())
        assert all(outcome.source == "warm" for outcome in job.outcomes)
        for outcome in job.outcomes:
            spec = outcome.spec
            assert outcome.result is grid.get(spec.benchmark, spec.design,
                                              spec.window)
        assert service.stats.scheduled == 0
        assert service.stats.batches == 0

    def test_duplicate_points_within_a_job_collapse(self):
        async def scenario():
            async with SweepService(cache=None) as service:
                return await service.submit(
                    [PointSpec.create("BFS", "baseline", 2, TINY),
                     PointSpec.create("bfs", "baseline", 3, TINY)])

        job = asyncio.run(scenario())
        assert len(job.outcomes) == 1
        assert simulations_run() == 1


class TestBatching:
    def test_concurrent_jobs_share_a_batch(self):
        async def scenario():
            async with SweepService(cache=None,
                                    batch_window=0.05) as service:
                await submit_concurrently(service, 8, grid_specs())
            return service

        service = asyncio.run(scenario())
        assert service.stats.batches == 1

    def test_mixed_scales_split_into_batches(self):
        async def scenario():
            async with SweepService(cache=None,
                                    batch_window=0.05) as service:
                job = await service.submit(
                    grid_specs(TINY) + grid_specs(OTHER))
            return service, job

        service, job = asyncio.run(scenario())
        assert job.ok
        assert len(job.outcomes) == 2 * len(grid_specs())
        assert service.stats.batches == 2

    def test_max_batch_bounds_each_grid_call(self):
        async def scenario():
            async with SweepService(cache=None, max_batch=1,
                                    batch_window=0.05) as service:
                await service.submit(grid_specs())
            return service

        service = asyncio.run(scenario())
        assert service.stats.batches == len(grid_specs())

    def test_priority_orders_dispatch(self, monkeypatch):
        order = []
        real_execute = runner.execute_run

        def tracking_execute(benchmark, design, *args, **kwargs):
            order.append((benchmark.upper(), design))
            return real_execute(benchmark, design, *args, **kwargs)

        monkeypatch.setattr(runner, "execute_run", tracking_execute)

        async def scenario():
            # batch_window long enough that both submissions land
            # before the dispatcher cuts its first batch; max_batch=1
            # makes the drain order observable.
            async with SweepService(cache=None, max_batch=1,
                                    batch_window=0.2) as service:
                low = asyncio.ensure_future(service.submit(
                    [PointSpec.create("BFS", "baseline", 3, TINY)],
                    priority=5))
                await asyncio.sleep(0)  # enqueue low before high
                high = asyncio.ensure_future(service.submit(
                    [PointSpec.create("NW", "baseline", 3, TINY)],
                    priority=0))
                await asyncio.gather(low, high)

        asyncio.run(scenario())
        assert order == [("NW", "baseline"), ("BFS", "baseline")]


class TestDiskCacheLayer:
    def test_restart_costs_disk_reads_not_simulations(self, tmp_path):
        cache = RunCache(tmp_path / "runs")

        async def first():
            async with SweepService(cache=cache) as service:
                await service.submit(grid_specs())

        asyncio.run(first())
        assert simulations_run() == len(grid_specs())
        clear_cache()  # a fresh process: empty memo, same disk cache

        async def second():
            async with SweepService(cache=RunCache(tmp_path /
                                                   "runs")) as service:
                job = await service.submit(grid_specs())
            return service, job

        service, job = asyncio.run(second())
        assert simulations_run() == len(grid_specs())  # unchanged
        assert service.stats.simulated == 0
        assert service.stats.from_cache == len(grid_specs())
        assert all(outcome.source == "cache" for outcome in job.outcomes)


class TestFailures:
    def test_every_waiter_sees_the_same_failure(self, monkeypatch):
        real_execute = runner.execute_run

        def failing_execute(benchmark, design, *args, **kwargs):
            if benchmark.upper() == "BFS" and design == "bow":
                raise ValueError("injected permanent failure")
            return real_execute(benchmark, design, *args, **kwargs)

        monkeypatch.setattr(runner, "execute_run", failing_execute)

        async def scenario():
            async with SweepService(
                    cache=None,
                    retry=RetryPolicy(max_attempts=1)) as service:
                jobs = await submit_concurrently(service, 3, grid_specs())
            return service, jobs

        service, jobs = asyncio.run(scenario())
        for job in jobs:
            assert not job.ok
            assert job.failed == 1
            failed = [o for o in job.outcomes if not o.ok]
            assert failed[0].spec.design == "bow"
            assert failed[0].error_type == "SweepPointError"
            assert "injected permanent failure" in failed[0].error
        # The healthy points still resolved for everyone.
        for job in jobs:
            assert sum(1 for o in job.outcomes if o.ok) == 3
        assert service.stats.failures >= 1

    def test_failed_key_leaves_the_registry_so_a_retry_can_heal(
            self, monkeypatch):
        real_execute = runner.execute_run
        state = {"fail": True}

        def flaky_execute(benchmark, design, *args, **kwargs):
            if state["fail"] and design == "bow":
                raise ValueError("transient-looking failure")
            return real_execute(benchmark, design, *args, **kwargs)

        monkeypatch.setattr(runner, "execute_run", flaky_execute)
        spec = PointSpec.create("BFS", "bow", 3, TINY)

        async def scenario():
            async with SweepService(
                    cache=None,
                    retry=RetryPolicy(max_attempts=1)) as service:
                first = await service.submit([spec])
                state["fail"] = False
                second = await service.submit([spec])
            return first, second, service

        first, second, service = asyncio.run(scenario())
        assert not first.ok
        assert second.ok
        assert service.inflight_points == 0

    def test_submit_without_start_raises(self):
        async def scenario():
            await SweepService().submit(grid_specs())

        with pytest.raises(ServiceError):
            asyncio.run(scenario())

    def test_empty_job_rejected(self):
        async def scenario():
            async with SweepService(cache=None) as service:
                await service.submit([])

        with pytest.raises(ServiceError):
            asyncio.run(scenario())

    def test_bad_configuration_rejected(self):
        with pytest.raises(ServiceError):
            SweepService(max_batch=0)
        with pytest.raises(ServiceError):
            SweepService(batch_window=-1.0)


class TestTelemetry:
    def test_per_job_streams_and_stamped_service_stream(self, tmp_path):
        import json

        from repro.observe.telemetry import TelemetryWriter

        service_stream = TelemetryWriter(str(tmp_path / "service.jsonl"))

        async def scenario():
            async with SweepService(
                    cache=None, telemetry=service_stream,
                    telemetry_dir=str(tmp_path / "jobs")) as service:
                await service.submit(grid_specs())
                await service.submit(grid_specs())

        asyncio.run(scenario())
        service_stream.close()

        job_files = sorted((tmp_path / "jobs").glob("job-*.jsonl"))
        assert [path.name for path in job_files] == [
            "job-0001.jsonl", "job-0002.jsonl"]
        first = [json.loads(line) for line in
                 job_files[0].read_text(encoding="utf-8").splitlines()]
        assert first[0]["type"] == "job-start"
        assert first[-1]["type"] == "job-summary"
        points = [r for r in first if r["type"] == "job-point"]
        assert len(points) == len(grid_specs())
        assert all(r["source"] == "sim" for r in points)

        combined = [json.loads(line) for line in
                    (tmp_path / "service.jsonl")
                    .read_text(encoding="utf-8").splitlines()]
        # Every job record is stamped with its job id; batch records
        # come from the dispatcher and carry none.
        jobs_seen = {r["job"] for r in combined if "job" in r}
        assert jobs_seen == {1, 2}
        batches = [r for r in combined if r["type"] == "batch"]
        assert len(batches) == 1
        assert batches[0]["simulated"] == len(grid_specs())
