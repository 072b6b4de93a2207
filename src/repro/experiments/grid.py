"""Parallel fan-out over the ``benchmark x design x IW`` experiment grid.

``run_grid`` is the sweep engine every figure/table driver routes its
timing runs through: it resolves each grid point against the in-process
memo and the on-disk cache (:mod:`repro.experiments.cache`), then
executes the remaining points — serially for ``jobs=1``, or across a
:class:`~concurrent.futures.ProcessPoolExecutor` otherwise — and fans
the results back into both cache layers.  Determinism is independent of
parallelism: every point's memory seed comes from its
:class:`~repro.experiments.runner.RunScale`, never from worker identity
or completion order, so ``jobs=8`` and ``jobs=1`` produce bit-identical
results.

The returned :class:`GridResult` carries per-run wall times and
provenance (memo / cache / simulated) plus a cache-counter snapshot, so
callers — and the CI warm-cache smoke test — can verify claims like
"this pass performed zero simulator invocations".

Execution is **fault tolerant**: the points to simulate go through
:func:`~repro.experiments.resilience.fan_out`, the retry engine the
device layer shares.  A failing point is retried per its
:class:`~repro.experiments.resilience.RetryPolicy` and, once exhausted,
recorded as a :class:`~repro.experiments.resilience.PointFailure` on
``GridResult.failures`` instead of killing the sweep.  Completed
results are drained into the memo and disk cache as they arrive, so
nothing finished is ever lost to a sibling's crash; a dead worker pool
is rebuilt and its in-flight points resubmitted.  With ``strict`` (the
default for figure drivers) any residual failure raises *after*
fan-in; with ``strict=False`` (``repro sweep --keep-going``) the
partial grid is returned.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError, SweepPointError
from ..gpu.sm import SimulationResult
from ..stats.cache import CacheStats
from ..stats.report import format_table
from . import runner
from .cache import RunCache, run_key
from .resilience import (
    DEFAULT_POLICY,
    PointFailure,
    RetryPolicy,
    describe_failure,
    fan_out,
)
from .runner import QUICK, RunScale

#: Environment variable giving the default worker count for sweeps.
JOBS_ENV = "REPRO_JOBS"

_default_jobs: Optional[int] = None

#: Optional ``(function, args)`` pair run in every pool worker at
#: start-up.  ``repro.testing.faults`` sets this so its hooks are
#: installed inside workers even under spawn-based multiprocessing
#: (fork inherits the parent's monkeypatches automatically).
_pool_initializer: Optional[Tuple[Callable, tuple]] = None


def default_jobs() -> int:
    """The worker count used when ``run_grid`` is called without one."""
    if _default_jobs is not None:
        return _default_jobs
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set (or with ``None`` unset) the process-wide default worker count."""
    global _default_jobs
    _default_jobs = None if jobs is None else max(1, int(jobs))


@contextmanager
def using_jobs(jobs: Optional[int]):
    """Temporarily override the default worker count (CLI plumbing)."""
    previous = _default_jobs
    set_default_jobs(jobs)
    try:
        yield
    finally:
        set_default_jobs(previous)


@dataclass(frozen=True)
class GridPoint:
    """One cell of the experiment grid."""

    benchmark: str
    design: str
    window: int

    def label(self) -> str:
        suffix = f" IW{self.window}" if self.window else ""
        return f"{self.benchmark}/{self.design}{suffix}"


@dataclass(frozen=True)
class RunRecord:
    """Provenance and wall time of one resolved grid point.

    ``attempts`` counts simulator executions this resolution consumed:
    ``0`` for memo/cache hits, ``1`` for a clean simulation, more when
    the retry policy re-ran a faulting point.
    """

    point: GridPoint
    source: str  # "memo" | "cache" | "sim"
    seconds: float
    attempts: int = 0


@dataclass
class GridResult:
    """Everything one ``run_grid`` call resolved.

    ``results`` holds the points that succeeded; ``failures`` the
    points that exhausted their retry policy.  Every point appears in
    exactly one of the two, so ``len(results) + len(failures)`` always
    equals the grid size — a failing sibling never loses a completed
    result.
    """

    scale: RunScale
    jobs: int
    results: Dict[Tuple[str, str, int], SimulationResult]
    records: List[RunRecord] = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_stats: CacheStats = field(default_factory=CacheStats)

    def get(self, benchmark: str, design: str,
            window: int = 3) -> SimulationResult:
        """The result of one grid point.

        Raises :class:`~repro.errors.SweepPointError` naming the
        original failure if the point failed, and
        :class:`~repro.errors.ExperimentError` if it was never part of
        this grid.
        """
        key = (benchmark.upper(), design,
               runner.effective_window(design, window))
        try:
            return self.results[key]
        except KeyError:
            pass
        for failure in self.failures:
            if (failure.benchmark.upper(), failure.design,
                    failure.window) == key:
                raise failure.to_error()
        raise ExperimentError(
            f"{benchmark}/{design} IW{window} was not part of this grid"
        ) from None

    @property
    def simulated(self) -> int:
        """Points that required a simulator invocation."""
        return sum(1 for record in self.records if record.source == "sim")

    @property
    def from_cache(self) -> int:
        """Points served by the on-disk cache."""
        return sum(1 for record in self.records if record.source == "cache")

    @property
    def from_memo(self) -> int:
        """Points served by the in-process memo."""
        return sum(1 for record in self.records if record.source == "memo")

    @property
    def failed(self) -> int:
        """Points that exhausted their retry policy."""
        return len(self.failures)

    @property
    def ok(self) -> bool:
        """Whether every point resolved."""
        return not self.failures

    def raise_failures(self) -> None:
        """Raise a :class:`~repro.errors.SweepPointError` if any point
        failed (what ``strict`` mode does after fan-in)."""
        if not self.failures:
            return
        first = self.failures[0]
        if len(self.failures) == 1:
            raise first.to_error()
        raise SweepPointError(
            first.label, first.kind, first.attempts, first.error_type,
            f"{first.message} (+{len(self.failures) - 1} more failed "
            f"point(s))", first.traceback_text)

    def format(self) -> str:
        """Per-run table plus a one-line totals summary."""
        rows = []
        for record in sorted(
            self.records,
            key=lambda r: (r.point.benchmark, r.point.design, r.point.window),
        ):
            result = self.results[(
                record.point.benchmark.upper(), record.point.design,
                record.point.window,
            )]
            rows.append([
                record.point.benchmark,
                record.point.design,
                record.point.window or "-",
                result.counters.cycles,
                f"{result.ipc:.3f}",
                record.source,
                f"{record.seconds:.2f}s",
            ])
        table = format_table(
            ["benchmark", "design", "IW", "cycles", "IPC", "source", "time"],
            rows,
            title=(f"Sweep: {len(self.records)} runs, jobs={self.jobs}, "
                   f"{self.scale.num_warps} warps x{self.scale.trace_scale} "
                   f"seed {self.scale.memory_seed}"
                   + (f", {self.scale.num_sms} SMs"
                      if self.scale.num_sms > 1 else "")),
        )
        summary = (
            f"\n{self.simulated} simulated, {self.from_cache} from disk "
            f"cache, {self.from_memo} memoized in {self.wall_seconds:.2f}s"
            + (f", {self.failed} FAILED" if self.failures else "")
            + f"\ncache: {self.cache_stats.format()}"
        )
        if self.failures:
            failure_rows = [
                [failure.label, failure.kind, failure.attempts,
                 f"{failure.seconds:.2f}s",
                 f"{failure.error_type}: {failure.message}"[:60]]
                for failure in sorted(self.failures,
                                      key=lambda item: item.label)
            ]
            summary += "\n" + format_table(
                ["point", "kind", "attempts", "time", "error"],
                failure_rows,
                title=f"Failures: {len(self.failures)} point(s)",
            )
        return table + summary


def _grid_worker(
    args: Tuple[str, str, int, RunScale],
) -> Tuple[float, SimulationResult]:
    """Execute one grid point; returns (seconds, result)."""
    benchmark, design, window, scale = args
    started = time.perf_counter()
    result = runner.execute_run(benchmark, design, window_size=window,
                                scale=scale)
    return time.perf_counter() - started, result


_CACHE_DEFAULT = object()


def run_grid(
    benchmarks: Sequence[str],
    designs: Sequence[str],
    windows: Sequence[int] = (3,),
    scale: RunScale = QUICK,
    jobs: Optional[int] = None,
    cache: object = _CACHE_DEFAULT,
    progress: Optional[Callable[[str], None]] = None,
    retry: Optional[RetryPolicy] = None,
    strict: bool = True,
    telemetry=None,
    points: Optional[Sequence[GridPoint]] = None,
) -> GridResult:
    """Resolve the full ``benchmarks x designs x windows`` grid.

    Args:
        benchmarks: Table III benchmark names.
        designs: registered design names (see
            :func:`repro.core.designs.design_names`).
        windows: instruction windows; windowless designs (baseline,
            rfc) contribute one point regardless.
        points: explicit grid points to resolve *instead of* the
            ``benchmarks x designs x windows`` cross-product — the
            reentrant entry the sweep service batches through.  Each
            item is a :class:`GridPoint` (or a ``(benchmark, design,
            window)`` tuple); windows are normalized to each design's
            effective window and duplicates collapse, exactly as in
            the cross-product path.
        scale: run size; also the source of every point's memory seed.
        jobs: worker processes; ``None`` uses :func:`default_jobs`,
            ``1`` runs serially in-process (no executor).
        cache: a :class:`RunCache`, ``None`` to disable disk caching for
            this call, or leave unset to use the runner's active cache.
        progress: optional callback receiving one line per resolved run.
        retry: retry/timeout policy for failing points (``None`` uses
            :data:`~repro.experiments.resilience.DEFAULT_POLICY`).
        strict: raise a :class:`~repro.errors.SweepPointError` after
            fan-in if any point failed (every completed result is
            cached first either way); ``False`` returns the partial
            grid with ``failures`` populated.
        telemetry: optional
            :class:`~repro.observe.telemetry.TelemetryWriter` (or any
            object with ``emit(dict)``) receiving the JSONL stream —
            a ``start`` header, one ``point``/``failure`` record per
            grid point as it resolves, and a closing ``summary``
            (written before a strict-mode raise, so a failed sweep
            still leaves a complete stream).
    """
    started = time.perf_counter()
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, int(jobs))
    policy = DEFAULT_POLICY if retry is None else retry
    disk = runner.get_cache() if cache is _CACHE_DEFAULT else cache
    if disk is not None and not isinstance(disk, RunCache):
        raise ExperimentError("cache must be a RunCache or None")

    if points is not None:
        requested = [point if isinstance(point, GridPoint)
                     else GridPoint(*point) for point in points]
    else:
        requested = [GridPoint(benchmark, design, window)
                     for benchmark in benchmarks
                     for design in designs
                     for window in windows]
    for design in {point.design for point in requested}:
        runner.validate_design(design)

    points = []
    seen = set()
    for point in requested:
        effective = runner.effective_window(point.design, point.window)
        key = (point.benchmark.upper(), point.design, effective)
        if key in seen:
            continue
        seen.add(key)
        points.append(GridPoint(point.benchmark, point.design, effective))
    if not points:
        raise ExperimentError("empty grid: no benchmarks/designs/windows")

    result = GridResult(scale=scale, jobs=jobs, results={})

    if telemetry is not None:
        from ..observe.telemetry import TELEMETRY_SCHEMA_VERSION

        telemetry.emit({
            "type": "start",
            "schema": TELEMETRY_SCHEMA_VERSION,
            "points": len(points),
            "jobs": jobs,
            "benchmarks": sorted({p.benchmark.upper() for p in points}),
            "designs": sorted({p.design for p in points}),
            "windows": sorted({p.window for p in points}),
            "scale": {
                "num_warps": scale.num_warps,
                "trace_scale": scale.trace_scale,
                "memory_seed": scale.memory_seed,
                "num_sms": scale.num_sms,
            },
        })

    def note(record: RunRecord) -> None:
        result.records.append(record)
        if telemetry is not None:
            key = (record.point.benchmark.upper(), record.point.design,
                   record.point.window)
            run = result.results[key]
            record_fields = {
                "type": "point",
                "benchmark": record.point.benchmark.upper(),
                "design": record.point.design,
                "window": record.point.window,
                "source": record.source,
                "seconds": record.seconds,
                "attempts": record.attempts,
                "cycles": run.counters.cycles,
                "instructions": run.counters.instructions,
                "ipc": run.ipc,
            }
            if record.source == "sim":
                # Only a fresh simulation says anything about the
                # engine's fast-forward coverage; memo/cache hits
                # would just replay a stale number.
                record_fields["fast_forwarded_cycles"] = (
                    run.counters.fast_forwarded_cycles
                )
            telemetry.emit(record_fields)
        if progress is not None:
            done = len(result.records) + len(result.failures)
            progress(
                f"[{done}/{len(points)}] "
                f"{record.point.label()} ({record.source}, "
                f"{record.seconds:.2f}s)"
            )

    def note_failure(failure: PointFailure) -> None:
        result.failures.append(failure)
        if telemetry is not None:
            telemetry.emit({
                "type": "failure",
                "benchmark": failure.benchmark.upper(),
                "design": failure.design,
                "window": failure.window,
                "label": failure.label,
                "kind": failure.kind,
                "attempts": failure.attempts,
                "seconds": failure.seconds,
                "error_type": failure.error_type,
                "message": failure.message,
            })
        if progress is not None:
            done = len(result.records) + len(result.failures)
            progress(
                f"[{done}/{len(points)}] {failure.label} FAILED "
                f"({failure.kind}, {failure.attempts} attempt(s): "
                f"{failure.error_type}: {failure.message})"
            )

    # Layer 1 + 2: memo, then disk.  A disk miss keeps its key for the
    # store after simulation.
    pending: List[GridPoint] = []
    digests: Dict[GridPoint, str] = {}
    for point in points:
        key = (point.benchmark.upper(), point.design, point.window)
        memoized = runner.memo_lookup(point.benchmark, point.design,
                                      point.window, scale)
        if memoized is not None:
            result.results[key] = memoized
            note(RunRecord(point, "memo", 0.0))
            continue
        if disk is not None:
            fetch_started = time.perf_counter()
            digest = run_key(point.benchmark, point.design, point.window,
                             scale)
            cached = disk.get(digest)
            if cached is not None:
                result.results[key] = cached
                runner.memo_store(point.benchmark, point.design,
                                  point.window, scale, cached)
                note(RunRecord(point, "cache",
                               time.perf_counter() - fetch_started))
                continue
            digests[point] = digest
        pending.append(point)

    # Layer 3: simulate what remains.
    def finish(point: GridPoint, seconds: float,
               run: SimulationResult, attempts: int) -> None:
        key = (point.benchmark.upper(), point.design, point.window)
        result.results[key] = run
        runner.memo_store(point.benchmark, point.design, point.window,
                          scale, run)
        if disk is not None:
            disk.put(digests[point], run)
        note(RunRecord(point, "sim", seconds, attempts))

    def fail(point: GridPoint, error: BaseException, attempts: int,
             seconds: float) -> None:
        note_failure(describe_failure(
            point.benchmark, point.design, point.window, point.label(),
            error, attempts, seconds))

    fan_out(
        [(point, (point.benchmark, point.design, point.window, scale))
         for point in pending],
        _grid_worker, jobs=jobs, policy=policy, finish=finish, fail=fail,
        label=GridPoint.label, initializer=_pool_initializer,
    )

    result.wall_seconds = time.perf_counter() - started
    if disk is not None:
        result.cache_stats = disk.stats.snapshot()
    if telemetry is not None:
        telemetry.emit({
            "type": "summary",
            "wall_seconds": result.wall_seconds,
            "points": len(points),
            "ok": result.ok,
            "simulated": result.simulated,
            "from_cache": result.from_cache,
            "from_memo": result.from_memo,
            "failed": result.failed,
            "cache": result.cache_stats.as_dict(),
        })
    if strict:
        result.raise_failures()
    return result
