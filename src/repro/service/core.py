"""Single-flight sweep service: the in-process job engine.

:class:`SweepService` turns the library's sweep machinery
(:func:`~repro.experiments.grid.run_grid` + the on-disk
:class:`~repro.experiments.cache.RunCache`) into a long-running,
concurrency-safe job engine.  Clients submit sweep specs — lists of
``(benchmark, design, window)`` points at one
:class:`~repro.experiments.runner.RunScale` — and the service resolves
each point through three layers:

1. **run store** — results this process already holds, found in memory
   by :func:`~repro.experiments.cache.run_key` through the same
   :func:`~repro.experiments.runner.lookup_run` every caller uses;
2. **single-flight registry** — points currently *in flight* for any
   client: a later request for the same key attaches to the existing
   :class:`asyncio.Future` instead of scheduling new work, so N
   concurrent clients asking for the same grid cost one simulation;
3. **priority queue + batching** — genuinely new points are queued
   (lower ``priority`` first, FIFO within a priority) and drained in
   batches; each batch becomes one reentrant ``run_grid(points=...)``
   call on a reused thread-pool executor, which reads the ``RunCache``
   before simulating (so a service restart only costs disk reads, not
   recomputation) and keeps every result in the store, with the grid
   engine's retry/drain semantics unchanged.

Production hardening (see DESIGN.md §10 "Failure semantics &
recovery"):

* **Admission control** — ``max_queued_points`` / ``max_inflight_jobs``
  bound the work the service will hold; a job that would overflow them
  is shed at admission with a typed
  :class:`~repro.errors.ServiceOverloadedError` carrying a
  ``retry_after_ms`` hint, so load never turns into unbounded memory.
* **Deadlines** — ``submit(..., deadline_ms=...)`` expires points this
  job scheduled that are still *queued* when the deadline passes:
  their waiters resolve with a typed
  :class:`~repro.errors.ServiceTimeoutError` and the simulator never
  runs for them.  Points whose batch already started run to completion
  (the result lands in the run store for everyone).
* **Write-ahead journal** — with a ``journal``, every job/point
  transition is durably recorded (:mod:`repro.service.journal`);
  :meth:`SweepService.recover` replays scheduled-but-unresolved points
  through the warm ``RunCache`` after a crash, so a SIGKILLed server
  resumes with zero duplicated simulations.
* **Graceful drain** — :meth:`drain` stops admission, finishes every
  accepted in-flight point (bounded by a hard timeout), flushes the
  journal and telemetry, then closes.  A plain :meth:`close` resolves
  still-pending waiters with a typed ``ServiceError`` instead of
  leaving them hung.

Failures keep their library semantics: a point that exhausts its
:class:`~repro.experiments.resilience.RetryPolicy` resolves its future
with the same :class:`~repro.errors.SweepPointError` a strict sweep
would raise, every job sharing that flight sees it, and the key leaves
the registry so a later request can retry.

Telemetry: with a ``telemetry_dir`` every job streams JSONL records
(``job-start`` / ``job-point`` / ``job-failure`` / ``job-summary``)
to its own ``job-NNNN.jsonl`` file; a service-wide sink (``telemetry``)
additionally receives every job's records stamped with the job id,
plus one ``batch`` record per dispatched batch — see
:class:`~repro.observe.telemetry.TelemetryTee` /
:class:`~repro.observe.telemetry.StampedTelemetry`.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import (
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from ..experiments import runner
from ..experiments.cache import RunCache, run_key
from ..experiments.grid import GridPoint, run_grid
from ..experiments.resilience import RetryPolicy
from ..experiments.runner import RunScale
from ..gpu.sm import SimulationResult
from ..observe.telemetry import StampedTelemetry, TelemetryTee, TelemetryWriter
from . import journal as journal_module
from .journal import Journal, JournalState

#: Version stamped into service telemetry and loadgen reports.
SERVICE_SCHEMA_VERSION = 1

#: How long the dispatcher waits after a wake-up for more points to
#: accumulate before cutting a batch (seconds).  Small enough to be
#: invisible per-job, large enough that a burst of concurrent clients
#: lands in one ``run_grid`` call.
DEFAULT_BATCH_WINDOW = 0.02

#: Largest number of points dispatched as one ``run_grid`` call.
DEFAULT_MAX_BATCH = 64

#: ``retry_after_ms`` bounds for shed-load responses: never tell a
#: client to hammer back instantly, never park one for over a minute.
MIN_RETRY_AFTER_MS = 100
MAX_RETRY_AFTER_MS = 60_000

#: Assumed seconds per point before the service has measured a batch
#: (seeds the ``retry_after_ms`` estimate).
DEFAULT_POINT_SECONDS = 0.25


@dataclass(frozen=True)
class PointSpec:
    """One fully-normalized grid point at a concrete scale.

    ``window`` is always the design's *effective* window and
    ``benchmark`` is upper-cased, so equal specs produce equal
    :meth:`key` digests — the invariant the single-flight registry
    relies on.  Build through :meth:`create`, which normalizes and
    validates.
    """

    benchmark: str
    design: str
    window: int
    scale: RunScale

    @classmethod
    def create(cls, benchmark: str, design: str, window: int,
               scale: RunScale) -> "PointSpec":
        runner.validate_design(design)
        return cls(
            benchmark=benchmark.upper(),
            design=design,
            window=runner.effective_window(design, window),
            scale=scale,
        )

    def key(self) -> str:
        """The content-addressed cache key (shared with ``RunCache``)."""
        return run_key(self.benchmark, self.design, self.window, self.scale)

    def label(self) -> str:
        suffix = f" IW{self.window}" if self.window else ""
        return f"{self.benchmark}/{self.design}{suffix}"


@dataclass
class ServiceStats:
    """Monotonic counters describing everything the service resolved.

    ``points_requested`` splits exactly into ``warm_hits`` (found in
    the in-memory run store), ``coalesced`` (attached to an in-flight
    future), and ``scheduled`` (genuinely new work).  ``simulated`` /
    ``from_cache`` / ``from_memo`` describe how scheduled points
    resolved inside ``run_grid`` (``from_memo`` is rare: the store was
    checked at admission), so ``simulated`` is the number the
    single-flight claim is measured by.  ``overloaded`` counts jobs
    shed at admission, ``expired`` counts queued points cancelled by a job
    deadline, ``disconnects`` counts clients that vanished
    mid-response, and ``recovered_jobs`` / ``recovered_points`` report
    what :meth:`SweepService.recover` replayed from the journal.
    """

    jobs: int = 0
    points_requested: int = 0
    warm_hits: int = 0
    coalesced: int = 0
    scheduled: int = 0
    batches: int = 0
    simulated: int = 0
    from_cache: int = 0
    from_memo: int = 0
    failures: int = 0
    overloaded: int = 0
    expired: int = 0
    disconnects: int = 0
    recovered_jobs: int = 0
    recovered_points: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {item.name: getattr(self, item.name)
                for item in fields(self)}

    def snapshot(self) -> "ServiceStats":
        return ServiceStats(**self.as_dict())


@dataclass(frozen=True)
class PointOutcome:
    """How one requested point resolved for one job.

    ``source`` is ``warm`` / ``flight`` / ``memo`` / ``cache`` /
    ``sim`` / ``expired`` / ``failed`` — the first two are
    service-layer provenance, ``expired`` marks a deadline
    cancellation, the rest are ``run_grid``'s own record for the batch
    that carried the point.
    """

    spec: PointSpec
    key: str
    result: Optional[SimulationResult]
    source: str
    seconds: float
    error: Optional[str] = None
    error_type: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class JobResult:
    """Everything one :meth:`SweepService.submit` call resolved."""

    job_id: int
    outcomes: List[PointOutcome] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    def sources(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.source] = tally.get(outcome.source, 0) + 1
        return tally


@dataclass
class RecoveryReport:
    """What :meth:`SweepService.recover` found and replayed.

    Attributes:
        unfinished_jobs: jobs the journal shows accepted but never
            finished.
        unresolved_points: points scheduled but never resolved.
        replayed: points actually resubmitted (unresolved minus any
            skipped as unreconstructible).
        failed: replayed points that failed again.
        skipped: journal points that no longer parse against the
            current registry (renamed design, schema drift).
        corrupt_lines: journal lines skipped as unparseable.
    """

    unfinished_jobs: int = 0
    unresolved_points: int = 0
    replayed: int = 0
    failed: int = 0
    skipped: int = 0
    corrupt_lines: int = 0


class _Queued:
    """A scheduled point plus the future its waiters share.

    ``state`` walks ``queued`` -> ``dispatched`` | ``expired``: only a
    ``queued`` entry may be dispatched or expired, which is what makes
    "expired points never simulate" and "dispatched points always
    finish" mutually exclusive by construction.
    """

    __slots__ = ("spec", "key", "future", "state", "deadline",
                 "deadline_ms", "timer")

    def __init__(self, spec: PointSpec, key: str,
                 future: "asyncio.Future",
                 deadline: Optional[float] = None,
                 deadline_ms: Optional[float] = None) -> None:
        self.spec = spec
        self.key = key
        self.future = future
        self.state = "queued"
        self.deadline = deadline
        self.deadline_ms = deadline_ms
        self.timer: Optional[asyncio.TimerHandle] = None


class SweepService:
    """The single-flight job engine (see the module docstring).

    Not thread-safe: construct and drive it from one event loop.  The
    blocking ``run_grid`` calls run on a private, reused
    thread-pool executor so the loop stays responsive while a batch
    simulates.

    Args:
        cache: optional :class:`RunCache` shared with the batch runs.
        jobs: worker processes *inside* each ``run_grid`` call
            (1 = serial, the safe default for a service that already
            interleaves batches).
        retry: per-point retry policy for batch runs.
        batch_window: seconds the dispatcher lingers after a wake-up so
            a burst of submissions lands in one batch.
        max_batch: largest single ``run_grid`` call.
        max_queued_points: admission bound on points waiting for
            dispatch; a job whose new points would overflow it is shed
            with :class:`ServiceOverloadedError` (``None`` = unbounded,
            the pre-hardening behaviour).
        max_inflight_jobs: admission bound on concurrently-active
            ``submit`` calls (``None`` = unbounded).
        journal: a path or :class:`~repro.service.journal.Journal` for
            the crash-safe write-ahead job journal (``None`` disables
            journaling and recovery).
        telemetry: optional service-wide sink (``emit(dict)``).
        telemetry_dir: when set, each job streams its records to
            ``<dir>/job-NNNN.jsonl``.
    """

    def __init__(
        self,
        cache: Optional[RunCache] = None,
        jobs: int = 1,
        retry: Optional[RetryPolicy] = None,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_queued_points: Optional[int] = None,
        max_inflight_jobs: Optional[int] = None,
        journal: Union[None, str, Path, Journal] = None,
        telemetry=None,
        telemetry_dir: Optional[str] = None,
    ) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window < 0:
            raise ServiceError(
                f"batch_window must be >= 0, got {batch_window}")
        if max_queued_points is not None and max_queued_points < 1:
            raise ServiceError(
                f"max_queued_points must be >= 1, got {max_queued_points}")
        if max_inflight_jobs is not None and max_inflight_jobs < 1:
            raise ServiceError(
                f"max_inflight_jobs must be >= 1, got {max_inflight_jobs}")
        self._cache = cache
        self._jobs = max(1, int(jobs))
        self._retry = retry
        self._batch_window = batch_window
        self._max_batch = max_batch
        self._max_queued_points = max_queued_points
        self._max_inflight_jobs = max_inflight_jobs
        self._journal = journal  # coerced/opened lazily in start()
        self._journal_state: Optional[JournalState] = None
        self._incarnation = 0
        self._telemetry = telemetry
        self._telemetry_dir = (Path(telemetry_dir)
                               if telemetry_dir is not None else None)
        self.stats = ServiceStats()
        self._inflight: Dict[str, "asyncio.Future"] = {}
        self._queue: List[Tuple[int, int, _Queued]] = []
        self._queued_count = 0
        self._seq = 0
        self._job_ids = 0
        self._active_jobs = 0
        self._ewma_point_seconds: Optional[float] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._dispatcher: Optional["asyncio.Task"] = None
        self._executor = None
        self._closed = False
        self._draining = False

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> "SweepService":
        """Start the dispatcher task (idempotent).

        With a journal configured, any existing journal file is
        replayed into :attr:`journal_state` (consumed by
        :meth:`recover`) and a new ``service-start`` incarnation record
        is appended.
        """
        if self._dispatcher is not None:
            return self
        from concurrent.futures import ThreadPoolExecutor

        if self._telemetry_dir is not None:
            self._telemetry_dir.mkdir(parents=True, exist_ok=True)
        if self._journal is not None:
            self._journal = journal_module.open_journal(self._journal)
            self._journal_state = journal_module.replay(self._journal.path)
            self._incarnation = self._journal_state.incarnations + 1
            self._journal.record("service-start",
                                 incarnation=self._incarnation)
        self._wakeup = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service")
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._closed = False
        self._draining = False
        return self

    async def recover(self) -> RecoveryReport:
        """Replay scheduled-but-unresolved journal points; report.

        Resubmits every point the journal shows as owed through the
        normal layering, so work that *finished* before the crash is
        answered by the warm :class:`RunCache` and only the
        genuinely interrupted points simulate — zero duplicated
        simulations.  Recovery bypasses admission control: the service
        accepted these points once already.
        """
        if self._dispatcher is None or self._closed:
            raise ServiceError("service is not running (call start())")
        state = self._journal_state or JournalState()
        report = RecoveryReport(
            unfinished_jobs=len(state.unfinished_jobs),
            unresolved_points=len(state.unresolved_points),
            corrupt_lines=state.corrupt_lines,
        )
        self.stats.recovered_jobs += report.unfinished_jobs
        groups: Dict[RunScale, List[PointSpec]] = {}
        for point in state.unresolved_points.values():
            try:
                scale = RunScale(**point["scale"])
                spec = PointSpec.create(point["benchmark"], point["design"],
                                        int(point["window"]), scale)
            except (ReproError, TypeError, ValueError, KeyError):
                report.skipped += 1
                continue
            groups.setdefault(scale, []).append(spec)
        for specs in groups.values():
            job = await self.submit(specs, _bypass_admission=True)
            report.replayed += len(job.outcomes)
            report.failed += job.failed
        self.stats.recovered_points += report.replayed
        return report

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting work, finish what was accepted, then close.

        New jobs are shed with :class:`ServiceOverloadedError` the
        moment drain begins; queued and in-flight points run to
        completion.  ``timeout`` is the hard bound: when it elapses,
        remaining waiters are resolved with a typed ``ServiceError``
        and the service closes anyway.  Returns ``True`` when every
        accepted point finished within the budget.
        """
        if self._closed:
            return True
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        drained = True
        while self._active_jobs or self._inflight or self._queued_count:
            if deadline is not None and loop.time() >= deadline:
                drained = False
                break
            await asyncio.sleep(0.01)
        await self.close()
        return drained

    async def close(self) -> None:
        """Stop the dispatcher and resolve every pending waiter.

        Waiters still attached to unresolved futures get a typed
        ``ServiceError("service closed")`` — ``await submit(...)``
        returns (with failed outcomes) instead of hanging forever.
        Unfinished work stays *unresolved in the journal*, so a
        restart with :meth:`recover` picks it back up.
        """
        already_stopped = (self._closed and self._dispatcher is None
                           and not self._inflight)
        self._closed = True
        self._draining = True
        if already_stopped:
            return
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for _, _, queued in self._queue:
            if queued.timer is not None:
                queued.timer.cancel()
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(ServiceError("service closed"))
        self._inflight.clear()
        self._queue.clear()
        self._queued_count = 0
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if isinstance(self._journal, Journal) and self._incarnation:
            self._journal.record("service-stop",
                                 incarnation=self._incarnation)
            self._journal.close()

    async def __aenter__(self) -> "SweepService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- admission ----------------------------------------------------

    def retry_after_ms(self) -> int:
        """The backoff hint attached to shed-load responses.

        Estimates when capacity frees up from the current backlog and
        the measured per-point batch cost (EWMA), clamped to
        [:data:`MIN_RETRY_AFTER_MS`, :data:`MAX_RETRY_AFTER_MS`].
        """
        per_point = self._ewma_point_seconds or DEFAULT_POINT_SECONDS
        backlog = max(len(self._inflight), 1)
        estimate = int(backlog * per_point * 1000)
        return max(MIN_RETRY_AFTER_MS, min(MAX_RETRY_AFTER_MS, estimate))

    def _admit(self, new_points: int) -> None:
        """Shed the job with a typed error when bounds would burst."""
        if self._draining:
            self.stats.overloaded += 1
            raise ServiceOverloadedError(
                "service is draining and no longer accepts jobs",
                retry_after_ms=self.retry_after_ms())
        if (self._max_inflight_jobs is not None
                and self._active_jobs >= self._max_inflight_jobs):
            self.stats.overloaded += 1
            raise ServiceOverloadedError(
                f"overloaded: {self._active_jobs} in-flight job(s) at the "
                f"max_inflight_jobs={self._max_inflight_jobs} bound",
                retry_after_ms=self.retry_after_ms())
        if (self._max_queued_points is not None
                and self._queued_count + new_points
                > self._max_queued_points):
            self.stats.overloaded += 1
            raise ServiceOverloadedError(
                f"overloaded: {new_points} new point(s) would burst the "
                f"queue ({self._queued_count} queued, "
                f"max_queued_points={self._max_queued_points})",
                retry_after_ms=self.retry_after_ms())

    # -- submission ---------------------------------------------------

    async def submit(self, specs: Sequence[PointSpec],
                     priority: int = 0,
                     deadline_ms: Optional[float] = None,
                     _bypass_admission: bool = False) -> JobResult:
        """Resolve every spec, sharing flights with concurrent jobs.

        Returns a :class:`JobResult` with one :class:`PointOutcome`
        per *unique* requested point (duplicates within one job
        collapse).  Point failures are outcomes, not exceptions — a
        job only raises for service-level problems: shutdown
        (``ServiceError``) or load shedding
        (:class:`ServiceOverloadedError`).  With ``deadline_ms``,
        points this job schedules that are still queued when the
        deadline passes expire with a typed
        :class:`ServiceTimeoutError` outcome instead of simulating.
        """
        if self._dispatcher is None or self._closed:
            raise ServiceError("service is not running (call start())")
        if not specs:
            raise ServiceError("empty job: no points")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServiceError(
                f"deadline_ms must be positive, got {deadline_ms}")

        # Classify before mutating anything so admission is atomic:
        # a shed job leaves no trace in the queue or the registry.
        # The store is read in memory only: disk reads stay in run_grid,
        # off the event loop.
        plan: List[Tuple[PointSpec, str, str, object]] = []
        seen_keys = set()
        new_points = 0
        for spec in specs:
            key = spec.key()
            if key in seen_keys:
                continue
            seen_keys.add(key)
            hit = runner.lookup_run(key)
            if hit is not None:
                plan.append((spec, key, "warm", hit[0]))
            elif key in self._inflight:
                plan.append((spec, key, "flight", self._inflight[key]))
            else:
                new_points += 1
                plan.append((spec, key, "queued", None))
        if not _bypass_admission:
            self._admit(new_points)

        self._job_ids += 1
        job_id = self._job_ids
        self.stats.jobs += 1
        self._active_jobs += 1
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        deadline = (loop.time() + deadline_ms / 1000.0
                    if deadline_ms is not None else None)
        telemetry = self._job_telemetry(job_id)
        self._journal_record(
            "job-accepted", job=job_id, points=len(plan),
            priority=priority, deadline_ms=deadline_ms,
            scale=_scale_dict(specs[0].scale))

        waiters: List[Tuple[PointSpec, str, object, str]] = []
        for spec, key, how, pending in plan:
            self.stats.points_requested += 1
            if how == "warm":
                self.stats.warm_hits += 1
            elif how == "flight":
                self.stats.coalesced += 1
            else:
                self.stats.scheduled += 1
                pending = loop.create_future()
                self._inflight[key] = pending
                queued = _Queued(spec, key, pending,
                                 deadline=deadline, deadline_ms=deadline_ms)
                if deadline is not None:
                    queued.timer = loop.call_at(
                        deadline, self._expire_entry, queued)
                self._seq += 1
                self._queued_count += 1
                heapq.heappush(self._queue,
                               (priority, self._seq, queued))
                self._journal_record(
                    "point-scheduled", job=job_id, key=key,
                    benchmark=spec.benchmark, design=spec.design,
                    window=spec.window, scale=_scale_dict(spec.scale))
            waiters.append((spec, key, pending, how))
        if self._wakeup is not None:
            self._wakeup.set()

        if telemetry is not None:
            telemetry.emit({
                "type": "job-start",
                "schema": SERVICE_SCHEMA_VERSION,
                "points": len(waiters),
                "priority": priority,
                "deadline_ms": deadline_ms,
                "scale": _scale_dict(specs[0].scale),
            })

        job = JobResult(job_id=job_id)
        try:
            for spec, key, pending, how in waiters:
                outcome = await self._await_point(spec, key, pending, how)
                job.outcomes.append(outcome)
                if telemetry is not None:
                    telemetry.emit(_outcome_record(outcome))
        finally:
            self._active_jobs -= 1
        job.seconds = time.perf_counter() - started
        if telemetry is not None:
            telemetry.emit({
                "type": "job-summary",
                "points": len(job.outcomes),
                "failed": job.failed,
                "seconds": job.seconds,
                "sources": job.sources(),
            })
        self._close_job_telemetry(telemetry)
        self._journal_record("job-finished", job=job_id, failed=job.failed)
        return job

    async def _await_point(self, spec: PointSpec, key: str, pending,
                           how: str) -> PointOutcome:
        if how == "warm":
            return PointOutcome(spec=spec, key=key, result=pending,
                                source="warm", seconds=0.0)
        started = time.perf_counter()
        try:
            # shield: one cancelled client must not kill a flight that
            # other clients are attached to.
            result, source, seconds = await asyncio.shield(pending)
        except asyncio.CancelledError:
            raise
        except ServiceTimeoutError as error:
            return PointOutcome(
                spec=spec, key=key, result=None, source="expired",
                seconds=time.perf_counter() - started,
                error=str(error), error_type=type(error).__name__,
            )
        except ReproError as error:
            return PointOutcome(
                spec=spec, key=key, result=None,
                source="flight" if how == "flight" else "failed",
                seconds=time.perf_counter() - started,
                error=str(error), error_type=type(error).__name__,
            )
        if how == "flight":
            return PointOutcome(spec=spec, key=key, result=result,
                                source="flight",
                                seconds=time.perf_counter() - started)
        return PointOutcome(spec=spec, key=key, result=result,
                            source=source, seconds=seconds)

    # -- deadlines ----------------------------------------------------

    def _expire_entry(self, queued: _Queued) -> None:
        """Deadline fired for a still-queued point: cancel it.

        Only ``queued`` entries expire — a dispatched batch always
        runs to completion (and warms the cache).  The key leaves the
        single-flight registry so a later job can schedule it afresh.
        """
        if queued.state != "queued":
            return
        queued.state = "expired"
        self._queued_count -= 1
        self.stats.expired += 1
        self._inflight.pop(queued.key, None)
        self._journal_record("point-resolved", key=queued.key,
                             ok=False, source="expired")
        if not queued.future.done():
            queued.future.set_exception(ServiceTimeoutError(
                queued.spec.label(), queued.deadline_ms or 0.0))

    # -- dispatch -----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._queued_count:
                continue
            if self._batch_window:
                # Linger so a burst of concurrent submissions becomes
                # one batch instead of many single-point ones.
                await asyncio.sleep(self._batch_window)
            while self._queued_count:
                batch = self._pop_batch()
                if batch:
                    await self._run_batch(batch)

    def _pop_batch(self) -> List[_Queued]:
        """Highest-priority points sharing one scale, up to max_batch.

        ``run_grid`` takes a single :class:`RunScale`, so a batch is
        cut at the first scale boundary; points at other scales stay
        queued for the next batch.  Expired entries (and entries whose
        deadline lapsed since their timer was scheduled) are skipped —
        an expired point never dispatches.
        """
        batch: List[_Queued] = []
        leftover: List[Tuple[int, int, _Queued]] = []
        scale: Optional[RunScale] = None
        loop = asyncio.get_running_loop()
        while self._queue and len(batch) < self._max_batch:
            entry = heapq.heappop(self._queue)
            queued = entry[2]
            if queued.state != "queued":
                continue  # expired (or defensively, already dispatched)
            if (queued.deadline is not None
                    and loop.time() >= queued.deadline):
                self._expire_entry(queued)
                continue
            if scale is None:
                scale = queued.spec.scale
            if queued.spec.scale == scale:
                queued.state = "dispatched"
                if queued.timer is not None:
                    queued.timer.cancel()
                    queued.timer = None
                self._queued_count -= 1
                batch.append(queued)
            else:
                leftover.append(entry)
        for entry in leftover:
            heapq.heappush(self._queue, entry)
        return batch

    async def _run_batch(self, batch: List[_Queued]) -> None:
        scale = batch[0].spec.scale
        points = [GridPoint(q.spec.benchmark, q.spec.design, q.spec.window)
                  for q in batch]
        self.stats.batches += 1
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            grid = await loop.run_in_executor(
                self._executor,
                partial(run_grid, (), (), (), scale=scale, jobs=self._jobs,
                        cache=self._cache, retry=self._retry, strict=False,
                        points=points),
            )
        except Exception as error:  # noqa: BLE001 — fail the whole batch
            for queued in batch:
                self._inflight.pop(queued.key, None)
                self._journal_record("point-resolved", key=queued.key,
                                     ok=False, source="failed")
                if not queued.future.done():
                    queued.future.set_exception(
                        ServiceError(f"batch execution failed: {error}"))
            return
        elapsed = time.perf_counter() - started
        per_point = elapsed / max(len(batch), 1)
        self._ewma_point_seconds = (
            per_point if self._ewma_point_seconds is None
            else 0.3 * per_point + 0.7 * self._ewma_point_seconds)
        provenance = {
            (record.point.benchmark.upper(), record.point.design,
             record.point.window): (record.source, record.seconds)
            for record in grid.records
        }
        for queued in batch:
            self._inflight.pop(queued.key, None)
            spec = queued.spec
            try:
                result = grid.get(spec.benchmark, spec.design, spec.window)
            except ReproError as error:
                self.stats.failures += 1
                self._journal_record("point-resolved", key=queued.key,
                                     ok=False, source="failed")
                if not queued.future.done():
                    queued.future.set_exception(error)
                continue
            source, seconds = provenance.get(
                (spec.benchmark, spec.design, spec.window), ("sim", 0.0))
            if source == "sim":
                self.stats.simulated += 1
            elif source == "cache":
                self.stats.from_cache += 1
            else:
                self.stats.from_memo += 1
            self._journal_record("point-resolved", key=queued.key,
                                 ok=True, source=source)
            if not queued.future.done():
                queued.future.set_result((result, source, seconds))
        if self._telemetry is not None:
            self._telemetry.emit({
                "type": "batch",
                "schema": SERVICE_SCHEMA_VERSION,
                "points": len(batch),
                "seconds": elapsed,
                "simulated": grid.simulated,
                "from_cache": grid.from_cache,
                "from_memo": grid.from_memo,
                "failed": grid.failed,
                "scale": _scale_dict(scale),
            })

    # -- journal plumbing ---------------------------------------------

    def _journal_record(self, record_type: str, **fields) -> None:
        if isinstance(self._journal, Journal):
            self._journal.record(record_type, **fields)

    # -- telemetry plumbing -------------------------------------------

    def _job_telemetry(self, job_id: int):
        """The sink one job's records go to (per-job file + stamped
        service-wide stream), or ``None`` when neither is configured."""
        writer = None
        if self._telemetry_dir is not None:
            writer = TelemetryWriter(
                str(self._telemetry_dir / f"job-{job_id:04d}.jsonl"))
        stamped = (StampedTelemetry(self._telemetry, job=job_id)
                   if self._telemetry is not None else None)
        if writer is None and stamped is None:
            return None
        tee = TelemetryTee(writer, stamped)
        tee._owned_writer = writer  # closed by _close_job_telemetry
        return tee

    @staticmethod
    def _close_job_telemetry(telemetry) -> None:
        writer = getattr(telemetry, "_owned_writer", None)
        if writer is not None:
            writer.close()

    # -- introspection ------------------------------------------------

    @property
    def warm_points(self) -> int:
        """Results held in the process's in-memory run store."""
        return runner.stored_runs()

    @property
    def inflight_points(self) -> int:
        """Keys currently registered as in flight."""
        return len(self._inflight)

    @property
    def queued_points(self) -> int:
        """Points waiting for dispatch (excludes expired/dispatched)."""
        return self._queued_count

    @property
    def active_jobs(self) -> int:
        """``submit`` calls currently being answered."""
        return self._active_jobs

    @property
    def draining(self) -> bool:
        """Whether the service has stopped accepting new jobs."""
        return self._draining

    @property
    def journal(self) -> Optional[Journal]:
        """The opened journal, if one is configured and started."""
        return self._journal if isinstance(self._journal, Journal) else None

    @property
    def journal_state(self) -> Optional[JournalState]:
        """What :meth:`start` replayed from the journal, if anything."""
        return self._journal_state


def _scale_dict(scale: RunScale) -> Dict[str, object]:
    return {
        "num_warps": scale.num_warps,
        "trace_scale": scale.trace_scale,
        "memory_seed": scale.memory_seed,
        "num_sms": scale.num_sms,
    }


def _outcome_record(outcome: PointOutcome) -> dict:
    record = {
        "type": "job-point" if outcome.ok else "job-failure",
        "benchmark": outcome.spec.benchmark,
        "design": outcome.spec.design,
        "window": outcome.spec.window,
        "source": outcome.source,
        "seconds": outcome.seconds,
    }
    if outcome.ok:
        record["cycles"] = outcome.result.counters.cycles
        record["ipc"] = outcome.result.ipc
    else:
        record["error_type"] = outcome.error_type or ""
        record["message"] = outcome.error or ""
    return record


def expand_points(
    benchmarks: Sequence[str],
    designs: Sequence[str],
    windows: Sequence[int],
    scale: RunScale,
) -> List[PointSpec]:
    """The deduplicated cross-product as normalized :class:`PointSpec`\\ s.

    The client-side mirror of ``run_grid``'s grid enumeration: windows
    collapse to effective windows, so the result's length is the
    number of *unique* simulations the request can cost.
    """
    specs: List[PointSpec] = []
    seen = set()
    for benchmark in benchmarks:
        for design in designs:
            for window in windows:
                spec = PointSpec.create(benchmark, design, window, scale)
                if spec in seen:
                    continue
                seen.add(spec)
                specs.append(spec)
    if not specs:
        raise ServiceError("empty sweep: no benchmarks/designs/windows")
    return specs
