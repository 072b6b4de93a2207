"""Fault-tolerant fan-out: the one retry engine sweeps and devices share.

``run_grid`` fans grid points across worker processes and
``simulate_device`` fans SM partitions the same way; both resolve their
work through :func:`fan_out`, so one bad item must not destroy the
pass and the failure machinery is implemented (and tested) once:

* a **failure taxonomy** — :func:`classify_failure` sorts exceptions
  into ``transient`` (worker crashes, OS-level errors, timeouts: worth
  retrying) and ``permanent`` (deterministic simulator failures such as
  :class:`~repro.errors.DeadlockError`: retrying reproduces them);
* a :class:`RetryPolicy` — bounded retries with *deterministic*
  exponential backoff (no jitter, so two sweeps with the same policy
  replay the same schedule) plus an optional per-item wall-clock
  timeout;
* :func:`fan_out` — serial for ``jobs=1``, a
  :class:`~concurrent.futures.ProcessPoolExecutor` otherwise.  It
  drains completed futures before anything else, rebuilds a broken
  pool, and blames a pool break only on items whose worker died
  abnormally (PID-marker forensics);
* a :class:`PointFailure` record — everything ``GridResult.failures``
  keeps about a point that exhausted its policy: attempts, elapsed
  time, the original exception's type/message, and its formatted
  traceback.

Determinism contract: nothing here consults wall-clock time, worker
identity, or randomness when *classifying* or *deciding* — given the
same faults, the same policy produces the same failure records at
``jobs=1`` and ``jobs=8`` (see ``repro.testing.faults`` for the
injection harness that proves it).
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import ExperimentError, SweepPointError, SweepTimeoutError

#: Failure kinds (the values stored on :class:`PointFailure`).
TRANSIENT = "transient"
PERMANENT = "permanent"

#: Exception families whose failures are environmental rather than
#: deterministic: a dead worker, an OS-level error (ENOSPC, EACCES,
#: OOM-kills surfacing as ``BrokenProcessPool``), or a timeout.  A
#: retry has a real chance of succeeding.  Everything else — most
#: importantly :class:`~repro.errors.DeadlockError` and its
#: :class:`~repro.errors.SimulationError` siblings — is deterministic
#: with respect to the run's inputs, so retrying just reproduces it.
_TRANSIENT_TYPES: Tuple[type, ...] = (
    BrokenProcessPool,
    OSError,
    MemoryError,
    TimeoutError,
)


def classify_failure(error: BaseException) -> str:
    """``TRANSIENT`` or ``PERMANENT`` for one grid-point exception."""
    if isinstance(error, _TRANSIENT_TYPES):
        return TRANSIENT
    return PERMANENT


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry behaviour for one sweep.

    Attributes:
        max_attempts: total executions allowed per point (1 = never
            retry).
        backoff_base: delay in seconds before the first retry.
        backoff_factor: multiplier applied per further retry.
        backoff_max: ceiling on any single delay.
        timeout: per-item wall-clock budget in seconds; ``None``
            disables the deadline.  On a process pool an over-budget
            item is abandoned (and retried, if attempts remain);
            in-process the budget is checked after the item returns,
            so both modes record the same timeout failures.
        retry_permanent: also retry ``permanent`` failures (off by
            default — a deterministic simulator reproduces them).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    timeout: float = None  # type: ignore[assignment]
    retry_permanent: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExperimentError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ExperimentError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ExperimentError("backoff_factor must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ExperimentError("timeout must be positive (or None)")

    def delay(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based).

        Deterministic exponential backoff:
        ``min(backoff_max, backoff_base * backoff_factor**(attempt-1))``.
        """
        if attempt < 1:
            raise ExperimentError("attempt numbers are 1-based")
        return min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** (attempt - 1))

    def should_retry(self, kind: str, attempt: int) -> bool:
        """Whether a failure of ``kind`` on attempt ``attempt`` retries."""
        if attempt >= self.max_attempts:
            return False
        return kind == TRANSIENT or self.retry_permanent


#: The policy ``run_grid`` uses when the caller passes none.
DEFAULT_POLICY = RetryPolicy()

#: Fail fast: one attempt, no backoff, no deadline.
NO_RETRY = RetryPolicy(max_attempts=1, backoff_base=0.0)


@dataclass(frozen=True)
class PointFailure:
    """One grid point that exhausted its retry policy.

    Attributes:
        benchmark / design / window: the grid coordinates.
        label: the point's display label.
        kind: ``"transient"`` or ``"permanent"``.
        attempts: executions consumed (including the first).
        seconds: total wall-clock seconds across all attempts.
        error_type: class name of the final exception.
        message: message of the final exception.
        traceback_text: formatted traceback of the final attempt
            (empty when none was captured, e.g. an abandoned timeout).
    """

    benchmark: str
    design: str
    window: int
    label: str
    kind: str
    attempts: int
    seconds: float
    error_type: str
    message: str
    traceback_text: str = ""

    def signature(self) -> Tuple[str, str, int]:
        """The determinism-stable identity of this failure.

        ``(label, kind, attempts)`` — everything a fault seed pins down
        regardless of worker count.  ``error_type`` is excluded because
        the *same* fault surfaces differently by transport: a worker
        killed mid-point raises ``BrokenProcessPool`` under ``jobs>1``
        but the injector's crash error under ``jobs=1``.
        """
        return (self.label, self.kind, self.attempts)

    def to_error(self) -> SweepPointError:
        """The exception equivalent of this record."""
        return SweepPointError(self.label, self.kind, self.attempts,
                               self.error_type, self.message,
                               self.traceback_text)


def describe_failure(
    benchmark: str,
    design: str,
    window: int,
    label: str,
    error: BaseException,
    attempts: int,
    seconds: float,
) -> PointFailure:
    """Build the :class:`PointFailure` record for one final exception."""
    if error.__traceback__ is not None:
        text = "".join(traceback_module.format_exception(
            type(error), error, error.__traceback__))
    else:
        # Pool workers strip tracebacks in transit; concurrent.futures
        # smuggles the remote one through __cause__.
        cause = error.__cause__
        text = str(cause) if cause is not None else ""
    return PointFailure(
        benchmark=benchmark,
        design=design,
        window=window,
        label=label,
        kind=classify_failure(error),
        attempts=attempts,
        seconds=seconds,
        error_type=type(error).__name__,
        message=str(error),
        traceback_text=text,
    )


def _marked_call(call: Callable, args: object, marker: str):
    """Run ``call(args)`` in a pool worker under a started-marker.

    The marker file holds this worker's PID while the call runs and is
    removed when it returns: if the worker dies mid-item, the orphaned
    marker tells :func:`fan_out` *which* worker the item had started on
    when the pool broke.
    """
    try:
        with open(marker, "w") as handle:
            handle.write(str(os.getpid()))
    except OSError:
        marker = None  # fan-out already tore the marker dir down
    try:
        return call(args)
    finally:
        if marker is not None:
            try:
                os.unlink(marker)
            except OSError:
                pass


def _dead_worker_pids(pool: ProcessPoolExecutor):
    """PIDs of workers that died abnormally, or ``None`` if unknown.

    After a ``BrokenProcessPool`` the executor SIGTERMs its surviving
    workers, so exit codes separate the culprit (a fault's exit code, a
    kernel OOM-kill's ``-SIGKILL``) from innocents cleaned up with
    ``-SIGTERM``.  Inspects the executor's private process table —
    returns ``None`` (attribution unavailable) if the internals ever
    change shape, and the caller falls back to charging every started
    item.
    """
    try:
        processes = dict(pool._processes)
    except (AttributeError, TypeError):
        return None
    if not processes:
        return None
    culprits = set()
    for pid, process in processes.items():
        try:
            process.join(timeout=5.0)
            code = process.exitcode
        except (OSError, ValueError, AssertionError):
            code = None
        if code is None or code not in (0, -signal.SIGTERM):
            culprits.add(pid)
    return culprits or None


def _marker_pid(marker: Optional[str]) -> Optional[int]:
    """The worker PID recorded in a started-marker, if it exists."""
    if not marker:
        return None
    try:
        with open(marker) as handle:
            return int(handle.read().strip() or "0")
    except (OSError, ValueError):
        return None


def fan_out(
    items: Sequence[Tuple[Hashable, object]],
    call: Callable[[object], Tuple[float, object]],
    *,
    jobs: int,
    policy: RetryPolicy,
    finish: Callable[[Hashable, float, object, int], None],
    fail: Callable[[Hashable, BaseException, int, float], None],
    label: Callable[[Hashable], str],
    initializer: Optional[Tuple[Callable, tuple]] = None,
) -> None:
    """Resolve every ``(key, args)`` item through ``call``, with retries.

    Args:
        items: ``(key, args)`` pairs; keys are hashable and unique.
        call: ``call(args) -> (seconds, result)``; a module-level
            function, so a process pool can pickle it.
        jobs: ``1`` (or a single item) runs in-process; more fans the
            items over a process pool of up to ``jobs`` workers.
        policy: retry and timeout policy.
        finish: ``finish(key, seconds, result, attempts)`` per success.
        fail: ``fail(key, error, attempts, elapsed)`` per item that
            exhausted its policy.
        label: ``label(key)`` names an item in timeout errors.
        initializer: optional ``(function, args)`` run in every pool
            worker at start-up.

    In-process, the timeout cannot preempt a call, so it is checked
    *after* each attempt returns: an over-budget result is discarded
    and recorded exactly as the pool path would.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        _fan_out_serial(items, call, policy, finish, fail, label)
    else:
        _fan_out_pool(items, call, jobs, policy, finish, fail, label,
                      initializer)


def _fan_out_serial(items, call, policy, finish, fail, label) -> None:
    for key, args in items:
        attempts = 0
        total = 0.0
        while True:
            attempts += 1
            started = time.perf_counter()
            try:
                seconds, result = call(args)
            except Exception as raised:  # noqa: BLE001 — taxonomy decides
                total += time.perf_counter() - started
                error: BaseException = raised
            else:
                total += seconds
                if policy.timeout is None or seconds <= policy.timeout:
                    finish(key, seconds, result, attempts)
                    break
                error = SweepTimeoutError(label(key), seconds,
                                          policy.timeout)
            if not policy.should_retry(classify_failure(error), attempts):
                fail(key, error, attempts, total)
                break
            time.sleep(policy.delay(attempts))


def _fan_out_pool(items, call, jobs, policy, finish, fail, label,
                  initializer) -> None:
    """The process-pool path of :func:`fan_out`.

    Completed futures are always drained (and handed to ``finish``)
    before anything else happens, so a crashing sibling can never lose
    finished work.  A ``BrokenProcessPool`` tears the pool down,
    rebuilds it, and resubmits every in-flight item; per-item deadlines
    abandon the running future (the worker cannot be killed, but its
    eventual result is ignored) and retry or fail the item.

    Blame accounting on a pool break: a dead worker is anonymous, so
    the engine cannot directly observe *which* item killed it.  Each
    worker records its PID in a per-submission marker file when it
    starts an item and removes the marker when done.  On a break the
    engine joins the dead workers and reads their exit codes: items
    whose orphaned marker names an abnormally-dead worker are charged
    an attempt; items that never started, or whose worker was merely
    SIGTERMed by pool cleanup, are resubmitted for free.  A sibling
    therefore cannot exhaust its retry budget just because a crashier
    neighbour keeps breaking the pool — the same fault yields the same
    failure records at ``jobs=1`` and ``jobs=8``.
    """
    args_by_key = dict(items)
    attempts: Dict[Hashable, int] = {key: 0 for key, _ in items}
    elapsed: Dict[Hashable, float] = {key: 0.0 for key, _ in items}
    #: (key, earliest submission time) — backoff delays live here.
    ready: List[Tuple[Hashable, float]] = [(key, 0.0) for key, _ in items]
    futures: Dict[object, Hashable] = {}
    started_at: Dict[object, float] = {}
    markers: Dict[object, str] = {}
    marker_dir = tempfile.mkdtemp(prefix="repro-fan-out-")
    marker_serial = 0
    pool: Optional[ProcessPoolExecutor] = None

    def open_pool(size_hint: int) -> ProcessPoolExecutor:
        kwargs = {}
        if initializer is not None:
            func, initargs = initializer
            kwargs = {"initializer": func, "initargs": initargs}
        return ProcessPoolExecutor(
            max_workers=min(jobs, max(1, size_hint)), **kwargs
        )

    def retry_or_fail(key: Hashable, error: BaseException,
                      extra_seconds: float) -> None:
        elapsed[key] += extra_seconds
        if policy.should_retry(classify_failure(error), attempts[key]):
            ready.append((key, time.monotonic()
                          + policy.delay(attempts[key])))
        else:
            fail(key, error, attempts[key], elapsed[key])

    def resubmit_free(key: Hashable) -> None:
        attempts[key] -= 1  # the attempt never really ran
        ready.append((key, 0.0))

    try:
        while ready or futures:
            now = time.monotonic()
            if pool is None and ready:
                pool = open_pool(len(ready))
            waiting = []
            for key, not_before in ready:
                if not_before <= now:
                    attempts[key] += 1
                    marker_serial += 1
                    marker = os.path.join(marker_dir,
                                          f"started-{marker_serial}")
                    future = pool.submit(_marked_call, call,
                                         args_by_key[key], marker)
                    futures[future] = key
                    started_at[future] = time.monotonic()
                    markers[future] = marker
                else:
                    waiting.append((key, not_before))
            ready = waiting

            if not futures:
                # Everything live is waiting out a backoff delay.
                wake = min(not_before for _, not_before in ready)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue

            # Sleep until a completion, the nearest per-item deadline,
            # or the nearest backoff expiry — whichever comes first.
            wakeups = [not_before for _, not_before in ready]
            if policy.timeout is not None:
                wakeups.extend(started_at[future] + policy.timeout
                               for future in futures)
            timeout = (max(0.0, min(wakeups) - time.monotonic())
                       if wakeups else None)
            done, _ = wait(set(futures), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            broken: List[Tuple[object, Hashable, float, BaseException]] = []
            for future in done:
                key = futures.pop(future)
                begun = started_at.pop(future)
                try:
                    seconds, result = future.result()
                except BrokenProcessPool as error:
                    broken.append((future, key, begun, error))
                    continue
                except Exception as error:  # noqa: BLE001 — taxonomy decides
                    markers.pop(future, None)
                    retry_or_fail(key, error, time.monotonic() - begun)
                else:
                    markers.pop(future, None)
                    elapsed[key] += seconds
                    if policy.timeout is not None and seconds > policy.timeout:
                        retry_or_fail(
                            key,
                            SweepTimeoutError(label(key), seconds,
                                              policy.timeout),
                            0.0,
                        )
                    else:
                        finish(key, seconds, result, attempts[key])

            if policy.timeout is not None:
                now = time.monotonic()
                expired = [future for future in futures
                           if started_at[future] + policy.timeout <= now]
                for future in expired:
                    key = futures.pop(future)
                    begun = started_at.pop(future)
                    markers.pop(future, None)
                    future.cancel()  # running futures stay; result ignored
                    retry_or_fail(
                        key,
                        SweepTimeoutError(label(key), now - begun,
                                          policy.timeout),
                        now - begun,
                    )

            if broken and pool is not None:
                # The pool is dead: every remaining future died with it.
                for future in list(futures):
                    key = futures.pop(future)
                    begun = started_at.pop(future)
                    broken.append((
                        future, key, begun,
                        BrokenProcessPool(
                            "process pool died with this item in flight"),
                    ))
                culprits = _dead_worker_pids(pool)
                for future, key, begun, error in broken:
                    marker = markers.pop(future, None)
                    pid = _marker_pid(marker)
                    if marker:
                        try:
                            os.unlink(marker)
                        except OSError:
                            pass
                    if pid is None:
                        resubmit_free(key)  # never started
                    elif culprits is None or pid in culprits:
                        retry_or_fail(key, error, time.monotonic() - begun)
                    else:
                        resubmit_free(key)  # worker exonerated
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        shutil.rmtree(marker_dir, ignore_errors=True)
