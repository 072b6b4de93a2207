"""Shared run infrastructure for the experiment drivers.

``run_design`` builds the benchmark trace (compiled with hints when the
design needs them), runs the timing simulator, and keeps the result:
Figures 10, 12 and 13 all consume the same runs, and pytest-benchmark
calls each driver several times.

Results live in one store keyed by
:func:`~repro.experiments.cache.run_key`: a process-wide in-memory map
(repeated calls are free and return identical objects) backed by an
optional on-disk :class:`~repro.experiments.cache.RunCache` shared
across processes and CI jobs — configure with :func:`set_cache`, or
set ``$REPRO_CACHE_DIR``.  ``run_design``, the grid and the sweep
service all use :func:`lookup_run` and :func:`store_run`.

Two standard sizes are provided:

* ``QUICK`` — 16 warps, quarter-length traces; seconds per run, the
  default for the benchmark harness and CI.
* ``FULL``  — the full 32-warp complement with longer traces; use for
  final numbers.

Grid fan-out lives in :mod:`repro.experiments.grid` (``run_grid``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..core.bow_sm import simulate_design
from ..core.designs import DesignSpec, get_design, known_designs
from ..errors import ExperimentError
from ..gpu.sm import SimulationResult
from ..kernels.cfg import KernelCFG
from ..kernels.suites import get_profile
from ..kernels.synthetic import (
    generate_compiled_trace,
    generate_kernel,
    generate_trace,
)
from ..kernels.trace import KernelTrace
from ..stats.cache import CacheStats
from .cache import RunCache, cache_from_env, run_key


@dataclass(frozen=True)
class RunScale:
    """Size of one experiment run.

    Attributes:
        num_warps: warps per launch (the SM supports up to 32).
        trace_scale: multiplier on each benchmark's nominal trace length.
        memory_seed: seed of the deterministic memory-latency model
            (also the seed of the device layer's CTA partitioner).
        num_sms: SMs the launch is partitioned across.  1 (the default)
            simulates a single SM exactly as before; larger values
            route the point through :mod:`repro.gpu.device` and report
            device-level numbers (device IPC, merged counters).
    """

    num_warps: int = 16
    trace_scale: float = 0.25
    memory_seed: int = 7
    num_sms: int = 1

    def __post_init__(self) -> None:
        if self.num_warps < 1:
            raise ExperimentError("num_warps must be >= 1")
        if self.trace_scale <= 0:
            raise ExperimentError("trace_scale must be positive")
        if self.num_sms < 1:
            raise ExperimentError(
                f"num_sms must be >= 1, got {self.num_sms}"
            )


QUICK = RunScale(num_warps=16, trace_scale=0.25)
FULL = RunScale(num_warps=32, trace_scale=0.5)

#: The QUICK grid at device scale: the same launches partitioned over
#: four SMs (4 CTAs of 4 warps), the benchmark harness's device point.
DEVICE_QUICK = RunScale(num_warps=16, trace_scale=0.25, num_sms=4)

_trace_cache: Dict[Tuple, KernelTrace] = {}

#: The kernel behind each benchmark and scale, generated once for the
#: plain trace and every hinted one (which compile copies of it).
_kernel_cache: Dict[Tuple, KernelCFG] = {}

#: Every result this process has resolved, keyed by ``run_key``.
_runs: Dict[str, SimulationResult] = {}

#: The configured on-disk cache; ``False`` means "not yet resolved"
#: (resolve lazily from the environment on first use).
_disk_cache: object = False

#: Simulator invocations performed by this process (store hits do not
#: count) — the "zero simulator invocations on a warm cache" check.
_simulations_run: int = 0


def clear_cache() -> None:
    """Drop all in-memory traces and runs (tests use this for isolation).

    Only memory is dropped; a configured on-disk cache is left
    untouched (use :meth:`RunCache.clear` for that).
    """
    _trace_cache.clear()
    _kernel_cache.clear()
    _runs.clear()


def set_cache(cache: Optional[RunCache]) -> Optional[RunCache]:
    """Install (or with ``None`` disable) the on-disk run cache.

    Returns the previously configured cache so callers can restore it.
    """
    global _disk_cache
    previous = _disk_cache
    _disk_cache = cache
    return None if previous is False else previous  # type: ignore[return-value]


def get_cache() -> Optional[RunCache]:
    """The active on-disk cache (``$REPRO_CACHE_DIR`` by default)."""
    global _disk_cache
    if _disk_cache is False:
        _disk_cache = cache_from_env()
    return _disk_cache  # type: ignore[return-value]


def cache_stats() -> CacheStats:
    """A snapshot of the active on-disk cache's counters (zeros if none)."""
    cache = get_cache()
    return cache.stats.snapshot() if cache is not None else CacheStats()


def simulations_run() -> int:
    """Simulator invocations this process has performed so far."""
    return _simulations_run


def reset_simulations_counter() -> None:
    """Zero the invocation counter (the chaos harness and tests use
    this to assert per-pass deltas rather than process totals)."""
    global _simulations_run
    _simulations_run = 0


def design_spec(design: str) -> DesignSpec:
    """The registry spec for ``design``, as an :class:`ExperimentError`.

    Every experiment-layer surface (runner, grid, CLI, figures,
    ablations) resolves design names through here, so an unknown name
    produces the same message everywhere.
    """
    try:
        return get_design(design)
    except KeyError:
        raise ExperimentError(
            f"unknown design {design!r}; known: {known_designs()}"
        ) from None


def effective_window(design: str, window_size: int) -> int:
    """The window a design actually uses (0 when it ignores the knob)."""
    return 0 if design_spec(design).windowless else window_size


def validate_design(design: str) -> None:
    """Raise :class:`ExperimentError` unless ``design`` is runnable."""
    design_spec(design)


def resolve_num_sms(num_sms: Optional[int], design: Optional[str] = None
                    ) -> int:
    """The SM count a CLI surface should run at.

    ``None`` falls back to the design's registry default (or 1 without
    a design); invalid values raise the same
    :class:`~repro.errors.ExperimentError` every experiment surface
    uses, so ``--sms 0`` fails identically on ``run`` and ``sweep``.
    """
    if num_sms is None:
        return design_spec(design).num_sms if design is not None else 1
    if num_sms < 1:
        raise ExperimentError(f"num_sms must be >= 1, got {num_sms}")
    return num_sms


def device_scale(scale: RunScale, num_sms: int) -> RunScale:
    """``scale`` re-targeted at ``num_sms`` SMs (validated)."""
    return replace(scale, num_sms=resolve_num_sms(num_sms))


def lookup_run(
    key: str, disk: Optional[RunCache] = None
) -> Optional[Tuple[SimulationResult, str]]:
    """The stored result under ``key`` and where it came from, or ``None``.

    Memory first (source ``"memo"``), then ``disk`` if one is given
    (``"cache"``); a disk hit is kept in memory.  Only the disk read
    counts in ``disk.stats``.
    """
    result = _runs.get(key)
    if result is not None:
        return result, "memo"
    if disk is not None:
        result = disk.get(key)
        if result is not None:
            _runs[key] = result
            return result, "cache"
    return None


def store_run(key: str, result: SimulationResult,
              disk: Optional[RunCache] = None) -> None:
    """Keep ``result`` under ``key`` in memory, and on ``disk`` if given."""
    _runs[key] = result
    if disk is not None:
        disk.put(key, result)


def stored_runs() -> int:
    """Results currently held in memory."""
    return len(_runs)


def memo_lookup(
    benchmark: str, design: str, window_size: int, scale: RunScale
) -> Optional[SimulationResult]:
    """The in-memory result of one design point, if present."""
    return _runs.get(run_key(benchmark, design,
                             effective_window(design, window_size), scale))


def benchmark_trace(
    benchmark: str,
    scale: RunScale,
    window_size: Optional[int] = None,
) -> KernelTrace:
    """The benchmark's trace, hint-compiled when ``window_size`` is given."""
    key = (benchmark.upper(), scale.num_warps, scale.trace_scale, window_size)
    if key in _trace_cache:
        return _trace_cache[key]
    spec = get_profile(benchmark).spec
    spec = replace(
        spec,
        num_warps=scale.num_warps,
        loop_iterations=max(1, round(spec.loop_iterations * scale.trace_scale)),
    )
    kernel_key = key[:3]  # the hinted traces share the plain one's kernel
    kernel = _kernel_cache.get(kernel_key)
    if kernel is None:
        kernel = _kernel_cache[kernel_key] = generate_kernel(spec)
    if window_size is None:
        trace = generate_trace(spec, kernel=kernel)
    else:
        trace = generate_compiled_trace(spec, window_size, kernel=kernel)
    _trace_cache[key] = trace
    return trace


#: Worker count for the SMs of device-scale points resolved by this
#: process (``1`` = serial, more = a process pool).  Grid workers keep
#: the serial default (their parallelism is across grid points
#: already); the CLI threads ``run --sms --jobs`` through
#: :func:`using_device_dispatch`.
_device_dispatch: int = 1


def set_device_dispatch(jobs: int) -> None:
    """Set how many workers device-scale runs in this process use."""
    global _device_dispatch
    _device_dispatch = max(1, int(jobs))


@contextlib.contextmanager
def using_device_dispatch(jobs: int):
    """Temporarily override the device worker count (CLI plumbing).

    Device results are bit-identical across job counts, so this changes
    wall-clock only — cached results stay valid.
    """
    previous = _device_dispatch
    set_device_dispatch(jobs)
    try:
        yield
    finally:
        set_device_dispatch(previous)


#: Whether engines launched by this process run the fast loop (``False``
#: runs the reference loop).  Results are bit-identical either way (the
#: engine's core contract, enforced by the differential suites), so this
#: is a diagnostic switch, not a result knob — which is also why it is
#: deliberately NOT part of any cache key.
_fast_forward: bool = True


def set_fast_forward(enabled: bool) -> None:
    """Set whether this process's simulator runs fast-forward."""
    global _fast_forward
    _fast_forward = bool(enabled)


@contextlib.contextmanager
def using_fast_forward(enabled: bool):
    """Temporarily override the fast-loop switch (CLI plumbing).

    With fast-forward *disabled*, :func:`run_design` bypasses the run
    store in both directions: a ``--no-fast-forward`` run exists to
    exercise the engine's reference loop, so serving it a cached
    (fast-forwarded) result would defeat its purpose, and its own
    result is not stored because ``fast_forwarded_cycles`` would poison
    later cache hits.
    """
    previous = _fast_forward
    set_fast_forward(enabled)
    try:
        yield
    finally:
        set_fast_forward(previous)


def execute_run(
    benchmark: str,
    design: str,
    window_size: int = 3,
    scale: RunScale = QUICK,
) -> SimulationResult:
    """Simulate one design point, bypassing every cache.

    This is the single place the experiment layer invokes the timing
    simulator; ``run_design`` and the grid workers both come through
    here, which is what makes the invocation counter trustworthy.
    A scale with ``num_sms > 1`` routes through the device layer
    (:mod:`repro.gpu.device`) and yields the merged device result;
    ``num_sms = 1`` is the unchanged single-SM path.
    """
    global _simulations_run
    spec = design_spec(design)
    trace = benchmark_trace(
        benchmark, scale, window_size=window_size if spec.hinted else None
    )
    _simulations_run += 1
    if scale.num_sms > 1:
        from ..gpu.device import simulate_device

        return simulate_device(
            design, trace, num_sms=scale.num_sms, window_size=window_size,
            memory_seed=scale.memory_seed, jobs=_device_dispatch,
            fast_forward=_fast_forward,
        ).to_simulation_result()
    return simulate_design(
        design, trace, window_size=window_size, memory_seed=scale.memory_seed,
        fast_forward=_fast_forward,
    )


def run_design(
    benchmark: str,
    design: str,
    window_size: int = 3,
    scale: RunScale = QUICK,
) -> SimulationResult:
    """Run (or fetch the cached run of) one design point.

    Lookup order: :func:`lookup_run` (memory, then the on-disk cache
    if one is configured), then :func:`execute_run`, whose result
    :func:`store_run` keeps in both.

    Args:
        benchmark: a Table III benchmark name.
        design: a registered design name (see
            :func:`repro.core.designs.design_names`).
        window_size: the instruction window (ignored by windowless
            designs).
        scale: run size.
    """
    validate_design(design)
    if not _fast_forward:
        # Kill-switch runs exist to exercise the per-cycle path: don't
        # serve them cached fast-forwarded results, don't store theirs
        # (see using_fast_forward).
        return execute_run(benchmark, design, window_size=window_size,
                           scale=scale)
    key = run_key(benchmark, design, effective_window(design, window_size),
                  scale)
    disk = get_cache()
    hit = lookup_run(key, disk)
    if hit is not None:
        return hit[0]
    result = execute_run(benchmark, design, window_size=window_size,
                         scale=scale)
    store_run(key, result, disk)
    return result
