"""Full-device simulation: a parallel dispatcher over per-SM engines.

The paper evaluates BOW on a whole TITAN X — every SM running its share
of the launch's thread blocks (CTAs) — while the per-SM engine
(:mod:`repro.gpu.sm`) models exactly one SM.  This module closes that
gap: :func:`simulate_device` partitions a :class:`KernelTrace` into
per-SM sub-launches, executes the independent :class:`SMEngine`
instances — serially for ``jobs=1``, on a process pool otherwise — and
aggregates a :class:`DeviceResult` whose counters describe the
*device*: total instructions over the finish time of the slowest SM.

Three properties make device runs trustworthy:

* **Deterministic partitioning.**  CTAs (groups of ``warps_per_cta``
  consecutive warps) are assigned round-robin, rotated by the run seed
  — the same ``(trace, num_sms, seed)`` always yields the same
  per-SM sub-launches, independent of worker count.
* **Placement-invariant memory behaviour.**  Sub-launches keep their
  *global* warp ids, and every SM's :class:`~repro.gpu.memory.MemoryModel`
  uses the same seed; since latency draws are keyed by
  ``(seed, warp_id, trace_index)``, a warp sees identical memory
  behaviour wherever it lands.  Register and memory images stay keyed
  by global warp identity, so aggregation is a disjoint merge.
* **One retry engine.**  SMs are resolved by
  :func:`~repro.experiments.resilience.fan_out`, the engine sweeps use
  too: completed SM results are always collected before any raise,
  transient failures and timeouts are retried per a
  :class:`~repro.experiments.resilience.RetryPolicy` with
  deterministic backoff, and a broken process pool is rebuilt with
  only the SM whose worker died charged an attempt.

``num_sms=1`` is an exact identity: the single partition holds every
warp in launch order with the run's own memory seed, so a one-SM device
run is cycle-for-cycle bit-identical to :func:`simulate_design` (the
test suite asserts this for every registered design).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

from ..config import GPUConfig
from ..errors import SimulationError
from ..kernels.trace import KernelTrace, WarpTrace
from ..stats.counters import Counters
from .sm import SimulationResult

#: Warps per CTA (thread block) when the caller does not say: 4 warps =
#: 128 threads, the common CTA shape of the paper's Table III kernels.
DEFAULT_WARPS_PER_CTA = 4


@dataclass(frozen=True)
class SMPartition:
    """One SM's share of a launch.

    Attributes:
        sm_id: the SM slot (0-based).
        trace: the sub-launch — warps keep their *global* ids.
        warp_ids: global warp ids resident on this SM, sorted.
        cta_ids: CTA indices assigned to this SM, sorted.
    """

    sm_id: int
    trace: KernelTrace
    warp_ids: Tuple[int, ...]
    cta_ids: Tuple[int, ...]


@dataclass(frozen=True)
class DevicePartition:
    """A full launch split across SMs.

    Only SMs that received at least one CTA appear in ``sms``;
    ``idle_sms`` counts the slots the launch could not fill.
    """

    num_sms: int
    warps_per_cta: int
    seed: int
    sms: Tuple[SMPartition, ...]

    @property
    def idle_sms(self) -> int:
        return self.num_sms - len(self.sms)

    @property
    def num_ctas(self) -> int:
        return sum(len(sm.cta_ids) for sm in self.sms)


def partition_launch(
    trace: KernelTrace,
    num_sms: int,
    seed: int = 0,
    warps_per_cta: int = DEFAULT_WARPS_PER_CTA,
) -> DevicePartition:
    """Assign the launch's CTAs to SMs round-robin, rotated by ``seed``.

    Consecutive ``warps_per_cta`` warps (in warp-id order) form one CTA
    — the unit of SM assignment, as in the execution model of the
    paper's SS II.  CTA ``i`` lands on SM ``(i + seed) % num_sms``, so
    the partition is deterministic in ``(trace, num_sms, seed)`` and
    nothing else.  Warps keep their global ids (see the module
    docstring for why that matters).
    """
    if num_sms < 1:
        raise SimulationError(f"num_sms must be >= 1, got {num_sms}")
    if warps_per_cta < 1:
        raise SimulationError(
            f"warps_per_cta must be >= 1, got {warps_per_cta}"
        )
    warps = sorted(trace.warps, key=lambda warp: warp.warp_id)
    ctas = [
        warps[index:index + warps_per_cta]
        for index in range(0, len(warps), warps_per_cta)
    ]
    assignment: Dict[int, List[int]] = {}
    for cta_id in range(len(ctas)):
        assignment.setdefault((cta_id + seed) % num_sms, []).append(cta_id)

    partitions = []
    for sm_id in sorted(assignment):
        sm_warps: List[WarpTrace] = []
        for cta_id in assignment[sm_id]:
            sm_warps.extend(ctas[cta_id])
        sm_warps.sort(key=lambda warp: warp.warp_id)
        partitions.append(SMPartition(
            sm_id=sm_id,
            trace=KernelTrace(name=f"{trace.name}@sm{sm_id}",
                              warps=sm_warps),
            warp_ids=tuple(warp.warp_id for warp in sm_warps),
            cta_ids=tuple(assignment[sm_id]),
        ))
    return DevicePartition(num_sms=num_sms, warps_per_cta=warps_per_cta,
                           seed=seed, sms=tuple(partitions))


def merge_counters(per_sm: List[Counters]) -> Counters:
    """Device-level rollup: field-wise sums, except ``cycles`` = max.

    Summing cycles would describe serialized SMs; a device finishes
    when its slowest SM does, so the merged ``ipc`` property is device
    IPC (total instructions over the device finish time).
    """
    merged = Counters()
    for counters in per_sm:
        for item in fields(Counters):
            setattr(merged, item.name,
                    getattr(merged, item.name) + getattr(counters, item.name))
    merged.cycles = max((c.cycles for c in per_sm), default=0)
    return merged


@dataclass
class DeviceResult:
    """Everything a device run produces.

    ``counters`` is the device rollup (:func:`merge_counters`), so
    ``ipc`` is device IPC; ``per_sm`` keeps each SM's own
    :class:`SimulationResult` for per-SM analysis, and
    ``register_image`` / ``memory_image`` are the disjoint merges over
    global warp identity.  ``attempts`` records the dispatcher's
    execution attempts per SM (1 unless the retry policy re-ran one);
    ``recorders`` holds per-SM trace recorders when a
    ``recorder_factory`` was supplied.
    """

    design: str
    partition: DevicePartition
    per_sm: Dict[int, SimulationResult]
    counters: Counters
    register_image: Dict[Tuple[int, int], int]
    memory_image: Dict[int, int]
    wall_seconds: float = 0.0
    attempts: Optional[Dict[int, int]] = None
    recorders: Optional[Dict[int, object]] = None

    @property
    def num_sms(self) -> int:
        return self.partition.num_sms

    @property
    def ipc(self) -> float:
        """Device IPC: total instructions / slowest SM's cycles."""
        return self.counters.ipc

    @property
    def ipc_per_sm(self) -> float:
        """Device IPC normalized per *occupied* SM (one-SM comparable)."""
        if not self.per_sm or not self.counters.cycles:
            return 0.0
        return self.ipc / len(self.per_sm)

    def load_imbalance(self) -> float:
        """Slowest SM's cycles over the mean (1.0 = perfectly balanced).

        When every SM reports zero cycles the SMs are degenerate but
        *balanced* — each did exactly as much work as the mean — so the
        ratio is 1.0, keeping the "1.0 = perfectly balanced" contract.
        An empty device (no occupied SMs) has no load to compare and
        returns 0.0.
        """
        cycles = [r.counters.cycles for r in self.per_sm.values()]
        if not cycles:
            return 0.0
        mean = sum(cycles) / len(cycles)
        return max(cycles) / mean if mean else 1.0

    def to_simulation_result(self) -> SimulationResult:
        """The device run as one :class:`SimulationResult`.

        This is what the experiment layer caches and serializes: the
        merged counters (device IPC semantics) plus the merged images.
        For ``num_sms=1`` it is bit-identical to the single-SM result.
        """
        return SimulationResult(
            counters=self.counters,
            register_image=self.register_image,
            memory_image=self.memory_image,
        )

    def format(self) -> str:
        """Per-SM rollup table plus the device headline."""
        from ..stats.report import format_table

        rows = []
        for sm_id in sorted(self.per_sm):
            result = self.per_sm[sm_id]
            partition = next(sm for sm in self.partition.sms
                             if sm.sm_id == sm_id)
            stalls = (result.counters.issue_stalls_scoreboard
                      + result.counters.issue_stalls_collector)
            rows.append([
                sm_id, len(partition.warp_ids), len(partition.cta_ids),
                result.counters.cycles, result.counters.instructions,
                f"{result.ipc:.3f}", stalls,
                result.counters.bypassed_reads,
            ])
        table = format_table(
            ["SM", "warps", "CTAs", "cycles", "instructions", "IPC",
             "issue stalls", "BOC hits"],
            rows,
            title=(f"Device: {self.design}, {self.num_sms} SM(s) "
                   f"({self.partition.idle_sms} idle), "
                   f"{self.partition.num_ctas} CTA(s) "
                   f"x{self.partition.warps_per_cta} warps"),
        )
        return (
            f"{table}\n"
            f"device IPC {self.ipc:.3f} "
            f"({self.ipc_per_sm:.3f}/SM over {len(self.per_sm)} occupied), "
            f"finish cycle {self.counters.cycles}, "
            f"load imbalance {self.load_imbalance():.3f}"
        )


def _run_sm(
    args: Tuple[str, KernelTrace, int, Optional[GPUConfig], int, bool, object],
) -> Tuple[float, SimulationResult]:
    """Simulate one SM partition; the unit of (possibly remote) dispatch."""
    (design, sm_trace, window_size, config, memory_seed, fast_forward,
     recorder) = args
    from ..core.bow_sm import simulate_design

    started = time.perf_counter()
    result = simulate_design(design, sm_trace, window_size=window_size,
                             config=config, memory_seed=memory_seed,
                             recorder=recorder, fast_forward=fast_forward)
    return time.perf_counter() - started, result


def simulate_device(
    design: str,
    trace: KernelTrace,
    num_sms: Optional[int] = None,
    window_size: int = 3,
    config: Optional[GPUConfig] = None,
    memory_seed: int = 0,
    seed: Optional[int] = None,
    warps_per_cta: int = DEFAULT_WARPS_PER_CTA,
    jobs: int = 1,
    retry=None,
    recorder_factory: Optional[Callable[[int], object]] = None,
    progress: Optional[Callable[[str], None]] = None,
    fast_forward: bool = True,
) -> DeviceResult:
    """Simulate ``design`` over ``trace`` at device scale.

    Args:
        design: a registered design name
            (:func:`repro.core.designs.design_names`).
        trace: the full launch; CTAs are formed from consecutive warps.
        num_sms: SM count; ``None`` uses ``config.num_sms`` (Table II:
            the full TITAN X).
        window_size: instruction window for BOW designs.
        config: per-SM machine configuration (shared by every SM).
        memory_seed: seed of every SM's memory-latency model — shared,
            so a warp's memory behaviour is placement-invariant.
        seed: partition rotation seed; ``None`` uses ``memory_seed``
            (the run seed keys the CTA scheduler).
        warps_per_cta: warps per thread block (the assignment unit).
        jobs: ``1`` runs the SMs serially in-process; more runs them
            on a process pool of up to ``jobs`` workers.  Results are
            bit-identical across job counts.
        retry: a :class:`~repro.experiments.resilience.RetryPolicy`
            (``None`` uses :data:`~repro.experiments.resilience.NO_RETRY`
            — SM engines are deterministic, so only transient
            infrastructure failures are worth retrying; pass
            ``DEFAULT_POLICY`` for sweep-grade resilience).
        recorder_factory: optional ``sm_id -> TraceRecorder`` hook; the
            per-SM recorders land on ``DeviceResult.recorders``.
            Requires ``jobs=1``: recorders cannot cross processes.
        progress: optional callback receiving one line per finished SM.
        fast_forward: forwarded to every SM engine; ``False`` ticks
            each engine cycle-by-cycle (the event-horizon kill switch).

    Raises:
        SimulationError: on an invalid configuration, or — after every
            SM has been drained — when any SM exhausted its retry
            policy (the first failure is chained as the cause).
    """
    started = time.perf_counter()
    resolved_config = config or GPUConfig()
    if num_sms is None:
        num_sms = resolved_config.num_sms
    if trace.num_warps == 0:
        raise SimulationError("cannot simulate an empty launch")
    if recorder_factory is not None and jobs > 1:
        raise SimulationError(
            "per-SM trace capture needs jobs=1; recorders cannot cross "
            "processes"
        )
    from ..experiments.resilience import NO_RETRY, fan_out

    partition = partition_launch(
        trace, num_sms, seed=memory_seed if seed is None else seed,
        warps_per_cta=warps_per_cta,
    )
    recorders: Optional[Dict[int, object]] = None
    if recorder_factory is not None:
        recorders = {sm.sm_id: recorder_factory(sm.sm_id)
                     for sm in partition.sms}

    work = [
        (sm.sm_id, (design, sm.trace, window_size, config, memory_seed,
                    fast_forward,
                    None if recorders is None else recorders[sm.sm_id]))
        for sm in partition.sms
    ]
    per_sm: Dict[int, SimulationResult] = {}
    attempts_by_sm: Dict[int, int] = {}
    failures: List[Tuple[int, int, BaseException]] = []

    def finish(sm_id: int, seconds: float, result: SimulationResult,
               attempts: int) -> None:
        per_sm[sm_id] = result
        attempts_by_sm[sm_id] = attempts
        if progress is not None:
            progress(f"[{len(per_sm)}/{len(work)}] SM {sm_id}: "
                     f"{result.counters.cycles} cycles, "
                     f"IPC {result.ipc:.3f}")

    def fail(sm_id: int, error: BaseException, attempts: int,
             seconds: float) -> None:
        failures.append((sm_id, attempts, error))
        if progress is not None:
            progress(f"SM {sm_id} FAILED after {attempts} attempt(s): "
                     f"{type(error).__name__}: {error}")

    fan_out(work, _run_sm, jobs=jobs, policy=retry or NO_RETRY,
            finish=finish, fail=fail, label=lambda sm_id: f"SM {sm_id}")

    if failures:
        # Drain semantics: every completed SM result was already kept.
        failures.sort(key=lambda item: item[0])
        sm_id, attempts, error = failures[0]
        raise SimulationError(
            f"device simulation of {trace.name!r} on {design!r} failed: "
            f"SM {sm_id} exhausted {attempts} attempt(s) "
            f"({type(error).__name__}: {error})"
            + (f"; {len(failures) - 1} more SM(s) failed"
               if len(failures) > 1 else "")
        ) from error

    ordered = [per_sm[sm.sm_id] for sm in partition.sms]
    register_image: Dict[Tuple[int, int], int] = {}
    memory_image: Dict[int, int] = {}
    for result in ordered:  # sm-id order: a deterministic merge
        register_image.update(result.register_image)
        memory_image.update(result.memory_image)

    return DeviceResult(
        design=design,
        partition=partition,
        per_sm=per_sm,
        counters=merge_counters([r.counters for r in ordered]),
        register_image=register_image,
        memory_image=memory_image,
        wall_seconds=time.perf_counter() - started,
        attempts=attempts_by_sm,
        recorders=recorders,
    )
