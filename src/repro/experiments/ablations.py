"""Ablation studies for the design choices the paper fixes.

The paper picks GTO scheduling (Table II), FIFO eviction for the
reduced BOC (SS IV-C), a window of three instructions, and half-size
buffers.  These drivers vary one choice at a time:

* :func:`scheduler_ablation` — does BOW's benefit survive under LRR?
* :func:`eviction_ablation` — FIFO vs LRU for capacity-limited BOCs.
* :func:`capacity_sweep` — IPC and eviction traffic vs BOC entries
  (generalizes Figure 11's single half-size point).
* :func:`window_sweep` — bypass rates and IPC for windows beyond the
  paper's 7 (its future-work direction).
* :func:`effective_rf_study` — the SS IV-B.2a claim: how much RF
  allocation the transient operands release per benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..compiler.allocation import AllocationResult, effective_register_demand
from ..config import (
    BOWConfig,
    EvictionPolicy,
    GPUConfig,
    SchedulerPolicy,
    WritebackPolicy,
)
from ..core.bow_sm import simulate_bow
from ..core.window import stream_window_gaps
from ..kernels.suites import benchmark_names, get_profile
from ..kernels.synthetic import generate_kernel
from ..stats.report import format_percent, format_table
from .grid import run_grid
from .runner import QUICK, RunScale, benchmark_trace


@dataclass(frozen=True)
class SchedulerAblation:
    """BOW's IPC gain under each warp-scheduling policy."""

    gains: Dict[str, Dict[str, float]]  # benchmark -> {policy: gain}

    def average(self, policy: str) -> float:
        return sum(b[policy] for b in self.gains.values()) / len(self.gains)

    def format(self) -> str:
        policies = sorted(next(iter(self.gains.values())))
        rows = [
            [bench] + [format_percent(per[p]) for p in policies]
            for bench, per in self.gains.items()
        ]
        rows.append(["AVERAGE"]
                    + [format_percent(self.average(p)) for p in policies])
        headers = ["benchmark"] + [f"BOW gain ({p.upper()})"
                                   for p in policies]
        return format_table(headers, rows,
                            title="Ablation: scheduler policy")


def scheduler_ablation(
    benchmarks: Optional[Tuple[str, ...]] = None,
    window_size: int = 3,
    scale: RunScale = QUICK,
    policies: Tuple[SchedulerPolicy, ...] = (
        SchedulerPolicy.GTO, SchedulerPolicy.LRR, SchedulerPolicy.TWO_LEVEL,
    ),
) -> SchedulerAblation:
    """BOW's IPC improvement under each warp-scheduling policy."""
    benchmarks = benchmarks or benchmark_names()
    gains: Dict[str, Dict[str, float]] = {}
    for bench in benchmarks:
        trace = benchmark_trace(bench, scale)
        gains[bench] = {}
        for policy in policies:
            config = GPUConfig(scheduler_policy=policy)
            base = simulate_bow(
                trace, bow=replace(BOWConfig(), enabled=False),
                config=config, memory_seed=scale.memory_seed,
            )
            bow = simulate_bow(
                trace, bow=BOWConfig(window_size=window_size),
                config=config, memory_seed=scale.memory_seed,
            )
            gains[bench][policy.value] = bow.ipc / base.ipc - 1.0
    return SchedulerAblation(gains=gains)


@dataclass(frozen=True)
class EvictionAblation:
    """FIFO vs LRU for a capacity-limited BOC."""

    capacity: int
    ipc: Dict[str, Dict[str, float]]
    eviction_writebacks: Dict[str, Dict[str, int]]

    def format(self) -> str:
        rows = []
        for bench, per in self.ipc.items():
            rows.append([
                bench,
                f"{per['fifo']:.3f}", f"{per['lru']:.3f}",
                self.eviction_writebacks[bench]["fifo"],
                self.eviction_writebacks[bench]["lru"],
            ])
        return format_table(
            ["benchmark", "IPC (FIFO)", "IPC (LRU)",
             "evict-WBs (FIFO)", "evict-WBs (LRU)"],
            rows,
            title=f"Ablation: BOC eviction policy (capacity {self.capacity})",
        )


def eviction_ablation(
    benchmarks: Optional[Tuple[str, ...]] = None,
    window_size: int = 3,
    capacity: int = 4,
    scale: RunScale = QUICK,
) -> EvictionAblation:
    """Compare FIFO and LRU eviction under a deliberately tight BOC."""
    benchmarks = benchmarks or benchmark_names()
    ipc: Dict[str, Dict[str, float]] = {}
    writebacks: Dict[str, Dict[str, int]] = {}
    for bench in benchmarks:
        trace = benchmark_trace(bench, scale)
        ipc[bench] = {}
        writebacks[bench] = {}
        for policy in (EvictionPolicy.FIFO, EvictionPolicy.LRU):
            bow = BOWConfig(
                window_size=window_size,
                writeback=WritebackPolicy.WRITE_BACK,
                capacity_entries=capacity,
                eviction=policy,
            )
            result = simulate_bow(trace, bow=bow,
                                  memory_seed=scale.memory_seed)
            ipc[bench][policy.value] = result.ipc
            writebacks[bench][policy.value] = (
                result.counters.eviction_writebacks
            )
    return EvictionAblation(capacity=capacity, ipc=ipc,
                            eviction_writebacks=writebacks)


@dataclass(frozen=True)
class CapacitySweep:
    """IPC and eviction traffic vs BOC capacity for one benchmark."""

    benchmark: str
    window_size: int
    points: List[Tuple[int, float, int]]  # (capacity, ipc_gain, evictions)

    def format(self) -> str:
        rows = [
            [capacity, format_percent(gain), evictions]
            for capacity, gain, evictions in self.points
        ]
        return format_table(
            ["BOC entries", "IPC gain", "evictions"],
            rows,
            title=(f"Capacity sweep: {self.benchmark} "
                   f"(BOW-WR semantics, IW={self.window_size})"),
        )


def capacity_sweep(
    benchmark: str = "SAD",
    window_size: int = 3,
    capacities: Tuple[int, ...] = (2, 3, 4, 6, 8, 12),
    scale: RunScale = QUICK,
) -> CapacitySweep:
    """Sweep BOC capacity from starved to conservative."""
    trace = benchmark_trace(benchmark, scale)
    base = simulate_bow(trace, bow=replace(BOWConfig(), enabled=False),
                        memory_seed=scale.memory_seed)
    points = []
    for capacity in capacities:
        bow = BOWConfig(window_size=window_size,
                        writeback=WritebackPolicy.WRITE_BACK,
                        capacity_entries=capacity)
        result = simulate_bow(trace, bow=bow, memory_seed=scale.memory_seed)
        points.append((
            capacity,
            result.ipc / base.ipc - 1.0,
            result.counters.boc_evictions,
        ))
    return CapacitySweep(benchmark=benchmark, window_size=window_size,
                         points=points)


@dataclass(frozen=True)
class WindowSweep:
    """Bypass rate and IPC gain for windows past the paper's range."""

    benchmark: str
    points: List[Tuple[int, float, float]]  # (iw, read_bypass, ipc_gain)

    def format(self) -> str:
        rows = [
            [iw, format_percent(bypass), format_percent(gain)]
            for iw, bypass, gain in self.points
        ]
        return format_table(
            ["IW", "reads bypassed", "IPC gain"],
            rows,
            title=f"Window sweep: {self.benchmark}",
        )


def window_sweep(
    benchmark: str = "SAD",
    windows: Tuple[int, ...] = (2, 3, 4, 5, 7, 9, 12),
    scale: RunScale = QUICK,
) -> WindowSweep:
    """Extend the Figure 3/10 sweep beyond IW=7 (the paper's future work)."""
    gaps = stream_window_gaps(benchmark_trace(benchmark, scale))
    grid = run_grid((benchmark,), ("baseline", "bow"), windows, scale=scale)
    base = grid.get(benchmark, "baseline")
    points = []
    for window_size in windows:
        result = grid.get(benchmark, "bow", window_size)
        points.append((window_size,
                       gaps.read_hits(window_size) / max(1, gaps.reads),
                       result.ipc / base.ipc - 1.0))
    return WindowSweep(benchmark=benchmark, points=points)


@dataclass(frozen=True)
class DceStudy:
    """How much write-bypass opportunity is dead code vs transience."""

    window_size: int
    rows: List[Tuple[str, float, float, float]]
    # (benchmark, dead instruction fraction, bypass before DCE, after DCE)

    def average_dead(self) -> float:
        return sum(row[1] for row in self.rows) / len(self.rows)

    def format(self) -> str:
        body = [
            [bench, format_percent(dead), format_percent(before),
             format_percent(after)]
            for bench, dead, before, after in self.rows
        ]
        body.append(["AVERAGE", format_percent(self.average_dead()),
                     format_percent(sum(r[2] for r in self.rows)
                                    / len(self.rows)),
                     format_percent(sum(r[3] for r in self.rows)
                                    / len(self.rows))])
        return format_table(
            ["benchmark", "dead instructions", "write bypass (raw)",
             "(after DCE)"],
            body,
            title=(f"Extension: dead code vs transience "
                   f"(IW={self.window_size})"),
        )


def dce_study(
    window_size: int = 3,
    benchmarks: Optional[Tuple[str, ...]] = None,
    seed: int = 1,
) -> DceStudy:
    """Separate dead-write bypass from genuine transience (Fig. 3 note).

    Part of our write-bypass surplus over the paper comes from dead
    writes in the synthetic kernels; this study quantifies it per
    benchmark by re-measuring after dead-code elimination.
    """
    import random as random_module

    from ..compiler.dce import eliminate_dead_code
    from ..core.window import write_bypass_opportunity_counts

    benchmarks = benchmarks or benchmark_names()
    rows: List[Tuple[str, float, float, float]] = []
    for bench in benchmarks:
        spec = replace(get_profile(bench).spec, loop_iterations=6)
        cfg = generate_kernel(spec)
        trace = cfg.expand_warp(0, random_module.Random(seed))
        hits, total = write_bypass_opportunity_counts(trace, window_size)
        before = hits / max(1, total)
        result = eliminate_dead_code(cfg)
        trace = cfg.expand_warp(0, random_module.Random(seed))
        hits, total = write_bypass_opportunity_counts(trace, window_size)
        after = hits / max(1, total)
        rows.append((bench, result.dead_fraction, before, after))
    return DceStudy(window_size=window_size, rows=rows)


@dataclass(frozen=True)
class CollectorCountAblation:
    """Baseline sensitivity to the number of operand collector units.

    The paper notes OCU counts have grown generation over generation
    (SS I: Pascal has 32, one per in-flight warp); this study shows how
    much of the baseline's performance depends on that, and that BOW's
    per-warp BOCs sidestep the question.
    """

    benchmark: str
    points: List[Tuple[int, float, int]]  # (units, ipc, collector stalls)

    def format(self) -> str:
        rows = [
            [units, f"{ipc:.3f}", stalls]
            for units, ipc, stalls in self.points
        ]
        return format_table(
            ["OCUs", "baseline IPC", "collector stalls"],
            rows,
            title=f"Ablation: operand-collector count ({self.benchmark})",
        )


def collector_count_ablation(
    benchmark: str = "SAD",
    unit_counts: Tuple[int, ...] = (4, 8, 16, 32),
    scale: RunScale = QUICK,
) -> CollectorCountAblation:
    """Baseline IPC as the OCU pool shrinks."""
    trace = benchmark_trace(benchmark, scale)
    points = []
    for units in unit_counts:
        config = GPUConfig(num_operand_collectors=units)
        result = simulate_bow(
            trace, bow=replace(BOWConfig(), enabled=False),
            config=config, memory_seed=scale.memory_seed,
        )
        points.append((
            units, result.ipc, result.counters.issue_stalls_collector,
        ))
    return CollectorCountAblation(benchmark=benchmark, points=points)


@dataclass(frozen=True)
class ReorderStudy:
    """Bypass-aware instruction scheduling (the paper's footnote 1)."""

    window_size: int
    rows: List[Tuple[str, int, float, float]]
    # (benchmark, instructions moved, bypass before, bypass after)

    def average_gain(self) -> float:
        return sum(after - before for _, _, before, after in self.rows) \
            / len(self.rows)

    def format(self) -> str:
        body = [
            [bench, moved, format_percent(before), format_percent(after),
             format_percent(after - before)]
            for bench, moved, before, after in self.rows
        ]
        body.append(["AVERAGE", "", "", "",
                     format_percent(self.average_gain())])
        return format_table(
            ["benchmark", "moved", "reads bypassed (before)",
             "(after)", "gain"],
            body,
            title=(f"Extension: bypass-aware scheduling "
                   f"(IW={self.window_size})"),
        )


def reorder_study(
    window_size: int = 3,
    benchmarks: Optional[Tuple[str, ...]] = None,
    seed: int = 1,
) -> ReorderStudy:
    """Measure the footnote-1 reordering pass on the suite.

    For each benchmark: generate the kernel, measure the dynamic read
    bypass rate at ``window_size``, run the scheduler, re-expand with
    the same seed, and measure again.  The pass is guarded per block, so
    blocks only change when their static locality improves.
    """
    import random as random_module

    from ..compiler.scheduling import schedule_kernel
    from ..core.window import read_bypass_counts

    benchmarks = benchmarks or benchmark_names()
    rows: List[Tuple[str, int, float, float]] = []
    for bench in benchmarks:
        spec = replace(get_profile(bench).spec, loop_iterations=6)
        cfg = generate_kernel(spec)
        before_trace = cfg.expand_warp(0, random_module.Random(seed))
        hits, total = read_bypass_counts(before_trace, window_size)
        before = hits / max(1, total)
        moved = schedule_kernel(cfg, window_size)
        after_trace = cfg.expand_warp(0, random_module.Random(seed))
        hits, total = read_bypass_counts(after_trace, window_size)
        after = hits / max(1, total)
        rows.append((bench, moved, before, after))
    return ReorderStudy(window_size=window_size, rows=rows)


@dataclass(frozen=True)
class WarpScaling:
    """BOW's benefit as occupancy (and so port contention) grows."""

    benchmark: str
    points: List[Tuple[int, float, float, float]]
    # (warps, baseline_ipc, bow_ipc, gain)

    def format(self) -> str:
        rows = [
            [warps, f"{base:.3f}", f"{bow:.3f}", format_percent(gain)]
            for warps, base, bow, gain in self.points
        ]
        return format_table(
            ["warps", "baseline IPC", "BOW IPC", "gain"],
            rows,
            title=f"Warp scaling: {self.benchmark} (IW=3)",
        )


def warp_scaling(
    benchmark: str = "SAD",
    warp_counts: Tuple[int, ...] = (4, 8, 16, 32),
    window_size: int = 3,
    trace_scale: float = 0.2,
    memory_seed: int = 7,
) -> WarpScaling:
    """IPC of baseline vs BOW as the warp count rises.

    More warps mean more concurrent collectors fighting for bank ports —
    the contention BOW relieves — so the gain should grow with
    occupancy.  This contextualizes the paper's full-occupancy numbers.
    """
    points = []
    for warps in warp_counts:
        scale = RunScale(num_warps=warps, trace_scale=trace_scale,
                         memory_seed=memory_seed)
        grid = run_grid((benchmark,), ("baseline", "bow"), (window_size,),
                        scale=scale)
        base = grid.get(benchmark, "baseline")
        bow = grid.get(benchmark, "bow", window_size)
        points.append((warps, base.ipc, bow.ipc, bow.ipc / base.ipc - 1.0))
    return WarpScaling(benchmark=benchmark, points=points)


@dataclass(frozen=True)
class EffectiveRfStudy:
    """Transient-register savings per benchmark (SS IV-B.2a)."""

    results: Dict[str, AllocationResult]

    def average_transient_fraction(self) -> float:
        return sum(
            r.transient_write_fraction for r in self.results.values()
        ) / len(self.results)

    def format(self) -> str:
        rows = [
            [bench,
             result.total_registers,
             result.transient_registers,
             format_percent(result.register_savings),
             format_percent(result.transient_write_fraction)]
            for bench, result in self.results.items()
        ]
        rows.append(["AVERAGE", "", "", "",
                     format_percent(self.average_transient_fraction())])
        return format_table(
            ["benchmark", "registers", "transient", "RF slots saved",
             "transient writes"],
            rows,
            title="Effective RF size: transient-register elision (IW=3)",
        )


def effective_rf_study(
    window_size: int = 3,
    benchmarks: Optional[Tuple[str, ...]] = None,
) -> EffectiveRfStudy:
    """Quantify RF allocation released by transient values per benchmark."""
    benchmarks = benchmarks or benchmark_names()
    results = {
        bench: effective_register_demand(
            generate_kernel(get_profile(bench).spec), window_size
        )
        for bench in benchmarks
    }
    return EffectiveRfStudy(results=results)
