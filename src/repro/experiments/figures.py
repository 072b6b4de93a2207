"""Drivers regenerating every figure of the paper's evaluation.

Each ``figN_*`` function returns a result object holding the same series
the paper plots, a ``format()`` ASCII rendering, and (where the paper
states headline numbers) the aggregate our EXPERIMENTS.md compares
against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from ..config import bow_wr_config
from ..core.occupancy import (
    OccupancySample,
    boc_occupancy_histogram,
    source_operand_histogram,
)
from ..core.window import (
    read_bypass_counts,
    stream_window_gaps,
    write_bypass_opportunity_counts,
)
from ..energy.model import EnergyModel
from ..isa import WritebackHint
from ..isa.registers import SINK_REGISTER
from ..kernels.suites import benchmark_names
from ..stats.metrics import RunMetrics
from ..stats.report import format_barchart, format_percent, format_table
from .grid import run_grid
from .runner import QUICK, RunScale, benchmark_trace

_DEFAULT_WINDOWS = (2, 3, 4, 5, 6, 7)
_IPC_WINDOWS = (2, 3, 4)

#: The per-window entry points ``perfbench/layers.py`` patches on this
#: module to time ``core.window``; Figure 3 itself runs
#: :func:`~repro.core.window.stream_window_gaps` over each benchmark's
#: warps instead.
_PROBED_WINDOW_ANALYSES = (read_bypass_counts, write_bypass_opportunity_counts)


# ---------------------------------------------------------------------------
# Figure 1 — on-chip memory sizes across GPU generations (intro context)
# ---------------------------------------------------------------------------

#: MB of on-chip storage per generation (flagship of each line), as the
#: paper's Figure 1 charts them: the RF grows to dominate on-chip state.
ONCHIP_MEMORY_MB: Dict[str, Dict[str, float]] = {
    "FERMI (2010)": {"l1d+shared": 1.0, "l2": 0.75, "register_file": 2.0},
    "KEPLER (2012)": {"l1d+shared": 0.94, "l2": 1.5, "register_file": 3.75},
    "MAXWELL (2014)": {"l1d+shared": 2.25, "l2": 3.0, "register_file": 6.0},
    "PASCAL (2016)": {"l1d+shared": 4.9, "l2": 4.0, "register_file": 14.0},
    "VOLTA (2018)": {"l1d+shared": 10.0, "l2": 6.0, "register_file": 20.0},
}


@dataclass(frozen=True)
class Fig1Result:
    """On-chip memory sizes by generation (MB)."""

    sizes_mb: Dict[str, Dict[str, float]]

    def rf_fraction(self, generation: str) -> float:
        row = self.sizes_mb[generation]
        return row["register_file"] / sum(row.values())

    def format(self) -> str:
        rows = [
            [gen, row["l1d+shared"], row["l2"], row["register_file"],
             format_percent(self.rf_fraction(gen))]
            for gen, row in self.sizes_mb.items()
        ]
        return format_table(
            ["generation", "L1D+shared MB", "L2 MB", "RF MB", "RF share"],
            rows,
            title="Figure 1: on-chip memory per NVIDIA generation",
        )


def fig1_onchip_memory() -> Fig1Result:
    """The Figure 1 dataset (static: published GPU configurations)."""
    return Fig1Result(sizes_mb=ONCHIP_MEMORY_MB)


# ---------------------------------------------------------------------------
# Figure 3 — eliminated read/write requests vs window size
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig3Result:
    """Bypass opportunity per benchmark and window size.

    ``reads[bench][iw]`` / ``writes[bench][iw]`` are elimination
    fractions; ``average`` rows aggregate over the suite.
    """

    windows: Tuple[int, ...]
    reads: Dict[str, Dict[int, float]]
    writes: Dict[str, Dict[int, float]]

    def average_reads(self, window_size: int) -> float:
        return sum(b[window_size] for b in self.reads.values()) / len(self.reads)

    def average_writes(self, window_size: int) -> float:
        return sum(b[window_size] for b in self.writes.values()) / len(self.writes)

    def format(self) -> str:
        headers = ["benchmark"] + [f"IW{iw}" for iw in self.windows]
        read_rows = [
            [bench] + [format_percent(per_iw[iw]) for iw in self.windows]
            for bench, per_iw in self.reads.items()
        ]
        read_rows.append(
            ["AVERAGE"]
            + [format_percent(self.average_reads(iw)) for iw in self.windows]
        )
        write_rows = [
            [bench] + [format_percent(per_iw[iw]) for iw in self.windows]
            for bench, per_iw in self.writes.items()
        ]
        write_rows.append(
            ["AVERAGE"]
            + [format_percent(self.average_writes(iw)) for iw in self.windows]
        )
        return (
            format_table(headers, read_rows,
                         title="Figure 3 (top): eliminated read requests")
            + "\n\n"
            + format_table(headers, write_rows,
                           title="Figure 3 (bottom): eliminated write requests")
        )


def fig3_bypass_opportunity(
    windows: Tuple[int, ...] = _DEFAULT_WINDOWS,
    scale: RunScale = QUICK,
) -> Fig3Result:
    """Reproduce Figure 3 by sliding-window analysis of the suite traces.

    One reuse-gap pass over each benchmark's warps (read through their
    block segments) answers every window in ``windows``.
    """
    reads: Dict[str, Dict[int, float]] = {}
    writes: Dict[str, Dict[int, float]] = {}
    for bench in benchmark_names():
        gaps = stream_window_gaps(benchmark_trace(bench, scale))
        reads[bench] = {iw: gaps.read_hits(iw) / max(1, gaps.reads)
                        for iw in windows}
        writes[bench] = {iw: gaps.write_hits(iw) / max(1, gaps.writes)
                         for iw in windows}
    return Fig3Result(windows=windows, reads=reads, writes=writes)


# ---------------------------------------------------------------------------
# Figure 4 — time spent in the operand-collection stage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig4Result:
    """Fraction of instruction execution time spent in the OC stage."""

    overall: Dict[str, float]
    memory: Dict[str, float]
    non_memory: Dict[str, float]

    def average_overall(self) -> float:
        return sum(self.overall.values()) / len(self.overall)

    def format(self) -> str:
        rows = [
            [bench,
             format_percent(self.non_memory[bench]),
             format_percent(self.memory[bench]),
             format_percent(self.overall[bench])]
            for bench in self.overall
        ]
        rows.append(["AVERAGE",
                     format_percent(sum(self.non_memory.values()) / len(self.non_memory)),
                     format_percent(sum(self.memory.values()) / len(self.memory)),
                     format_percent(self.average_overall())])
        return format_table(
            ["benchmark", "non-memory", "memory", "overall"],
            rows,
            title="Figure 4: time in operand-collection stage (baseline)",
        )


def fig4_oc_latency(scale: RunScale = QUICK) -> Fig4Result:
    """Reproduce Figure 4 from baseline timing runs."""
    grid = run_grid(benchmark_names(), ("baseline",), scale=scale)
    overall: Dict[str, float] = {}
    memory: Dict[str, float] = {}
    non_memory: Dict[str, float] = {}
    for bench in benchmark_names():
        counters = grid.get(bench, "baseline").counters
        lifetime = max(1, counters.lifetime_cycles)
        lifetime_mem = max(1, counters.lifetime_cycles_memory)
        lifetime_non = max(1, lifetime - counters.lifetime_cycles_memory)
        oc_non = counters.oc_wait_cycles - counters.oc_wait_cycles_memory
        overall[bench] = counters.oc_wait_cycles / lifetime
        memory[bench] = counters.oc_wait_cycles_memory / lifetime_mem
        non_memory[bench] = oc_non / lifetime_non
    return Fig4Result(overall=overall, memory=memory, non_memory=non_memory)


# ---------------------------------------------------------------------------
# Figure 7 — distribution of write destinations under BOW-WR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig7Result:
    """Three-way writeback split per benchmark (dynamic-weighted)."""

    rf_only: Dict[str, float]
    both: Dict[str, float]
    oc_only: Dict[str, float]

    def averages(self) -> Tuple[float, float, float]:
        n = len(self.rf_only)
        return (
            sum(self.rf_only.values()) / n,
            sum(self.both.values()) / n,
            sum(self.oc_only.values()) / n,
        )

    def format(self) -> str:
        rows = [
            [bench,
             format_percent(self.rf_only[bench]),
             format_percent(self.both[bench]),
             format_percent(self.oc_only[bench])]
            for bench in self.rf_only
        ]
        avg = self.averages()
        rows.append(["AVERAGE"] + [format_percent(v) for v in avg])
        return format_table(
            ["benchmark", "RF only", "OC then RF", "OC only (transient)"],
            rows,
            title="Figure 7: write destinations under BOW-WR (IW=3)",
        )


def fig7_write_destinations(
    window_size: int = 3, scale: RunScale = QUICK
) -> Fig7Result:
    """Reproduce Figure 7: hint bits weighted by dynamic execution.

    Each warp's block segments give every body's dynamic repeats, so
    each distinct body's instructions are tested once and weighted by
    how often the warps run it.
    """
    rf_only: Dict[str, float] = {}
    both: Dict[str, float] = {}
    oc_only: Dict[str, float] = {}
    for bench in benchmark_names():
        trace = benchmark_trace(bench, scale, window_size=window_size)
        counts = {WritebackHint.RF_ONLY: 0, WritebackHint.BOTH: 0,
                  WritebackHint.OC_ONLY: 0}
        bodies: Dict[int, list] = {}
        for warp in trace:
            for body, repeats in warp.segments:
                bodies.setdefault(id(body), [body, 0])[1] += repeats
        for body, repeats in bodies.values():
            for inst in body:
                if inst.dest is not None and inst.dest != SINK_REGISTER:
                    counts[inst.hint] += repeats
        total = max(1, sum(counts.values()))
        rf_only[bench] = counts[WritebackHint.RF_ONLY] / total
        both[bench] = counts[WritebackHint.BOTH] / total
        oc_only[bench] = counts[WritebackHint.OC_ONLY] / total
    return Fig7Result(rf_only=rf_only, both=both, oc_only=oc_only)


# ---------------------------------------------------------------------------
# Figure 8 — OCU occupancy (source operands per instruction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig8Result:
    """Source-operand count distribution per benchmark."""

    histograms: Dict[str, Dict[int, float]]

    def average(self, operands: int) -> float:
        return sum(h[operands] for h in self.histograms.values()) / len(
            self.histograms
        )

    def format(self) -> str:
        rows = [
            [bench] + [format_percent(hist[k]) for k in (0, 1, 2, 3)]
            for bench, hist in self.histograms.items()
        ]
        rows.append(["AVERAGE"] + [format_percent(self.average(k))
                                   for k in (0, 1, 2, 3)])
        return format_table(
            ["benchmark", "0 src", "1 src", "2 src", "3 src"],
            rows,
            title="Figure 8: OCU source-operand occupancy",
        )


def fig8_ocu_occupancy(scale: RunScale = QUICK) -> Fig8Result:
    """Reproduce Figure 8 by a census over the suite's dynamic traces."""
    histograms = {
        bench: source_operand_histogram(benchmark_trace(bench, scale))
        for bench in benchmark_names()
    }
    return Fig8Result(histograms=histograms)


# ---------------------------------------------------------------------------
# Figure 9 — BOC entry occupancy at IW=3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig9Result:
    """Per-benchmark BOC occupancy samples (conservative 12-entry BOC)."""

    samples: Dict[str, OccupancySample]

    def fraction_above_half(self, bench: str) -> float:
        sample = self.samples[bench]
        return sample.fraction_above(sample.capacity // 2)

    def average_above_half(self) -> float:
        return sum(
            self.fraction_above_half(b) for b in self.samples
        ) / len(self.samples)

    def max_observed(self) -> int:
        return max(sample.max_observed for sample in self.samples.values())

    def format(self) -> str:
        rows = []
        for bench, sample in self.samples.items():
            rows.append([
                bench,
                sample.max_observed,
                format_percent(self.fraction_above_half(bench)),
            ])
        rows.append(["AVERAGE", self.max_observed(),
                     format_percent(self.average_above_half())])
        return format_table(
            ["benchmark", "max entries used", "> half capacity"],
            rows,
            title="Figure 9: BOC occupancy (IW=3, 12-entry BOC)",
        )


def fig9_boc_occupancy(
    window_size: int = 3, scale: RunScale = QUICK
) -> Fig9Result:
    """Reproduce Figure 9 by sampling BOC entry usage during BOW-WR runs."""
    samples: Dict[str, OccupancySample] = {}
    for bench in benchmark_names():
        trace = benchmark_trace(bench, scale, window_size=window_size)
        samples[bench] = boc_occupancy_histogram(
            trace,
            bow=bow_wr_config(window_size),
            memory_seed=scale.memory_seed,
        )
    return Fig9Result(samples=samples)


# ---------------------------------------------------------------------------
# Figures 10/11 — IPC improvement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IpcResult:
    """IPC improvement over the baseline per benchmark and window size."""

    design: str
    windows: Tuple[int, ...]
    improvement: Dict[str, Dict[int, float]]

    def average(self, window_size: int) -> float:
        return sum(b[window_size] for b in self.improvement.values()) / len(
            self.improvement
        )

    def format(self) -> str:
        headers = ["benchmark"] + [f"IW{iw}" for iw in self.windows]
        rows = [
            [bench] + [format_percent(per_iw[iw]) for iw in self.windows]
            for bench, per_iw in self.improvement.items()
        ]
        rows.append(
            ["AVERAGE"]
            + [format_percent(self.average(iw)) for iw in self.windows]
        )
        table = format_table(
            headers, rows, title=f"IPC improvement: {self.design}"
        )
        chart_iw = 3 if 3 in self.windows else self.windows[0]
        chart = format_barchart(
            [(bench, max(0.0, per_iw[chart_iw]))
             for bench, per_iw in self.improvement.items()],
            title=f"\nIW{chart_iw}:",
        )
        return table + "\n" + chart


def _ipc_improvement(
    design: str, windows: Tuple[int, ...], scale: RunScale
) -> IpcResult:
    grid = run_grid(benchmark_names(), ("baseline", design), windows,
                    scale=scale)
    improvement: Dict[str, Dict[int, float]] = {}
    for bench in benchmark_names():
        base = grid.get(bench, "baseline")
        improvement[bench] = {
            iw: grid.get(bench, design, iw).ipc / base.ipc - 1.0
            for iw in windows
        }
    return IpcResult(design=design, windows=windows, improvement=improvement)


def fig10_ipc_improvement(
    windows: Tuple[int, ...] = _IPC_WINDOWS, scale: RunScale = QUICK
) -> Tuple[IpcResult, IpcResult]:
    """Reproduce Figure 10: (a) BOW and (b) BOW-WR IPC improvements."""
    return (
        _ipc_improvement("bow", windows, scale),
        _ipc_improvement("bow-wr", windows, scale),
    )


def fig10_device_ipc(
    num_sms: int = 4,
    windows: Tuple[int, ...] = (3,),
    scale: RunScale = QUICK,
) -> Tuple[IpcResult, IpcResult]:
    """Figure 10 regenerated at device scale.

    The same ``benchmark x design x IW`` grid, but every point is
    partitioned across ``num_sms`` SMs by the device layer
    (:mod:`repro.gpu.device`), so the IPC entering each improvement
    ratio is *device* IPC — total instructions over the slowest SM's
    finish time — rather than a one-SM proxy.  The baseline is the
    unmodified GPU at the *same* SM count, so the ratios isolate the
    register-file subsystem exactly as the single-SM figure does.
    """
    device = replace(scale, num_sms=num_sms)
    return (
        _ipc_improvement("bow", windows, device),
        _ipc_improvement("bow-wr", windows, device),
    )


def fig11_halfsize_ipc(
    window_size: int = 3, scale: RunScale = QUICK
) -> IpcResult:
    """Reproduce Figure 11: BOW-WR with the 6-entry (half-size) BOC."""
    return _ipc_improvement("bow-wr-half", (window_size,), scale)


# ---------------------------------------------------------------------------
# Figure 12 — cycles spent in the OC stage, normalized
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig12Result:
    """OC residency (per instruction) normalized to the baseline."""

    windows: Tuple[int, ...]
    residency: Dict[str, Dict[int, float]]

    def average(self, window_size: int) -> float:
        return sum(b[window_size] for b in self.residency.values()) / len(
            self.residency
        )

    def format(self) -> str:
        headers = ["benchmark"] + [f"IW{iw}" for iw in self.windows]
        rows = [
            [bench] + [per_iw[iw] for iw in self.windows]
            for bench, per_iw in self.residency.items()
        ]
        rows.append(["AVERAGE"] + [self.average(iw) for iw in self.windows])
        return format_table(
            headers, rows,
            title="Figure 12: OC-stage cycles normalized to baseline (BOW)",
        )


def fig12_oc_residency(
    windows: Tuple[int, ...] = _IPC_WINDOWS, scale: RunScale = QUICK
) -> Fig12Result:
    """Reproduce Figure 12 from the BOW runs' residency counters."""
    grid = run_grid(benchmark_names(), ("baseline", "bow"), windows,
                    scale=scale)
    residency: Dict[str, Dict[int, float]] = {}
    for bench in benchmark_names():
        base = RunMetrics.from_counters(grid.get(bench, "baseline").counters)
        residency[bench] = {
            iw: RunMetrics.from_counters(
                grid.get(bench, "bow", iw).counters
            ).oc_residency_vs(base)
            for iw in windows
        }
    return Fig12Result(windows=windows, residency=residency)


# ---------------------------------------------------------------------------
# Figure 13 — normalized RF dynamic energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig13Result:
    """Normalized RF dynamic energy with overhead split, per design."""

    design: str
    rf_fraction: Dict[str, float]
    overhead_fraction: Dict[str, float]

    def total(self, bench: str) -> float:
        return self.rf_fraction[bench] + self.overhead_fraction[bench]

    def average_total(self) -> float:
        return sum(self.total(b) for b in self.rf_fraction) / len(self.rf_fraction)

    def average_overhead(self) -> float:
        return sum(self.overhead_fraction.values()) / len(self.overhead_fraction)

    def average_savings(self) -> float:
        return 1.0 - self.average_total()

    def format(self) -> str:
        rows = [
            [bench,
             format_percent(self.rf_fraction[bench]),
             format_percent(self.overhead_fraction[bench]),
             format_percent(self.total(bench))]
            for bench in self.rf_fraction
        ]
        rows.append(["AVERAGE",
                     format_percent(self.average_total() - self.average_overhead()),
                     format_percent(self.average_overhead()),
                     format_percent(self.average_total())])
        table = format_table(
            ["benchmark", "RF dynamic", "overhead", "total"],
            rows,
            title=f"Figure 13: normalized RF dynamic energy ({self.design})",
        )
        chart = format_barchart(
            [(bench, self.total(bench)) for bench in self.rf_fraction],
            title="\nnormalized total (shorter is better):",
            max_value=1.0,
        )
        return table + "\n" + chart


def fig13_energy(
    window_size: int = 3, scale: RunScale = QUICK
) -> Tuple[Fig13Result, Fig13Result]:
    """Reproduce Figure 13: (a) BOW and (b) BOW-WR normalized energy."""
    grid = run_grid(benchmark_names(), ("baseline", "bow", "bow-wr"),
                    (window_size,), scale=scale)
    results = []
    for design in ("bow", "bow-wr"):
        model = EnergyModel()
        rf_fraction: Dict[str, float] = {}
        overhead_fraction: Dict[str, float] = {}
        for bench in benchmark_names():
            base = grid.get(bench, "baseline").counters
            counters = grid.get(bench, design, window_size).counters
            normalized = model.normalized(counters, base)
            rf_fraction[bench] = normalized.rf_energy_pj
            overhead_fraction[bench] = normalized.overhead_pj
        results.append(Fig13Result(design=design, rf_fraction=rf_fraction,
                                   overhead_fraction=overhead_fraction))
    return results[0], results[1]


# ---------------------------------------------------------------------------
# RFC comparison (SS V-A)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RfcResult:
    """RFC vs BOW-WR: IPC gain, energy savings, storage overhead."""

    rfc_ipc_gain: Dict[str, float]
    bow_wr_ipc_gain: Dict[str, float]
    rfc_energy_savings: float
    bow_wr_energy_savings: float
    rfc_storage_kb: float
    bow_wr_half_storage_kb: float

    def average_rfc_gain(self) -> float:
        return sum(self.rfc_ipc_gain.values()) / len(self.rfc_ipc_gain)

    def average_bow_wr_gain(self) -> float:
        return sum(self.bow_wr_ipc_gain.values()) / len(self.bow_wr_ipc_gain)

    def format(self) -> str:
        rows = [
            [bench,
             format_percent(self.rfc_ipc_gain[bench]),
             format_percent(self.bow_wr_ipc_gain[bench])]
            for bench in self.rfc_ipc_gain
        ]
        rows.append(["AVERAGE",
                     format_percent(self.average_rfc_gain()),
                     format_percent(self.average_bow_wr_gain())])
        table = format_table(
            ["benchmark", "RFC IPC gain", "BOW-WR IPC gain"],
            rows,
            title="RFC comparison (SS V-A)",
        )
        summary = (
            f"\nRFC energy savings: {format_percent(self.rfc_energy_savings)}"
            f" | BOW-WR: {format_percent(self.bow_wr_energy_savings)}"
            f"\nRFC storage: {self.rfc_storage_kb:.0f} KB"
            f" | BOW-WR half-size: {self.bow_wr_half_storage_kb:.0f} KB"
        )
        return table + summary


def rfc_comparison(
    window_size: int = 3, scale: RunScale = QUICK
) -> RfcResult:
    """Reproduce the SS V-A comparison against register-file caching."""
    from ..core.rfc import RFC_ENTRIES_PER_WARP

    grid = run_grid(benchmark_names(), ("baseline", "rfc", "bow-wr"),
                    (window_size,), scale=scale)
    model = EnergyModel()
    rfc_gain: Dict[str, float] = {}
    wr_gain: Dict[str, float] = {}
    rfc_energy = []
    wr_energy = []
    for bench in benchmark_names():
        base = grid.get(bench, "baseline")
        rfc = grid.get(bench, "rfc")
        wr = grid.get(bench, "bow-wr", window_size)
        rfc_gain[bench] = rfc.ipc / base.ipc - 1.0
        wr_gain[bench] = wr.ipc / base.ipc - 1.0
        rfc_energy.append(model.savings(rfc.counters, base.counters))
        wr_energy.append(model.savings(wr.counters, base.counters))

    warp_reg_bytes = 128
    rfc_storage = RFC_ENTRIES_PER_WARP * warp_reg_bytes * 32 / 1024
    # BOW-WR's overhead is the storage *added over* the conventional
    # collectors (3 entries each), the paper's 12 KB figure.
    half = bow_wr_config(window_size, half_size=True)
    half_storage = (half.total_boc_bytes() - 3 * warp_reg_bytes * 32) / 1024
    return RfcResult(
        rfc_ipc_gain=rfc_gain,
        bow_wr_ipc_gain=wr_gain,
        rfc_energy_savings=sum(rfc_energy) / len(rfc_energy),
        bow_wr_energy_savings=sum(wr_energy) / len(wr_energy),
        rfc_storage_kb=rfc_storage,
        bow_wr_half_storage_kb=half_storage,
    )
