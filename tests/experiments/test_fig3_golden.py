"""Figure 3 at QUICK pinned to committed integer counts.

``tests/data/fig3_quick.json`` holds, per benchmark and window size,
the ``(hits, total)`` read and write pairs produced by the per-window
analyses the reuse-gap pass replaced.  Figure 3 must reproduce them
exactly: the fractions it reports are those integers divided, so any
drift in the window rules shows here as an inequality, not a rounding.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.core import window
from repro.core.window import stream_window_gaps, window_gaps
from repro.experiments.figures import Fig3Result, fig3_bypass_opportunity
from repro.experiments.runner import QUICK, benchmark_trace
from repro.kernels.suites import benchmark_names

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "data" / "fig3_quick.json").read_text()
)
WINDOWS = tuple(GOLDEN["windows"])


@pytest.fixture(scope="module")
def fig3():
    return fig3_bypass_opportunity(windows=WINDOWS, scale=QUICK)


def test_golden_covers_the_suite():
    assert GOLDEN["scale"] == "QUICK"
    assert sorted(GOLDEN["benchmarks"]) == sorted(benchmark_names())


@pytest.mark.parametrize("bench", sorted(GOLDEN["benchmarks"]))
def test_fig3_fractions_reproduce_golden_counts(fig3, bench):
    pinned = GOLDEN["benchmarks"][bench]
    for iw in WINDOWS:
        read_hits, read_total = pinned[str(iw)]["reads"]
        write_hits, write_total = pinned[str(iw)]["writes"]
        assert fig3.reads[bench][iw] == read_hits / max(1, read_total)
        assert fig3.writes[bench][iw] == write_hits / max(1, write_total)


@pytest.mark.parametrize("bench", sorted(GOLDEN["benchmarks"]))
def test_gap_pass_reproduces_golden_counts(bench):
    totals = {iw: [0, 0, 0, 0] for iw in WINDOWS}
    for warp in benchmark_trace(bench, QUICK):
        gaps = window_gaps(warp.instructions)
        for iw in WINDOWS:
            counts = (gaps.read_hits(iw), gaps.reads,
                      gaps.write_hits(iw), gaps.writes)
            totals[iw] = [a + b for a, b in zip(totals[iw], counts)]
    for iw in WINDOWS:
        pinned = GOLDEN["benchmarks"][bench][str(iw)]
        assert totals[iw] == pinned["reads"] + pinned["writes"]


def _per_warp_fig3(windows):
    """Figure 3 from one gap pass per warp: the reference the shared
    per-distinct-stream pass must reproduce exactly."""
    reads, writes = {}, {}
    for bench in benchmark_names():
        read_hits = dict.fromkeys(windows, 0)
        write_hits = dict.fromkeys(windows, 0)
        read_total = write_total = 0
        for warp in benchmark_trace(bench, QUICK):
            gaps = window_gaps(warp.instructions)
            read_total += gaps.reads
            write_total += gaps.writes
            for iw in windows:
                read_hits[iw] += gaps.read_hits(iw)
                write_hits[iw] += gaps.write_hits(iw)
        reads[bench] = {iw: read_hits[iw] / max(1, read_total)
                        for iw in windows}
        writes[bench] = {iw: write_hits[iw] / max(1, write_total)
                         for iw in windows}
    return Fig3Result(windows=windows, reads=reads, writes=writes)


def test_distinct_streams_equal_per_warp_loop():
    assert fig3_bypass_opportunity() == _per_warp_fig3((2, 3, 4, 5, 6, 7))
    assert (fig3_bypass_opportunity(windows=(1, 9, 12))
            == _per_warp_fig3((1, 9, 12)))


def test_streams_are_shared_and_weighted(monkeypatch):
    warps = benchmark_trace("SAD", QUICK).warps
    summarized = []
    summarize = window._Body

    def counting(body):
        summarized.append(body)
        return summarize(body)

    monkeypatch.setattr(window, "_Body", counting)
    combined = stream_window_gaps(warps)
    # One summary per distinct block body, however many warps run it.
    bodies = {id(body) for warp in warps for body, _ in warp.segments}
    assert len(summarized) == len(bodies) < len(warps)
    per_warp = [window_gaps(warp) for warp in warps]
    assert combined.reads == sum(gaps.reads for gaps in per_warp)
    for iw in (1, 3, 12):
        assert combined.read_hits(iw) == sum(gaps.read_hits(iw)
                                             for gaps in per_warp)
        assert combined.write_hits(iw) == sum(gaps.write_hits(iw)
                                              for gaps in per_warp)
    # Equal but distinct instruction lists are summarized separately.
    summarized.clear()
    copies = [list(map(copy.copy, warps[0].instructions)),
              warps[0].instructions, warps[0].instructions]
    stream_window_gaps(copies)
    assert len(summarized) == 2
