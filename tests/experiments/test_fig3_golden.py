"""Figure 3 at QUICK pinned to committed integer counts.

``tests/data/fig3_quick.json`` holds, per benchmark and window size,
the ``(hits, total)`` read and write pairs produced by the per-window
analyses the reuse-gap pass replaced.  Figure 3 must reproduce them
exactly: the fractions it reports are those integers divided, so any
drift in the window rules shows here as an inequality, not a rounding.
"""

import json
from pathlib import Path

import pytest

from repro.core.window import window_gaps
from repro.experiments.figures import fig3_bypass_opportunity
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
