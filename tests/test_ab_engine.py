"""Tests for the paired engine A/B tool (``tools/ab_engine.py``).

The tool lives outside the package, so it is loaded by file path, as
``tests/test_bench_gate.py`` loads the bench gate.  Only its summary
math is pinned here; the timing runs themselves need two checkouts.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).parent.parent / "tools" / "ab_engine.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ab_engine", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [4.0, 4.4, 4.2, 4.6, 4.1]
CHANGE = [3.8, 4.5, 3.9, 4.3, 4.1]


class TestSummarize:
    def test_quartiles_interpolate_linearly(self, tool):
        summary = tool.summarize(BASE, CHANGE)
        # sorted base: 4.0 4.1 4.2 4.4 4.6 -> q1 at rank 1, q3 at rank 3
        assert summary["base"] == pytest.approx((4.1, 4.2, 4.4))
        assert summary["change"] == pytest.approx((3.9, 4.1, 4.3))

    def test_ratios_are_change_over_base_per_pair(self, tool):
        summary = tool.summarize(BASE, CHANGE)
        assert summary["ratios"] == pytest.approx(
            [0.95, 4.5 / 4.4, 3.9 / 4.2, 4.3 / 4.6, 1.0])
        assert summary["median_ratio"] == pytest.approx(0.95)

    def test_a_tie_is_not_a_win(self, tool):
        summary = tool.summarize(BASE, CHANGE)
        assert summary["wins"] == 3
        assert summary["pairs"] == 5

    def test_even_count_median_is_the_midpoint(self, tool):
        summary = tool.summarize([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
        assert summary["base"] == pytest.approx((1.75, 2.5, 3.25))

    def test_single_pair(self, tool):
        summary = tool.summarize([2.0], [1.0])
        assert summary["base"] == (2.0, 2.0, 2.0)
        assert summary["ratios"] == [0.5]
        assert summary["wins"] == 1

    @pytest.mark.parametrize("base, change", [([], []), ([1.0], [1.0, 2.0])])
    def test_unpaired_series_rejected(self, tool, base, change):
        with pytest.raises(ValueError):
            tool.summarize(base, change)

    def test_report_names_both_sides_and_the_win_count(self, tool):
        lines = tool.format_summary(tool.summarize(BASE, CHANGE))
        assert lines[0].strip().startswith("base: median 4.200 s")
        assert lines[1].startswith("change: median 4.100 s")
        assert lines[-1] == ("median ratio 0.950; change faster in "
                             "3 of 5 pairs")
