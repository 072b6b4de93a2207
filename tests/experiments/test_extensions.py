"""Tests for the extension studies (warp scaling, SIMT suite study)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.ablations import warp_scaling
from repro.experiments.runner import clear_cache
from repro.experiments.simt_study import simt_suite_study


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestWarpScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return warp_scaling("SAD", warp_counts=(4, 12), trace_scale=0.1)

    def test_ipc_grows_with_warps(self, result):
        ipcs = [point[1] for point in result.points]
        assert ipcs == sorted(ipcs)

    def test_bow_gains_at_every_occupancy(self, result):
        for warps, _, _, gain in result.points:
            assert gain > 0, warps

    def test_format(self, result):
        assert "warps" in result.format()


class TestSimtStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return simt_suite_study(benchmarks=("BFS", "SAD"), warps=1,
                                max_instructions=1500)

    def test_efficiency_in_range(self, result):
        for bench, value in result.efficiency.items():
            assert 0.0 < value <= 1.0, bench

    def test_divergent_loops_hurt_efficiency(self, result):
        # Per-lane trip counts make these loops far from lock-step.
        assert result.average_efficiency() < 0.9

    def test_coalescing_stats_present(self, result):
        for bench in result.avg_transactions:
            assert result.avg_transactions[bench] >= 1.0
            assert 0.0 <= result.coalesced_fraction[bench] <= 1.0

    def test_format_lists_benchmarks(self, result):
        text = result.format()
        assert "BFS" in text and "SAD" in text

    def test_same_study_under_any_hash_seed(self):
        """Branch outcomes must not depend on per-process str hashing."""
        script = ("from repro.experiments.simt_study import simt_suite_study;"
                  "print(simt_suite_study(benchmarks=('LIB', 'BFS'), warps=1,"
                  " max_instructions=1500).format())")
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script], check=True,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": src},
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        assert "LIB" in outputs[0]


class TestReorderStudy:
    def test_average_never_negative(self):
        from repro.experiments.ablations import reorder_study

        result = reorder_study(benchmarks=("WP", "BTREE", "SAD"))
        assert result.average_gain() >= 0.0
        assert "moved" in result.format()


class TestDceStudy:
    def test_dce_lowers_or_keeps_write_bypass(self):
        from repro.experiments.ablations import dce_study

        result = dce_study(benchmarks=("WP", "VECTORADD"))
        for bench, dead, before, after in result.rows:
            assert 0.0 <= dead < 0.6, bench
        assert "dead instructions" in result.format()


class TestRegistryExtensions:
    def test_extensions_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        for key in ("warps", "simt", "table3", "reorder", "dce", "summary"):
            assert key in EXPERIMENTS, key
