"""Tests for the analysis-only (fast) experiment drivers."""

from collections import Counter

import pytest

from repro.errors import ExperimentError
from repro.experiments.figures import (
    fig1_onchip_memory,
    fig3_bypass_opportunity,
    fig7_write_destinations,
    fig8_ocu_occupancy,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import QUICK, RunScale, benchmark_trace
from repro.experiments.tables import (
    table1_btree,
    table2_configuration,
    table4_overheads,
)
from repro.isa import WritebackHint
from repro.isa.registers import SINK_REGISTER
from repro.kernels.suites import benchmark_names

TINY = RunScale(num_warps=2, trace_scale=0.15)


class TestFig1:
    def test_five_generations(self):
        result = fig1_onchip_memory()
        assert len(result.sizes_mb) == 5

    def test_pascal_rf_dominates(self):
        result = fig1_onchip_memory()
        # The paper: Pascal RF ~14 MB, ~63% of on-chip storage.
        assert result.sizes_mb["PASCAL (2016)"]["register_file"] == 14.0
        assert result.rf_fraction("PASCAL (2016)") > 0.55

    def test_rf_grows_monotonically(self):
        result = fig1_onchip_memory()
        sizes = [row["register_file"] for row in result.sizes_mb.values()]
        assert sizes == sorted(sizes)

    def test_format(self):
        assert "PASCAL" in fig1_onchip_memory().format()


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3_bypass_opportunity(windows=(2, 3, 7), scale=TINY)

    def test_all_benchmarks_present(self, result):
        assert len(result.reads) == 15
        assert len(result.writes) == 15

    def test_average_read_bypass_near_paper(self, result):
        # Paper: 45% at IW2, 59% at IW3, >70% at IW7.
        assert result.average_reads(2) == pytest.approx(0.45, abs=0.12)
        assert result.average_reads(3) == pytest.approx(0.59, abs=0.10)
        assert result.average_reads(7) > 0.60

    def test_average_write_bypass_near_paper(self, result):
        # Paper: 35% at IW2, 52% at IW3.  Our generator's consolidation
        # distances skew short (and short test traces inflate dead
        # writes), so the IW2 value runs high; the IW3 value and the
        # ordering hold.
        assert 0.30 <= result.average_writes(2) <= 0.65
        assert result.average_writes(3) == pytest.approx(0.52, abs=0.15)
        assert result.average_writes(2) < result.average_writes(3)

    def test_monotone_in_window(self, result):
        for bench, per_iw in result.reads.items():
            assert per_iw[2] <= per_iw[3] <= per_iw[7], bench

    def test_format_contains_average(self, result):
        assert "AVERAGE" in result.format()


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7_write_destinations(scale=TINY)

    def test_fractions_sum_to_one(self, result):
        for bench in result.rf_only:
            total = (result.rf_only[bench] + result.both[bench]
                     + result.oc_only[bench])
            assert total == pytest.approx(1.0)

    def test_averages_near_paper(self, result):
        # Paper: 21% RF-only, 27% both, 52% transient.
        rf_only, both, oc_only = result.averages()
        assert rf_only == pytest.approx(0.21, abs=0.12)
        assert oc_only == pytest.approx(0.52, abs=0.12)

    def test_transient_share_dominates(self, result):
        _, _, oc_only = result.averages()
        assert oc_only > 0.4

    def test_matches_per_dynamic_instruction_count(self):
        # The figure tests each block body once, weighted by its
        # segment repeats; that must equal testing every dynamic
        # instruction.
        result = fig7_write_destinations(scale=QUICK)
        for bench in benchmark_names():
            trace = benchmark_trace(bench, QUICK, window_size=3)
            counts = Counter(
                inst.hint for warp in trace for inst in warp
                if inst.dest is not None and inst.dest != SINK_REGISTER
            )
            total = max(1, sum(counts.values()))
            assert result.rf_only[bench] == (
                counts[WritebackHint.RF_ONLY] / total)
            assert result.both[bench] == counts[WritebackHint.BOTH] / total
            assert result.oc_only[bench] == (
                counts[WritebackHint.OC_ONLY] / total)


class TestFig8:
    def test_three_source_share_small(self):
        result = fig8_ocu_occupancy(scale=TINY)
        # Paper: ~2% of instructions need all three entries.
        assert result.average(3) < 0.06

    def test_bfs_btree_lps_have_none(self):
        result = fig8_ocu_occupancy(scale=TINY)
        for bench in ("BFS", "BTREE", "LPS"):
            assert result.histograms[bench][3] == 0.0


class TestTables:
    def test_table1_matches_paper_compiler_column(self):
        result = table1_btree()
        assert result.total("compiler") == 2
        assert result.counts["compiler"] == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}

    def test_table1_ordering(self):
        result = table1_btree()
        assert (result.total("write-through") > result.total("write-back")
                > result.total("compiler"))

    def test_table1_format(self):
        text = table1_btree().format()
        assert "$r1" in text and "Total" in text

    def test_table2_echoes_config(self):
        text = table2_configuration().format()
        assert "56" in text and "256KB" in text and "GTO" in text

    def test_table4_storage_numbers(self):
        result = table4_overheads()
        assert result.full_added_storage_kb == pytest.approx(36.0)
        assert result.half_added_storage_kb == pytest.approx(12.0)
        # Paper: 4% of the RF.
        assert result.half_fraction_of_rf == pytest.approx(0.047, abs=0.01)

    def test_table4_ratios(self):
        result = table4_overheads()
        assert result.access_energy_ratio == pytest.approx(0.0147, abs=0.002)
        assert result.boc_size_bytes == 1536


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"fig1", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10",
                    "fig11", "fig12", "fig13", "table1", "table2", "table4",
                    "rfc"}
        assert expected <= set(EXPERIMENTS)

    def test_run_experiment_static(self):
        text = run_experiment("table1")
        assert "Table I" in text

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_case_insensitive(self):
        assert "Table I" in run_experiment("TABLE1")
