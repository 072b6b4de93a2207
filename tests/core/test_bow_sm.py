"""Tests for the design registry and end-to-end BOW simulations."""

import pytest

from repro.core.bow_sm import simulate_bow, simulate_design
from repro.core.designs import design_names, get_design
from repro.errors import SimulationError


class TestRegistry:
    def test_known_designs(self):
        # Every paper design except RFC is a BOWConfig point.
        bow_points = {name for name in design_names()
                      if get_design(name).bow_config is not None}
        assert bow_points == {
            "baseline", "bow", "bow-wb", "bow-wr", "bow-wr-half",
        }

    def test_unknown_design_raises(self, small_trace):
        with pytest.raises(SimulationError):
            simulate_design("warp-drive", small_trace)

    def test_unknown_design_suppresses_keyerror_context(self, small_trace):
        # Regression: the registry lookup's KeyError must not surface as
        # "During handling of the above exception..." in user tracebacks.
        with pytest.raises(SimulationError) as excinfo:
            simulate_design("warp-drive", small_trace)
        assert excinfo.value.__suppress_context__
        assert "known:" in str(excinfo.value)

    def test_baseline_through_registry(self, small_trace, baseline_run):
        result = simulate_design("baseline", small_trace, memory_seed=11)
        assert result.counters.cycles == baseline_run.counters.cycles


class TestDesignBehaviour:
    def test_bow_bypasses_reads(self, bow_run):
        assert bow_run.counters.bypassed_reads > 0
        assert bow_run.counters.read_bypass_rate > 0.3

    def test_bow_write_through_never_bypasses_writes(self, bow_run):
        assert bow_run.counters.bypassed_writes == 0

    def test_bow_wb_bypasses_writes(self, bow_wb_run):
        assert bow_wb_run.counters.bypassed_writes > 0

    def test_bow_wr_bypasses_most_writes(self, bow_wb_run, bow_wr_run):
        # Compiler hints save at least as many RF writes as the
        # hardware-only write-back policy (Table I's trend).
        assert (bow_wr_run.counters.rf_writes
                <= bow_wb_run.counters.rf_writes)

    def test_all_designs_improve_ipc(self, baseline_run, bow_run,
                                     bow_wb_run, bow_wr_run):
        for run in (bow_run, bow_wb_run, bow_wr_run):
            assert run.ipc > baseline_run.ipc

    def test_rf_reads_reduced(self, baseline_run, bow_run):
        assert bow_run.counters.rf_reads < baseline_run.counters.rf_reads

    def test_same_instruction_count(self, baseline_run, bow_run,
                                    bow_wb_run, bow_wr_run):
        target = baseline_run.counters.instructions
        for run in (bow_run, bow_wb_run, bow_wr_run):
            assert run.counters.instructions == target

    def test_oc_residency_reduced(self, baseline_run, bow_run):
        base = (baseline_run.counters.oc_wait_cycles
                / baseline_run.counters.instructions)
        bow = (bow_run.counters.oc_wait_cycles
               / bow_run.counters.instructions)
        assert bow < base

    def test_memory_images_identical(self, reference_result, baseline_run,
                                     bow_run, bow_wb_run):
        for run in (baseline_run, bow_run, bow_wb_run):
            assert run.memory_image == reference_result.memory

    def test_bow_wr_memory_matches_its_reference(self, small_hinted_trace,
                                                 bow_wr_run):
        from repro.gpu.reference import execute_reference

        reference = execute_reference(small_hinted_trace, memory_seed=11)
        assert bow_wr_run.memory_image == reference.memory

    def test_rf_state_complete_for_flushing_designs(self, reference_result,
                                                    baseline_run, bow_run,
                                                    bow_wb_run):
        # Baseline and write-through write every value to the RF;
        # write-back flushes at drain: all three match the reference.
        for run in (baseline_run, bow_run, bow_wb_run):
            for key, value in reference_result.registers.items():
                assert run.register_image[key] == value


class TestWindowSweep:
    def test_counter_identity(self, bow_run, small_trace):
        counters = bow_run.counters
        assert counters.total_reads == small_trace.total_reads
        # Sink-register writes never generate a value; every other dest
        # is either written or bypassed.
        assert counters.total_writes <= small_trace.total_writes

    def test_bigger_window_bypasses_more(self, small_trace):
        from repro.config import bow_config

        r5 = simulate_bow(small_trace, bow=bow_config(5), memory_seed=11)
        assert (r5.counters.read_bypass_rate
                >= simulate_bow(small_trace, bow=bow_config(2),
                                memory_seed=11).counters.read_bypass_rate)
