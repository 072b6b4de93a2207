"""Robustness and failure-injection tests for the SM engine."""

import pytest

from repro.config import GPUConfig
from repro.errors import DeadlockError, SimulationError
from repro.gpu.collector import BaselineCollectorPool, InflightInstruction
from repro.gpu.sm import SMEngine, simulate_baseline
from repro.isa import parse_program
from repro.kernels.trace import KernelTrace, WarpTrace


def single_warp(text):
    return KernelTrace(name="t", warps=[
        WarpTrace(warp_id=0, instructions=parse_program(text))
    ])


class _StuckProvider(BaselineCollectorPool):
    """A provider that never requests operands: the pipeline starves."""

    def read_requests(self, cycle):
        return []


class _DroppingProvider(BaselineCollectorPool):
    """A provider that never reports ready instructions."""

    def ready_entries(self):
        return []


class TestDeadlockDetection:
    def test_stuck_collection_raises_deadlock(self):
        engine = SMEngine(
            single_warp("add.u32 $r1, $r2, $r3"),
            provider_factory=lambda e: _StuckProvider(
                e, e.config.num_operand_collectors),
        )
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        assert excinfo.value.cycle > 0

    def test_never_ready_raises_deadlock(self):
        engine = SMEngine(
            single_warp("add.u32 $r1, $r2, $r3"),
            provider_factory=lambda e: _DroppingProvider(
                e, e.config.num_operand_collectors),
        )
        with pytest.raises(DeadlockError):
            engine.run()

    def test_max_cycles_guard(self):
        trace = single_warp("\n".join(
            ["ld.global.u32 $r1, [$r2]"] * 5
        ))
        engine = SMEngine(trace)
        with pytest.raises(DeadlockError):
            engine.run(max_cycles=3)


class TestProviderMisuse:
    def test_unexpected_delivery_rejected(self):
        engine = SMEngine(single_warp("nop"))
        with pytest.raises(SimulationError):
            engine.provider.deliver(((0, 0), 0), 42)

    def test_insert_without_capacity_rejected(self):
        engine = SMEngine(single_warp("nop"),
                          config=GPUConfig(num_operand_collectors=1))
        pool = engine.provider
        first = InflightInstruction(0, 0, parse_program("nop")[0], 0)
        pool.insert(first)
        second = InflightInstruction(0, 1, parse_program("nop")[0], 0)
        with pytest.raises(SimulationError):
            pool.insert(second)

    def test_enqueue_write_needs_target(self):
        engine = SMEngine(single_warp("nop"))
        with pytest.raises(SimulationError):
            engine.enqueue_rf_write(None, 0)


class _NoInstruction:
    """Stands in for an entry's instruction; any read of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"read Instruction.{name}")


class TestRetirePath:
    PROGRAM = """
        mov.u32 $r1, 0x5
        add.u32 $r2, $r1, $r1
    """

    def _issued(self, engine, entry, dest_id):
        # Mirror the issue stage's bookkeeping for a hand-placed entry.
        engine.warp_state(0).sb_pending.add(dest_id)
        engine.state.in_flight += 1

    def test_decoded_entry_retires_without_reading_instruction(self):
        engine = SMEngine(single_warp(self.PROGRAM))
        warp = engine.warp_state(0)
        dec = warp.decoded[1]
        entry = InflightInstruction(0, 1, _NoInstruction(), 0, dec=dec)
        self._issued(engine, entry, dec.rf_dest_id)
        engine.enqueue_rf_write(entry, 10, release_on_grant=True)
        queued = engine.state.write_queue[-1]
        assert queued.register_id == 2
        assert queued.bank == engine.config.bank_of(0, 2)
        engine.release_scoreboard(entry)
        assert 2 not in warp.sb_pending
        assert engine.counters.instructions == 1

    def test_hand_built_entry_uses_its_instruction(self):
        engine = SMEngine(single_warp(self.PROGRAM))
        warp = engine.warp_state(0)
        inst = parse_program(self.PROGRAM)[1]
        entry = InflightInstruction(0, 1, inst, 0)
        self._issued(engine, entry, 2)
        engine.enqueue_rf_write(entry, 10)
        queued = engine.state.write_queue[-1]
        assert queued.register_id == 2
        assert queued.bank == engine.config.bank_of(0, 2)
        engine.release_scoreboard(entry)
        assert 2 not in warp.sb_pending
        assert entry.dec is None
        assert engine.counters.instructions == 1

    def test_release_for_unknown_warp_rejected(self):
        engine = SMEngine(single_warp(self.PROGRAM))
        entry = InflightInstruction(5, 0, parse_program("nop")[0], 0)
        with pytest.raises(SimulationError):
            engine.release_scoreboard(entry)


class TestConfigurationInterplay:
    def test_single_collector_still_completes(self):
        config = GPUConfig(num_operand_collectors=1)
        result = simulate_baseline(single_warp("""
            mov.u32 $r1, 0x1
            add.u32 $r2, $r1, $r1
            add.u32 $r3, $r2, $r1
        """), config=config)
        assert result.counters.instructions == 3

    def test_fewer_collectors_never_faster(self):
        trace = KernelTrace(name="p", warps=[
            WarpTrace(w, parse_program("""
                mov.u32 $r1, 0x1
                add.u32 $r2, $r3, $r4
                add.u32 $r5, $r6, $r7
            """))
            for w in range(8)
        ])
        small = simulate_baseline(
            trace, config=GPUConfig(num_operand_collectors=2))
        large = simulate_baseline(
            trace, config=GPUConfig(num_operand_collectors=32))
        assert small.counters.cycles >= large.counters.cycles
        assert small.counters.issue_stalls_collector \
            >= large.counters.issue_stalls_collector

    def test_single_bank_serializes_heavily(self):
        heavy = GPUConfig(num_banks=1, entries_per_bank=2048)
        trace = KernelTrace(name="b", warps=[
            WarpTrace(w, parse_program("add.u32 $r1, $r2, $r3"))
            for w in range(8)
        ])
        one_bank = simulate_baseline(trace, config=heavy)
        many_banks = simulate_baseline(trace)
        assert one_bank.counters.bank_conflicts \
            > many_banks.counters.bank_conflicts

    def test_wider_issue_does_not_lose_instructions(self):
        config = GPUConfig(num_schedulers=1, issue_width_per_scheduler=1)
        trace = single_warp("""
            mov.u32 $r1, 0x1
            mov.u32 $r2, 0x2
            mov.u32 $r3, 0x3
        """)
        narrow = simulate_baseline(trace, config=config)
        wide = simulate_baseline(trace)
        assert narrow.counters.instructions == wide.counters.instructions

    def test_zero_latency_read_clamped(self):
        # rf_read_latency=1 is the minimum; the engine clamps internally
        # via max(1, ...), so a 1-cycle config completes correctly.
        config = GPUConfig(rf_read_latency=1)
        result = simulate_baseline(single_warp("""
            mov.u32 $r1, 0x1
            add.u32 $r2, $r1, $r1
        """), config=config)
        assert result.register_image[(0, 2)] == 2


class TestCrossbarWidth:
    def _pressure_trace(self):
        return KernelTrace(name="x", warps=[
            WarpTrace(w, parse_program("""
                add.u32 $r1, $r2, $r3
                add.u32 $r4, $r5, $r6
            """))
            for w in range(8)
        ])

    def test_narrow_crossbar_never_faster(self):
        trace = self._pressure_trace()
        narrow = simulate_baseline(trace, config=GPUConfig(crossbar_width=1))
        wide = simulate_baseline(trace, config=GPUConfig(crossbar_width=0))
        assert narrow.counters.cycles >= wide.counters.cycles
        assert narrow.counters.instructions == wide.counters.instructions

    def test_results_unaffected(self):
        trace = self._pressure_trace()
        narrow = simulate_baseline(trace, config=GPUConfig(crossbar_width=1))
        wide = simulate_baseline(trace)
        assert narrow.register_image == wide.register_image

    def test_negative_width_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            GPUConfig(crossbar_width=-1)


class TestCollectorCountAblation:
    def test_driver(self):
        from repro.experiments.ablations import collector_count_ablation
        from repro.experiments.runner import RunScale, clear_cache

        clear_cache()
        result = collector_count_ablation(
            "SAD", unit_counts=(2, 32),
            scale=RunScale(num_warps=6, trace_scale=0.1),
        )
        clear_cache()
        (small_units, small_ipc, small_stalls), \
            (big_units, big_ipc, big_stalls) = result.points
        assert small_ipc <= big_ipc * 1.02
        assert small_stalls >= big_stalls
        assert "OCUs" in result.format()
