"""Fast-forward parity: the event-horizon loop is an optimization only.

The engine contract (DESIGN.md §3): a run with ``fast_forward=True``
must be bit-identical to the per-cycle reference path — same counters
(``fast_forwarded_cycles`` aside: it *measures* the optimization, so
it is the one field allowed to differ), same register and memory
images, same commit streams, same recorder rollups, and the same
timeline sampling grid.  These tests pin that contract for every
registered design, with a hypothesis sweep over generated kernels on
top of the fixed seeds.  The sweep runs under three schedulers, with
more warps than schedulers, so the issue stage's owed idle spans (GTO
greedy resets, LRR pointers) and its multi-warp walk are exercised;
a run that raises on ``max_cycles`` must leave the same counters on
both loops, because the issue stage's integrated stall charges settle
when ``run()`` raises too.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig, SchedulerPolicy
from repro.core.bow_sm import simulate_design
from repro.core.designs import design_names, get_design
from repro.errors import DeadlockError
from repro.fuzz.generator import FuzzConfig, generate_case
from repro.gpu.sm import SMEngine
from repro.stats.timeline import Timeline
from repro.stats.trace import EventKind, TraceRecorder

FUZZ = FuzzConfig(max_trace_instructions=120, max_warps=4)
#: Up to two warps per scheduler (the default config has four).
FUZZ_WIDE = FuzzConfig(max_trace_instructions=120, max_warps=8)
WINDOW = 3
MEMORY_SEED = 11

ALL_DESIGNS = design_names()

#: Scheduler setups of the generated-kernel sweep: GTO and LRR run on
#: the issue profile with owed idle spans; two-level with two active
#: warps keeps the full walk whenever its pending queue is non-empty.
SCHEDULERS = {
    "gto": GPUConfig(),
    "lrr": GPUConfig(scheduler_policy=SchedulerPolicy.LRR),
    "two-level": GPUConfig(scheduler_policy=SchedulerPolicy.TWO_LEVEL,
                           two_level_active_warps=2),
}


def trace_for(design: str, seed: int, fuzz: FuzzConfig = FUZZ):
    case = generate_case(seed, fuzz)
    return case.hinted if get_design(design).hinted else case.plain


def run_design(design, trace, fast_forward, recorder=None, config=None):
    return simulate_design(
        design, trace, window_size=WINDOW, config=config,
        memory_seed=MEMORY_SEED, recorder=recorder,
        fast_forward=fast_forward,
    )


def comparable_counters(result) -> dict:
    counters = dataclasses.asdict(result.counters)
    counters.pop("fast_forwarded_cycles")
    return counters


def assert_identical(fast, slow) -> None:
    assert comparable_counters(fast) == comparable_counters(slow)
    assert fast.register_image == slow.register_image
    assert fast.memory_image == slow.memory_image
    # The reference path never jumps; ``cycles`` already matched above.
    assert slow.counters.fast_forwarded_cycles == 0


class TestSimulationResultParity:
    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_results_identical(self, design):
        trace = trace_for(design, seed=5)
        fast = run_design(design, trace, fast_forward=True)
        slow = run_design(design, trace, fast_forward=False)
        assert_identical(fast, slow)

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_fast_forward_actually_jumps(self, design):
        # Generated kernels carry global loads (hundreds of idle
        # cycles), so a run that never jumps means the horizon logic
        # lost coverage, even though results would still be correct.
        trace = trace_for(design, seed=5)
        fast = run_design(design, trace, fast_forward=True)
        assert fast.counters.fast_forwarded_cycles > 0

    @pytest.mark.parametrize("policy", sorted(SCHEDULERS))
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           design=st.sampled_from(ALL_DESIGNS))
    def test_parity_over_generated_kernels(self, policy, seed, design):
        trace = trace_for(design, seed, FUZZ_WIDE)
        config = SCHEDULERS[policy]
        fast = run_design(design, trace, fast_forward=True, config=config)
        slow = run_design(design, trace, fast_forward=False, config=config)
        assert_identical(fast, slow)


class TestRaiseParity:
    """A run cut short by ``max_cycles`` leaves the reference counters.

    The fast loop leaves idle cycles' stall charges owed to the issue
    stage; they must be settled when ``run()`` raises, not only when
    it returns.
    """

    @staticmethod
    def counters_at_raise(design, trace, fast_forward, max_cycles):
        spec = get_design(design)
        engine = SMEngine(
            trace,
            provider_factory=lambda eng: spec.provider(eng, WINDOW),
            memory_seed=MEMORY_SEED,
            fast_forward=fast_forward,
        )
        with pytest.raises(DeadlockError):
            engine.run(max_cycles=max_cycles)
        counters = dataclasses.asdict(engine.counters)
        return counters.pop("fast_forwarded_cycles"), counters

    @pytest.mark.parametrize("design", ["baseline", "bow-wr"])
    def test_counters_identical_when_max_cycles_raises(self, design):
        trace = trace_for(design, seed=5, fuzz=FUZZ_WIDE)
        total = run_design(design, trace, fast_forward=True).counters.cycles
        for max_cycles in (total // 3, total // 2, total - 1):
            jumped, fast = self.counters_at_raise(design, trace, True,
                                                  max_cycles)
            _, slow = self.counters_at_raise(design, trace, False,
                                             max_cycles)
            assert fast["cycles"] == max_cycles
            assert fast["issue_stalls_scoreboard"] > 0
            assert fast == slow, max_cycles
        assert jumped > 0


class TestRecorderParity:
    """Rollups and commit streams match; only coalescing differs.

    The fast path emits one ``count=span`` stall event where the
    per-cycle path emits ``span`` single events, so raw event totals
    legitimately differ — every aggregate view must not.
    """

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_rollups_identical(self, design):
        trace = trace_for(design, seed=9)
        fast_rec = TraceRecorder(capacity=1 << 20)
        slow_rec = TraceRecorder(capacity=1 << 20)
        fast = run_design(design, trace, True, recorder=fast_rec)
        slow = run_design(design, trace, False, recorder=slow_rec)
        assert_identical(fast, slow)
        assert fast_rec.dropped == 0 and slow_rec.dropped == 0
        assert fast_rec.counts == slow_rec.counts
        assert fast_rec.reason_counts == slow_rec.reason_counts
        assert fast_rec.warp_counts == slow_rec.warp_counts
        assert fast_rec.stage_counts() == slow_rec.stage_counts()
        assert fast_rec.warp_summary() == slow_rec.warp_summary()
        assert fast_rec.commits() == slow_rec.commits()

    def test_coalesced_stall_events_carry_the_span(self):
        trace = trace_for("bow", seed=9)
        recorder = TraceRecorder(capacity=1 << 20)
        result = run_design("bow", trace, True, recorder=recorder)
        spans = [event.count for event in recorder.events
                 if event.kind is EventKind.ISSUE_STALL and event.count > 1]
        assert result.counters.fast_forwarded_cycles > 0
        assert spans, "jumped spans must surface as count>1 stall events"


class TestTimelineParity:
    """Regression for the jumped-grid fix in ``Timeline.advance``.

    A jump over a sampling-grid point must emit the owed samples
    (carry-forward counters) instead of leaving holes in the grid.
    """

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_sampling_grids_identical(self, design):
        spec = get_design(design)
        trace = trace_for(design, seed=13)

        def sample(fast_forward):
            timeline = Timeline(interval=64)
            engine = SMEngine(
                trace,
                provider_factory=lambda eng: spec.provider(eng, WINDOW),
                memory_seed=MEMORY_SEED,
                timeline=timeline,
                fast_forward=fast_forward,
            )
            engine.run()
            return timeline.samples

        # (interval 64 does not divide the memory latencies, so grid
        # points land mid-span and the owed-sample replay is exercised.)
        fast = sample(True)
        slow = sample(False)
        assert fast == slow

    def test_no_grid_holes_across_jumps(self):
        spec = get_design("bow")
        trace = trace_for("bow", seed=13)
        timeline = Timeline(interval=32)
        engine = SMEngine(
            trace,
            provider_factory=lambda eng: spec.provider(eng, WINDOW),
            memory_seed=MEMORY_SEED,
            timeline=timeline,
            fast_forward=True,
        )
        result = engine.run()
        assert result.counters.fast_forwarded_cycles > 0
        cycles = [sample.cycle for sample in timeline.samples]
        grid, tail = cycles[:-1], cycles[-1]
        # Every on-grid point up to the end of the run is present...
        assert grid == list(range(32, grid[-1] + 1, 32))
        # ...and the final (off-grid) sample closes out the series.
        assert tail == result.counters.cycles
