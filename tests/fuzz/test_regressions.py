"""Regressions for real bugs the differential fuzzer found.

Three distinct defects surfaced during the first ``repro fuzz --seed 0
--cases 50`` acceptance campaign, each at a different layer:

1. **Predicate WAR (engine)** — the issue scoreboard tracked predicate
   RAW/WAW but not WAR: a younger ``set.*`` with fewer operands could
   dispatch before an older guarded instruction sampled its guard,
   flipping the older instruction's predicate under it.
2. **Predicated kill (compiler)** — liveness and the writeback
   classifier treated a predicated write as a definite redefinition, so
   an older value with a reader *beyond* the predicated write was
   classified transient (OC-only) and evaporated from the BOC — while
   a runtime-false guard left it architecturally live.
3. **Stale window entry (BOC)** — an RF-only writeback skipped the
   window but left a previously deposited copy of the same register
   resident; the next in-window reader forwarded the stale value.

Each test pins the minimized shape through the same differential oracle
that caught it, plus a unit-level assertion at the faulty layer.
"""

import pytest

from repro.compiler.dce import eliminate_dead_code_block
from repro.compiler.liveness import compute_liveness
from repro.compiler.writeback import WritebackClass, classify_linear_writes
from repro.fuzz.differential import compare_case
from repro.isa import WritebackHint
from repro.kernels.builder import KernelBuilder
from repro.kernels.external import TraceCase

ALL_DESIGNS = ("baseline", "bow", "bow-wb", "bow-wr", "bow-wr-half", "rfc")


class TestPredicateWarHazard:
    """Bug 1: fuzz seed 9, baseline — guard corrupted at dispatch."""

    def _trace(self):
        # The older mad (three operands, slow collection) is guarded by
        # !p6; the younger set.ne (two operands) redefines p6 and used
        # to dispatch first, predicating the mad off retroactively.
        b = KernelBuilder("pred-war")
        b.set_ne(6, 30, 15)
        b.mad(2, 90, 60, 20, guard=6, guard_negated=True)
        b.set_ne(6, 30, 16)
        b.add(3, 2, 2)
        b.st(addr=3, value=2)
        b.exit()
        return b.trace(num_warps=1)

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_guarded_reader_beats_younger_predicate_writer(self, design):
        case = TraceCase(trace=self._trace(), window=2, memory_seed=9)
        assert compare_case(case, design) == []

    def test_scoreboard_blocks_predicate_war(self):
        from repro.gpu.sm import SMEngine
        from repro.isa import Instruction, Predicate, Register
        from repro.isa.opcodes import opcode_by_name
        from repro.kernels.trace import KernelTrace, WarpTrace
        from repro.stats.trace import EventKind, TraceRecorder

        reader = Instruction(
            opcode=opcode_by_name("mad"),
            dest=Register(2),
            sources=(Register(90), Register(60), Register(20)),
            predicate=Predicate(6, negated=True),
        )
        writer = Instruction(
            opcode=opcode_by_name("set.ne"),
            dest=Register(255),
            sources=(Register(30), Register(15)),
            pred_dest=Predicate(6),
        )
        recorder = TraceRecorder()
        engine = SMEngine(
            KernelTrace(name="pred-war", warps=[
                WarpTrace(warp_id=0, instructions=[reader, writer])]),
            recorder=recorder,
        )
        issue = engine.stages[3]
        issue.run()
        warp = engine.warp_state(0)
        # The younger predicate writer must stall until the guarded
        # reader has sampled p6 at dispatch.
        assert warp.pc == 1
        assert issue._derive_outcome(warp, engine.provider.can_accept) == (
            0, "scoreboard", 1, "set.ne")
        engine.run()
        first = {}
        for event in recorder.events:
            first.setdefault((event.kind, event.trace_index), event.cycle)
        assert (first[EventKind.ISSUE, 1]
                >= first[EventKind.DISPATCH, 0]
                > first[EventKind.ISSUE, 0])


class TestPredicatedWriteIsNotAKill:
    """Bug 2: fuzz seed 9, bow-wr — OC-only value evaporated although a
    runtime-false predicated redefinition left it live."""

    def _trace(self):
        # min writes r47; the @p4 fma "redefines" it only when p4 holds
        # (it never does here: predicates reset false); the ld then
        # reads min's value from beyond the predicated write.
        b = KernelBuilder("pred-kill")
        b.inst("min", dest=47, srcs=(69, 43))
        b.inst("fma", dest=47, srcs=(56, 7, 60), guard=4)
        b.ld(54, addr=47)
        b.st(addr=54, value=47)
        b.exit()
        return b.trace(num_warps=1)

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_differential_clean(self, design):
        case = TraceCase(trace=self._trace(), window=2, memory_seed=24398)
        assert compare_case(case, design) == []

    def test_classifier_extends_chain_past_predicated_write(self):
        trace = self._trace()
        instructions = next(iter(trace)).instructions
        classes = {
            item.index: item.writeback
            for item in classify_linear_writes(instructions, window_size=2)
            if item.register_id == 47
        }
        # The min at index 0 must stay RF-bound: its reader at index 2
        # sits beyond the window AND beyond a merely-conditional kill.
        assert classes[0] in (WritebackClass.RF_ONLY, WritebackClass.BOTH)

    def test_liveness_sees_through_predicated_writes(self):
        b = KernelBuilder("live-through")
        b.block("entry")
        b.inst("min", dest=47, srcs=(69, 43))
        b.jump("middle")
        b.block("middle")
        b.inst("fma", dest=47, srcs=(56, 7, 60), guard=4)
        b.jump("tail")
        b.block("tail")
        b.ld(54, addr=47)
        b.exit()
        liveness = compute_liveness(b.build())
        # r47 must stay live across the middle block: the predicated
        # fma is not a definite definition.
        assert 47 in liveness.live_in["middle"]
        assert 47 in liveness.live_out["entry"]

    def test_dce_keeps_the_conditionally_shadowed_producer(self):
        b = KernelBuilder("dce-pred")
        b.inst("min", dest=47, srcs=(69, 43))
        b.inst("fma", dest=47, srcs=(56, 7, 60), guard=4)
        b.ld(54, addr=47)
        b.st(addr=54, value=47)
        b.exit()
        instructions = list(next(iter(b.trace(num_warps=1))).instructions)
        kept = eliminate_dead_code_block(instructions)
        assert any(inst.opcode.name == "min" for inst in kept)


class TestRfOnlyWritebackInvalidatesWindow:
    """Bug 3: fuzz seed 14, bow-wr — stale BOC entry after an RF-only
    write to a window-resident register."""

    def _trace(self):
        # xor (BOTH) deposits r2 in the window; the RF-only ld then
        # redefines r2 straight to the RF; exp must see the ld's value,
        # not the still-resident xor deposit.
        b = KernelBuilder("stale-entry")
        b.inst("xor", dest=2, srcs=(2, 3))
        b.inst("ld.shared", dest=2, srcs=(2,))
        b.inst("exp", dest=1, srcs=(2,))
        b.st(addr=3, value=1)
        b.exit()
        trace = b.trace(num_warps=1)
        instructions = next(iter(trace)).instructions
        instructions[1] = instructions[1].with_hint(WritebackHint.RF_ONLY)
        return trace

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_differential_clean(self, design):
        case = TraceCase(trace=self._trace(), window=3, memory_seed=38144)
        assert compare_case(case, design) == []
