"""The linear writeback classifier and reuse-gap pass against the
original quadratic classifier, kept here verbatim as a reference.

The reference rescans every read of a register for each of its writes
and slices the remaining writes to find the next kill; the library's
classifier answers the same question in one backward sweep per
register.  Random programs mix predicated redefinitions, ``$o127`` sink
writes, reads at a redefinition index (``add r, r, x``) and live-out
sets, so every branch of the chain rule is exercised.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.reuse import read_bypass_fraction
from repro.compiler.writeback import (
    WritebackClass,
    WriteClassification,
    classify_linear_writes,
)
from repro.core.window import (
    read_bypass_counts,
    window_gaps,
    write_bypass_opportunity_counts,
)
from repro.errors import CompilerError
from repro.isa import Instruction
from repro.isa.opcodes import opcode_by_name
from repro.isa.registers import SINK_REGISTER, Predicate, Register

# ---------------------------------------------------------------------------
# the reference: the original quadratic classifier, verbatim
# ---------------------------------------------------------------------------


def _classify_chain(
    write_index: int,
    read_indices: Sequence[int],
    live_after_chain: bool,
    window_size: int,
) -> Tuple[WritebackClass, int, bool]:
    """Classify one value given the indices of its reads.

    Args:
        write_index: where the value is produced.
        read_indices: strictly increasing read positions before the next
            redefinition (or scope end).
        live_after_chain: value may still be read after the analyzed
            scope (no redefinition seen and register is live-out).
        window_size: the nominal instruction window ``IW``.
    """
    forwarded = 0
    needs_rf = live_after_chain
    previous = write_index
    resident = True
    for read_index in read_indices:
        gap = read_index - previous
        if resident and gap < window_size:
            forwarded += 1
        else:
            resident = False
            needs_rf = True
        previous = read_index

    if not read_indices and not live_after_chain:
        return WritebackClass.DEAD, 0, False
    if needs_rf and forwarded:
        return WritebackClass.BOTH, forwarded, True
    if needs_rf:
        return WritebackClass.RF_ONLY, 0, True
    return WritebackClass.OC_ONLY, forwarded, False


def reference_classify_linear_writes(
    instructions: Sequence[Instruction],
    window_size: int,
    live_out: FrozenSet[int] = frozenset(),
) -> List[WriteClassification]:
    """Classify every destination write of a linear instruction sequence.

    Args:
        instructions: the sequence (a block body or a trace).
        window_size: nominal window ``IW``.
        live_out: registers that may be read after the sequence ends.
    """
    if window_size < 1:
        raise CompilerError(f"window_size must be >= 1, got {window_size}")

    # Index reads and writes per register.  A predicated write is only a
    # *conditional* redefinition (``rd = p ? v : rd``): it cannot end the
    # previous value's read chain, because a runtime-false guard leaves
    # the old value architecturally visible to every later reader.  Only
    # the next unpredicated write is a definite kill.
    reads: Dict[int, List[int]] = {}
    writes: Dict[int, List[Tuple[int, bool]]] = {}
    for index, inst in enumerate(instructions):
        for src in inst.sources:
            reads.setdefault(src.id, []).append(index)
        if inst.dest is not None and inst.dest != SINK_REGISTER:
            writes.setdefault(inst.dest.id, []).append(
                (index, inst.predicate is not None)
            )

    results: List[WriteClassification] = []
    for reg_id, write_list in sorted(writes.items()):
        reg_reads = reads.get(reg_id, [])
        for position, (write_index, _) in enumerate(write_list):
            next_kill = next(
                (later for later, predicated in write_list[position + 1:]
                 if not predicated),
                None,
            )
            chain = [
                r for r in reg_reads
                if r > write_index and (next_kill is None or r <= next_kill)
            ]
            # A read at the redefinition index itself (e.g. ``add r, r, x``)
            # consumes the old value; reads beyond it consume the new one.
            live_after = next_kill is None and reg_id in live_out
            writeback, forwarded, needs_rf = _classify_chain(
                write_index, chain, live_after, window_size
            )
            results.append(
                WriteClassification(
                    index=write_index,
                    register_id=reg_id,
                    writeback=writeback,
                    reads_in_window=forwarded,
                    needs_rf=needs_rf,
                )
            )
    results.sort(key=lambda item: item.index)
    return results


def reference_read_bypass_counts(
    trace: Sequence[Instruction], window_size: int
) -> Tuple[int, int]:
    """The original per-window read rule: one scan per window size."""
    last_access: Dict[int, int] = {}
    bypassed = total = 0
    for index, inst in enumerate(trace):
        for src in inst.sources:
            total += 1
            previous = last_access.get(src.id)
            if previous is not None and index - previous < window_size:
                bypassed += 1
            last_access[src.id] = index
        if inst.dest is not None and inst.dest != SINK_REGISTER:
            last_access[inst.dest.id] = index
    return bypassed, total


# ---------------------------------------------------------------------------
# random programs
# ---------------------------------------------------------------------------

_REG = st.integers(min_value=0, max_value=5)
_OPS = ("mov", "add", "mad", "ld.global")


@st.composite
def chain_instruction(draw):
    """An instruction stressing the chain rule's corner cases."""
    opcode = opcode_by_name(draw(st.sampled_from(_OPS)))
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        dest = SINK_REGISTER
    else:
        dest = Register(draw(_REG))
    sources = [Register(draw(_REG)) for _ in range(opcode.num_sources)]
    if sources and dest is not SINK_REGISTER and draw(st.booleans()):
        sources[0] = dest  # ``add r, r, x``: a read at the redefinition
    predicate = None
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        predicate = Predicate(draw(st.integers(0, 3)), draw(st.booleans()))
    return Instruction(opcode=opcode, dest=dest, sources=tuple(sources),
                       predicate=predicate)


def chain_programs(max_size=60):
    return st.lists(chain_instruction(), min_size=0, max_size=max_size)


_LIVE_OUT = st.frozensets(_REG, max_size=6)
_WINDOW = st.integers(min_value=1, max_value=8)


class TestClassifierMatchesReference:
    @given(chain_programs(), _WINDOW, _LIVE_OUT)
    @settings(max_examples=400, deadline=None)
    def test_equal_lists(self, program, window, live_out):
        assert classify_linear_writes(program, window, live_out) == (
            reference_classify_linear_writes(program, window, live_out)
        )

    def test_shapes_the_strategy_must_reach(self):
        # add r1, r1, x at a kill; a predicated redefinition between a
        # write and its far reader; a sink write; r1 live-out.
        mov, add = opcode_by_name("mov"), opcode_by_name("add")
        r1, r2 = Register(1), Register(2)
        program = [
            Instruction(opcode=mov, dest=r1),
            Instruction(opcode=mov, dest=r1, predicate=Predicate(0)),
            Instruction(opcode=add, dest=SINK_REGISTER, sources=(r2, r2)),
            Instruction(opcode=add, dest=r2, sources=(r1, r2)),
            Instruction(opcode=add, dest=r1, sources=(r1, r2)),
        ]
        for window in range(1, 9):
            for live_out in (frozenset(), frozenset({1}), frozenset({1, 2})):
                assert classify_linear_writes(program, window, live_out) == (
                    reference_classify_linear_writes(program, window,
                                                     live_out)
                )

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(CompilerError):
            classify_linear_writes([], window)
        with pytest.raises(CompilerError):
            window_gaps([]).read_hits(window)
        with pytest.raises(CompilerError):
            window_gaps([]).write_hits(window)
        with pytest.raises(CompilerError):
            read_bypass_counts([], window)
        with pytest.raises(CompilerError):
            write_bypass_opportunity_counts([], window)
        with pytest.raises(CompilerError):
            read_bypass_fraction([], window)


def _eliminable(items):
    return sum(1 for item in items
               if item.writeback in (WritebackClass.OC_ONLY,
                                     WritebackClass.DEAD))


class TestGapPassMatchesPerWindowCounts:
    @given(chain_programs(), _LIVE_OUT)
    @settings(max_examples=200, deadline=None)
    def test_every_window_from_one_pass(self, program, live_out):
        gaps = window_gaps(program, live_out)
        for window in range(1, 10):
            reads = (gaps.read_hits(window), gaps.reads)
            assert reads == read_bypass_counts(program, window)
            assert reads == reference_read_bypass_counts(program, window)
            writes = (gaps.write_hits(window), gaps.writes)
            assert writes == write_bypass_opportunity_counts(
                program, window, live_out)
            oracle = reference_classify_linear_writes(program, window,
                                                      live_out)
            assert writes == (_eliminable(oracle), len(oracle))


class TestLinearCost:
    def test_long_single_register_trace_with_predicated_writes(self):
        # One register, read every instruction, a predicated write every
        # other one: every chain runs to the end of the trace, so the
        # reference classifier's rescans are quadratic (minutes here).
        mov, add = opcode_by_name("mov"), opcode_by_name("add")
        r0 = Register(0)
        guard = Predicate(1)
        program = [Instruction(opcode=mov, dest=r0)]
        for index in range(1, 50_000):
            if index % 2:
                program.append(Instruction(opcode=add, dest=r0,
                                           sources=(r0, r0),
                                           predicate=guard))
            else:
                program.append(Instruction(opcode=add, dest=SINK_REGISTER,
                                           sources=(r0, r0)))
        started = time.perf_counter()
        items = classify_linear_writes(program, 3, frozenset({0}))
        gaps = window_gaps(program, frozenset({0}))
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"{elapsed:.2f} s for 50k instructions"
        # Live-out r0: every value is RF-bound; all but the last (unread)
        # are also forwarded in-window.
        assert len(items) == gaps.writes == 25_001
        assert gaps.write_hits(3) == 0
        assert {item.writeback for item in items[:-1]} == {WritebackClass.BOTH}
        assert items[-1].writeback is WritebackClass.RF_ONLY
