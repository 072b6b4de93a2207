"""Sliding-window bypass analyses over dynamic traces.

These are the *opportunity* analyses behind the paper's motivation: for
a window of ``IW`` consecutive instructions, how many register-file
reads and writes could be eliminated (Figure 3), and how many RF writes
each writeback policy performs on a concrete snippet (Table I).

Window semantics shared with the hardware model (see DESIGN.md SS5):

* two accesses fall in the same window when their dynamic instruction
  indices differ by less than ``IW``;
* the window is *extended*: every access to a value refreshes its
  residency, so a chain of accesses with every gap below ``IW`` keeps the
  value collector-resident throughout;
* bypassing never reaches past the nominal window even when buffer
  space would allow it (the SS IV-C simplification).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..compiler.writeback import (
    READ,
    classify_linear_writes,
    register_accesses,
    write_chains,
)
from ..errors import CompilerError
from ..isa import Instruction
from ..isa.registers import SINK_REGISTER


def _check_window(window_size: int) -> None:
    if window_size < 1:
        raise CompilerError(f"window_size must be >= 1, got {window_size}")


@dataclass(frozen=True)
class WindowGaps:
    """One trace's reuse gaps: Figure 3's counts for every ``IW`` at once.

    ``read_gaps`` holds, sorted, each read's distance to the previous
    access of its register (first accesses have none); ``write_gaps``
    the largest gap along each non-RF-bound write's read chain.
    """

    reads: int
    writes: int
    read_gaps: List[int]
    write_gaps: List[int]

    def read_hits(self, window_size: int) -> int:
        """Reads bypassed at ``IW``: those whose gap is below it."""
        _check_window(window_size)
        return bisect_left(self.read_gaps, window_size)

    def write_hits(self, window_size: int) -> int:
        """Writes eliminable at ``IW`` (OC-only or dead)."""
        _check_window(window_size)
        return bisect_left(self.write_gaps, window_size)


def window_gaps(
    trace: Sequence[Instruction], live_out: FrozenSet[int] = frozenset()
) -> WindowGaps:
    """The all-windows reuse-gap pass: one sweep per register, then a sort.

    A read is bypassed at ``IW`` iff its gap is below ``IW``.  A write is
    eliminable at ``IW`` iff it is not RF-bound (some unpredicated write
    kills it, or its register is not ``live_out``) and every gap along
    its read chain, counted from the write, is below ``IW``.
    """
    reads = writes = 0
    read_gaps: List[int] = []
    write_gaps: List[int] = []
    for reg_id, accesses in register_accesses(trace).items():
        previous = None
        for index, kind in accesses:
            if kind == READ:
                reads += 1
                if previous is not None:
                    read_gaps.append(index - previous)
            previous = index
        # Any window will do: only max_gap and live_after are used.
        chains = write_chains(accesses, reg_id in live_out, 1)
        for _, _, _, max_gap, live_after in chains:
            writes += 1
            if not live_after:
                write_gaps.append(max_gap)
    read_gaps.sort()
    write_gaps.sort()
    return WindowGaps(reads, writes, read_gaps, write_gaps)


def stream_window_gaps(
    streams: Iterable[Sequence[Instruction]],
) -> List[Tuple[WindowGaps, int]]:
    """:func:`window_gaps` once per distinct stream, with its multiplicity.

    Warps of one kernel that take the same path replay the same
    instruction objects, so two streams holding the same objects in the
    same order have the same gaps.  Streams are keyed by those
    identities; the streams are held for the call, so no identity is
    reused while it is a key.  Weighting each distinct stream's counts
    by its multiplicity gives exactly the per-stream sums.
    """
    distinct: Dict[Tuple[int, ...], list] = {}
    for stream in streams:
        entry = distinct.setdefault(tuple(map(id, stream)), [stream, 0])
        entry[1] += 1
    return [(window_gaps(stream), count) for stream, count in distinct.values()]


def read_bypass_counts(
    trace: Sequence[Instruction], window_size: int
) -> Tuple[int, int]:
    """(bypassed, total) source-operand reads for a window of ``IW``.

    A read is bypassed when the register was accessed — read or written —
    by one of the previous ``IW - 1`` instructions: a prior write
    deposited the value in the collector, a prior read fetched it there.
    """
    gaps = window_gaps(trace)
    return gaps.read_hits(window_size), gaps.reads


def write_bypass_opportunity_counts(
    trace: Sequence[Instruction],
    window_size: int,
    live_out: FrozenSet[int] = frozenset(),
) -> Tuple[int, int]:
    """(eliminable, total) destination writes for a window of ``IW``.

    A write is eliminable when its value never needs to reach the RF:
    every read finds it collector-resident and it is dead afterwards —
    the compiler's transient (OC-only or dead) class, an upper bound on
    what any writeback design can save.
    """
    gaps = window_gaps(trace, live_out)
    return gaps.write_hits(window_size), gaps.writes


def writeback_eliminated_counts(
    trace: Sequence[Instruction], window_size: int
) -> Tuple[int, int]:
    """(eliminated, total) RF writes under the *write-back* policy (BOW-WB).

    The hardware-only rule (no compiler knowledge): a value's RF write is
    skipped when the same register is written again while the old value
    is still collector-resident — i.e. the chain of accesses from the
    producing write to the next write keeps every gap below ``IW``.  A
    residency lapse writes the value back at slide-out; a value never
    rewritten is written back when it finally slides out (or at drain).
    """
    eliminated = _writeback_eliminated_by_register(trace, window_size)
    total = sum(1 for inst in trace
                if inst.dest is not None and inst.dest.id != SINK_REGISTER.id)
    return sum(eliminated.values()), total


def table1_write_counts(
    trace: Sequence[Instruction],
    window_size: int,
    live_out: FrozenSet[int] = frozenset(),
) -> Dict[str, Dict[int, int]]:
    """Per-register RF write counts under the three designs (Table I).

    Returns ``{"write-through": {reg: n}, "write-back": ..., "compiler": ...}``.
    Write-through equals the unmodified GPU: every destination write
    reaches the RF.
    """
    write_through: Dict[int, int] = {}
    for inst in trace:
        if inst.dest is not None and inst.dest.id != SINK_REGISTER.id:
            write_through[inst.dest.id] = write_through.get(inst.dest.id, 0) + 1

    write_back = dict(write_through)
    eliminated_by_reg = _writeback_eliminated_by_register(trace, window_size)
    for reg_id, count in eliminated_by_reg.items():
        write_back[reg_id] = write_back[reg_id] - count

    compiler = {reg_id: 0 for reg_id in write_through}
    for item in classify_linear_writes(trace, window_size, live_out):
        if item.needs_rf:
            compiler[item.register_id] = compiler.get(item.register_id, 0) + 1

    return {
        "write-through": write_through,
        "write-back": write_back,
        "compiler": compiler,
    }


def _writeback_eliminated_by_register(
    trace: Sequence[Instruction], window_size: int
) -> Dict[int, int]:
    _check_window(window_size)
    eliminated: Dict[int, int] = {}
    for reg_id, events in register_accesses(trace).items():
        # resident: no gap >= IW since the last write, so the next consolidates it
        resident, previous = False, 0
        for index, kind in events:
            resident = resident and index - previous < window_size
            if kind != READ:
                if resident:
                    eliminated[reg_id] = eliminated.get(reg_id, 0) + 1
                resident = True
            previous = index
    return eliminated
