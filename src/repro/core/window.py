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

Figure 3's pass (:func:`window_gaps`) reads a trace as its run-length
block segments (:attr:`~repro.kernels.trace.WarpTrace.segments`; a flat
sequence is one segment of count 1), so its cost follows the number of
blocks on the path, not the loop trip counts.  Each distinct body is
summarized once: per register, its gaps inside one copy, the gap at a
boundary between two copies, and what a chain entering or leaving a copy
meets.  In a run of ``K`` copies only four copies differ: the first (its
reads look back past the run), copies ``2..K-2`` (weight ``K - 3``: each
looks back one copy and forward at least two), copy ``K-1`` (its open
chains see one more copy) and copy ``K`` (its chains leave the run).
Registers a body does not touch keep their last position, so a gap
across a run is its real distance in the trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..compiler.writeback import (
    KILL,
    READ,
    classify_linear_writes,
    register_accesses,
)
from ..errors import CompilerError
from ..isa import Instruction
from ..isa.registers import SINK_REGISTER
from ..kernels.trace import Segment, WarpTrace

#: Where an open write chain goes after a point of the trace:
#: ``(first read, largest read-to-read gap after it, live)``.  ``first
#: read`` is ``None`` when a kill or the trace end comes first; ``live``
#: is whether no kill follows at all.
_Future = Tuple[Optional[int], int, bool]

_END: _Future = (None, 0, True)


def _check_window(window_size: int) -> None:
    if window_size < 1:
        raise CompilerError(f"window_size must be >= 1, got {window_size}")


def _below(gaps: Tuple[Tuple[int, int], ...], window_size: int) -> int:
    hits = 0
    for gap, count in gaps:
        if gap >= window_size:
            break
        hits += count
    return hits


@dataclass(frozen=True)
class WindowGaps:
    """Traces' reuse gaps: Figure 3's counts for every ``IW`` at once.

    One trace's, or the sum over several.  ``read_gaps`` holds
    ``(gap, reads)`` pairs by increasing gap: each read's distance to
    the previous access of its register (first accesses have none).
    ``write_gaps`` holds, the same way, the largest gap along each
    non-RF-bound write's read chain.
    """

    reads: int
    writes: int
    read_gaps: Tuple[Tuple[int, int], ...]
    write_gaps: Tuple[Tuple[int, int], ...]

    def read_hits(self, window_size: int) -> int:
        """Reads bypassed at ``IW``: those whose gap is below it."""
        _check_window(window_size)
        return _below(self.read_gaps, window_size)

    def write_hits(self, window_size: int) -> int:
        """Writes eliminable at ``IW`` (OC-only or dead)."""
        _check_window(window_size)
        return _below(self.write_gaps, window_size)


class _Register:
    """One register's accesses inside one copy of a block body.

    Offsets are positions inside the body.  A write is *open* when no
    kill follows it in the copy, so its chain runs on past the copy;
    ``open_writes`` holds ``(largest gap so far, anchor)`` for each,
    the anchor being where the chain's next gap is measured from (the
    copy's last read after the write, or the write itself).  ``closed``
    receives the largest gap of each chain a kill ends inside the copy.
    """

    __slots__ = ("first", "first_read", "last", "kills", "entry_read",
                 "entry_max", "exit_read", "open_writes")

    def __init__(self, accesses: Sequence[Tuple[int, int]],
                 closed: List[int]) -> None:
        self.first, kind = accesses[0]
        self.first_read = kind == READ
        self.last = accesses[-1][0]
        open_writes: List[Tuple[int, int]] = []
        earliest = exit_read = None  # earliest read since the last kill
        gap_max = 0
        kills = False
        for offset, kind in reversed(accesses):
            if kind == READ:
                if earliest is not None:
                    gap_max = max(gap_max, earliest - offset)
                elif exit_read is None and not kills:
                    exit_read = offset
                earliest = offset
                continue
            local = (0 if earliest is None
                     else max(earliest - offset, gap_max))
            if kills:
                closed.append(local)
            else:
                open_writes.append((local, offset if exit_read is None
                                    else exit_read))
            if kind == KILL:
                kills = True
                earliest, gap_max = None, 0
        #: A kill ends every chain that enters the copy.
        self.kills = kills
        #: The first read such a chain meets, and the largest gap among
        #: the reads it meets in this copy.
        self.entry_read = earliest
        self.entry_max = gap_max
        #: The copy's last read, when no kill follows it.
        self.exit_read = exit_read
        self.open_writes = tuple(open_writes)

    def before(self, base: int, future: _Future) -> _Future:
        """The future of a chain just before this copy at ``base``."""
        if self.kills:
            entry = None if self.entry_read is None else base + self.entry_read
            return entry, self.entry_max, False
        if self.entry_read is None:
            return future
        first, gap_max, live = future
        if first is None:
            gap_max = self.entry_max
        else:
            gap_max = max(gap_max, self.entry_max,
                          first - base - self.exit_read)
        return base + self.entry_read, gap_max, live

    def add_open(self, gaps: Dict[int, int], base: int, future: _Future,
                 count: int) -> None:
        """Record the open writes of ``count`` copies at ``base`` whose
        chains continue into ``future``."""
        first, gap_max, _ = future
        for local, anchor in self.open_writes:
            if first is not None:
                local = max(local, gap_max, first - base - anchor)
            gaps[local] = gaps.get(local, 0) + count

    def add_run(self, gaps: Dict[int, int], start: int, repeats: int,
                length: int, future: _Future, weight: int,
                live_out: bool) -> _Future:
        """Record the open writes of ``repeats`` copies from ``start``,
        ``future`` following them; return the future before the run.

        Copy ``K``'s chains leave the run, copy ``K-1``'s see one more
        copy, and copies ``1..K-2`` see at least two, which is all the
        run can show them: they share one gap each, weight ``K - 2``.
        Chains a kill ends inside a copy are not recorded here:
        :class:`_Body` counts those once per copy.
        """
        if not self.kills and self.entry_read is None:
            # Only predicated writes: every copy's chains skip the rest
            # of the run, so no two copies share a gap.
            if not (future[2] and live_out):
                for base in range(start, start + repeats * length, length):
                    self.add_open(gaps, base, future, weight)
            return future
        base = start + (repeats - 1) * length
        for count in (1, 1, repeats - 2)[:repeats]:
            if self.open_writes and not (future[2] and live_out):
                self.add_open(gaps, base, future, count * weight)
            future = self.before(base, future)
            base -= length
        if repeats > 3 and future[0] is not None:
            # Before copy K-2 as before copy 1: the copies between are
            # alike, so only the position moves.
            shift = (repeats - 3) * length
            future = (future[0] - shift, future[1], future[2])
        return future


class _Body:
    """What one block body contributes per copy, summarized once."""

    __slots__ = ("length", "reads", "writes", "read_gaps", "boundary_gaps",
                 "closed_gaps", "registers")

    def __init__(self, body: Sequence[Instruction]) -> None:
        self.length = len(body)
        self.reads = self.writes = 0
        read_gaps: List[int] = []
        boundary_gaps: List[int] = []
        closed: List[int] = []
        registers: List[Tuple[int, _Register]] = []
        for reg_id, accesses in register_accesses(body).items():
            previous = None
            for offset, kind in accesses:
                if kind == READ:
                    self.reads += 1
                    if previous is not None:
                        read_gaps.append(offset - previous)
                else:
                    self.writes += 1
                previous = offset
            register = _Register(accesses, closed)
            if register.first_read:
                boundary_gaps.append(self.length - register.last
                                     + register.first)
            registers.append((reg_id, register))
        #: Read gaps inside one copy; read gaps at each boundary between
        #: two copies; write chains that end inside one copy.
        self.read_gaps = Counter(read_gaps)
        self.boundary_gaps = Counter(boundary_gaps)
        self.closed_gaps = Counter(closed)
        self.registers = registers


def _add(into: Dict[int, int], counts: Dict[int, int], times: int) -> None:
    for value, count in counts.items():
        into[value] = into.get(value, 0) + count * times


def _segments(trace) -> Sequence[Segment]:
    if isinstance(trace, WarpTrace):
        return trace.segments
    return ((trace, 1),)


class _Pass:
    """Accumulates the gaps of weighted streams, one backward sweep over
    each stream's segments."""

    def __init__(self, live_out: FrozenSet[int]) -> None:
        self.live_out = live_out
        self.bodies: Dict[int, _Body] = {}
        self.copies: Dict[int, int] = {}  # body id -> copies, all streams
        self.boundaries: Dict[int, int] = {}
        self.read_gaps: Dict[int, int] = {}
        self.write_gaps: Dict[int, int] = {}

    def add(self, segments: Sequence[Segment], weight: int) -> None:
        bodies, live_out = self.bodies, self.live_out
        read_gaps, write_gaps = self.read_gaps, self.write_gaps
        ends = []
        end = 0
        for body, repeats in segments:
            end += len(body) * repeats
            ends.append(end)
        following: Dict[int, Tuple[int, bool]] = {}  # next access, is read
        futures: Dict[int, _Future] = {}
        for (body, repeats), end in zip(reversed(segments), reversed(ends)):
            key = id(body)
            facts = bodies.get(key)
            if facts is None:
                facts = bodies[key] = _Body(body)
            self.copies[key] = self.copies.get(key, 0) + repeats * weight
            self.boundaries[key] = (self.boundaries.get(key, 0)
                                    + (repeats - 1) * weight)
            length = facts.length
            start = end - length * repeats
            last = end - length  # where the run's last copy starts
            for reg_id, register in facts.registers:
                after = following.get(reg_id)
                if after is not None and after[1]:
                    gap = after[0] - last - register.last
                    read_gaps[gap] = read_gaps.get(gap, 0) + weight
                following[reg_id] = (start + register.first,
                                     register.first_read)

                futures[reg_id] = register.add_run(
                    write_gaps, start, repeats, length,
                    futures.get(reg_id, _END), weight, reg_id in live_out)

    def result(self) -> WindowGaps:
        reads = writes = 0
        for key, facts in self.bodies.items():
            copies = self.copies[key]
            reads += facts.reads * copies
            writes += facts.writes * copies
            _add(self.read_gaps, facts.read_gaps, copies)
            _add(self.read_gaps, facts.boundary_gaps, self.boundaries[key])
            _add(self.write_gaps, facts.closed_gaps, copies)
        return WindowGaps(reads, writes, _pairs(self.read_gaps),
                          _pairs(self.write_gaps))


def _pairs(counts: Dict[int, int]) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted(counts.items()))


def window_gaps(
    trace: Sequence[Instruction], live_out: FrozenSet[int] = frozenset()
) -> WindowGaps:
    """The all-windows reuse-gap pass over one trace.

    ``trace`` is a :class:`~repro.kernels.trace.WarpTrace` (read through
    its segments) or any instruction sequence (one segment).

    A read is bypassed at ``IW`` iff its gap is below ``IW``.  A write is
    eliminable at ``IW`` iff it is not RF-bound (some unpredicated write
    kills it, or its register is not ``live_out``) and every gap along
    its read chain, counted from the write, is below ``IW``.  A value's
    read chain runs to the next unpredicated write; its gaps are read to
    read, so a predicated write inside it does not split it.
    """
    summary = _Pass(live_out)
    summary.add(_segments(trace), 1)
    return summary.result()


def stream_window_gaps(streams: Iterable[Sequence[Instruction]]) -> WindowGaps:
    """:func:`window_gaps` summed over ``streams`` (no live-out).

    Warps of one kernel that take the same path share their segment
    bodies, so streams whose segments hold the same body objects with
    the same repeats are swept once and weighted by their number.
    Streams are keyed by those identities; the streams are held for the
    call, so no identity is reused while it is a key.
    """
    distinct: Dict[Tuple[Tuple[int, int], ...], list] = {}
    for stream in streams:
        segments = _segments(stream)
        key = tuple([(id(body), repeats) for body, repeats in segments])
        entry = distinct.setdefault(key, [segments, 0])
        entry[1] += 1
    summary = _Pass(frozenset())
    for segments, count in distinct.values():
        summary.add(segments, count)
    return summary.result()


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
