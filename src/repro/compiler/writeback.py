"""Writeback-target classification (the BOW-WR compiler pass).

For every instruction that produces a register value, decide where the
value must go when the instruction executes (paper SS IV-B):

* ``RF_ONLY``   -- the first reuse is beyond the instruction window, so
  depositing it in the BOC would be a wasted write;
* ``OC_ONLY``   -- the value is *transient*: every reuse happens while it
  still resides in the (extended) window and it is dead afterwards, so
  the RF write is eliminated and no RF register need be allocated;
* ``BOTH``      -- the value is reused inside the window *and* stays live
  beyond it, so it is forwarded now and written back on eviction.

The decision rule follows the paper's wording: a value can stay
collector-resident as long as the gap between consecutive accesses to it
stays below the window size (the extended instruction window); the first
access gap at or above the window size means the reader must find the
value in the RF.  Predicated redefinitions do not end a value's read
chain — the guard may be false at runtime, leaving the older value
visible to readers beyond it — so chains extend to the next
*unpredicated* write.

Two variants are provided:

* :func:`classify_linear_writes` — over a linear instruction sequence
  with an explicit live-out set (used for the Table I snippet and for
  dynamic-trace accounting);
* :func:`classify_cfg` — the real compiler pass: per basic block, with
  cross-block liveness making boundary values conservatively RF-bound.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import CompilerError
from ..isa import Instruction, WritebackHint
from ..isa.registers import SINK_REGISTER
from ..kernels.cfg import KernelCFG
from .liveness import LivenessResult, compute_liveness


class WritebackClass(enum.Enum):
    """The three destinations of Figure 7, plus dead writes.

    ``DEAD`` covers values never read at all (and not live-out); they
    carry the OC-only hint bits but are excluded from Figure 7's
    three-way split, mirroring the paper's accounting of *used* operands.
    """

    RF_ONLY = "rf-only"
    OC_ONLY = "oc-only"
    BOTH = "both"
    DEAD = "dead"

    @property
    def hint(self) -> WritebackHint:
        if self is WritebackClass.RF_ONLY:
            return WritebackHint.RF_ONLY
        if self is WritebackClass.BOTH:
            return WritebackHint.BOTH
        return WritebackHint.OC_ONLY


@dataclass(frozen=True)
class WriteClassification:
    """Classification of one destination write.

    Attributes:
        index: instruction index within the analyzed sequence/block.
        register_id: destination register.
        writeback: assigned class.
        reads_in_window: number of reads satisfied by forwarding.
        needs_rf: whether the value must eventually reach the RF.
    """

    index: int
    register_id: int
    writeback: WritebackClass
    reads_in_window: int
    needs_rf: bool


#: Access kinds in :func:`register_accesses`.  A predicated write only
#: conditionally redefines (``rd = p ? v : rd``); a ``KILL`` does not.
READ, PREDICATED_WRITE, KILL = 0, 1, 2


def register_accesses(
    instructions: Sequence[Instruction],
) -> Dict[int, List[Tuple[int, int]]]:
    """Every register's accesses in program order, as ``(index, kind)``.

    An instruction's source reads precede its destination write, so a
    read at a redefinition index (``add r, r, x``) consumes the old
    value.  Sink-register writes allocate no RF storage and are skipped.
    """
    accesses: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    sink = SINK_REGISTER.id
    for index, inst in enumerate(instructions):
        for src in inst.sources:
            accesses[src.id].append((index, READ))
        dest = inst.dest
        if dest is not None and dest.id != sink:
            accesses[dest.id].append(
                (index, KILL if inst.predicate is None else PREDICATED_WRITE)
            )
    return accesses


def write_chains(
    accesses: Sequence[Tuple[int, int]], live_out: bool, window_size: int
) -> Iterator[Tuple[int, int, int, int, bool]]:
    """Summarize every write of one register in a single backward sweep.

    A value's read chain runs from its write up to and including the
    next unpredicated write.  Chains sharing that kill are nested
    suffixes of the same reads, so a sweep that resets at each kill is
    linear.  Yields ``(index, reads, forwarded, max_gap, live_after)``
    per write, last first: the chain's length; its reads before the
    first gap >= ``window_size``; its largest gap, counted from the
    write (0 when unread); and whether the value outlives the sequence
    (no kill follows and the register is ``live_out``).
    """
    first = reads = run = max_gap = 0  # first: the suffix's earliest read
    live_after = live_out
    for index, kind in reversed(accesses):
        if kind == READ:
            if reads:
                gap = first - index
                if gap > max_gap:
                    max_gap = gap
                run = run + 1 if gap < window_size else 1
            else:
                run = 1
            first = index
            reads += 1
            continue
        if reads:
            gap = first - index
            yield (index, reads, run if gap < window_size else 0,
                   max(gap, max_gap), live_after)
        else:
            yield index, 0, 0, 0, live_after
        if kind == KILL:
            reads = run = max_gap = 0
            live_after = False


def classify_linear_writes(
    instructions: Sequence[Instruction],
    window_size: int,
    live_out: FrozenSet[int] = frozenset(),
) -> List[WriteClassification]:
    """Classify every destination write of a linear instruction sequence.

    One :func:`write_chains` sweep per register: linear in the length.

    Args:
        instructions: the sequence (a block body or a trace).
        window_size: nominal window ``IW``.
        live_out: registers that may be read after the sequence ends.
    """
    if window_size < 1:
        raise CompilerError(f"window_size must be >= 1, got {window_size}")
    results: List[WriteClassification] = []
    for reg_id, accesses in register_accesses(instructions).items():
        chains = write_chains(accesses, reg_id in live_out, window_size)
        for index, reads, forwarded, _, live_after in chains:
            needs_rf = live_after or forwarded < reads
            if needs_rf:
                writeback = (WritebackClass.BOTH if forwarded
                             else WritebackClass.RF_ONLY)
            elif reads:
                writeback = WritebackClass.OC_ONLY
            else:
                writeback = WritebackClass.DEAD
            results.append(WriteClassification(
                index, reg_id, writeback, forwarded, needs_rf))
    results.sort(key=lambda item: item.index)
    return results


def classify_cfg(
    cfg: KernelCFG,
    window_size: int,
    liveness: Optional[LivenessResult] = None,
) -> Dict[str, List[WriteClassification]]:
    """Run the writeback pass over every block of a kernel CFG.

    Values living across a block boundary are conservatively RF-bound:
    the compiler cannot know which block executes next, so it never tags
    a boundary-crossing value OC-only (paper SS IV-C's simplifying rule).
    """
    liveness = liveness or compute_liveness(cfg)
    classified: Dict[str, List[WriteClassification]] = {}
    for block in cfg:
        classified[block.label] = classify_linear_writes(
            block.instructions,
            window_size,
            live_out=liveness.live_out[block.label],
        )
    return classified


def annotate_cfg(
    cfg: KernelCFG,
    window_size: int,
    liveness: Optional[LivenessResult] = None,
    classified: Optional[Dict[str, List[WriteClassification]]] = None,
) -> Dict[int, WritebackHint]:
    """Produce the per-instruction hint map and rewrite block bodies.

    Every destination-producing instruction is replaced (in place, inside
    the CFG's blocks) by a copy carrying its 2-bit writeback hint; the
    returned map is keyed by instruction ``uid`` so traces expanded from
    the CFG observe the same hints.  ``classified`` is
    :func:`classify_cfg`'s result for this CFG and window, if the caller
    already has it.
    """
    if classified is None:
        classified = classify_cfg(cfg, window_size, liveness)
    hints: Dict[int, WritebackHint] = {}
    for block in cfg:
        decisions = {item.index: item.writeback.hint
                     for item in classified[block.label]}
        for index, inst in enumerate(block.instructions):
            hint = decisions.get(index)
            if hint is not None and inst.hint != hint:
                block.instructions[index] = inst.with_hint(hint)
            if inst.dest is not None:
                hints[block.instructions[index].uid] = (
                    hint if hint is not None else inst.hint
                )
    return hints


def hint_distribution(
    classifications: Iterable[WriteClassification],
    weights: Optional[Dict[int, int]] = None,
) -> Dict[WritebackClass, float]:
    """Figure 7's three-way split over classified writes.

    Dead writes are folded into ``OC_ONLY`` (they never reach the RF),
    matching the paper's transient-operand share.

    Args:
        classifications: write classifications to aggregate.
        weights: optional dynamic execution count per *instruction
            index* (for weighting static decisions by trace frequency).
    """
    counts: Dict[WritebackClass, float] = {
        WritebackClass.RF_ONLY: 0.0,
        WritebackClass.OC_ONLY: 0.0,
        WritebackClass.BOTH: 0.0,
    }
    total = 0.0
    for item in classifications:
        weight = 1.0 if weights is None else float(weights.get(item.index, 0))
        if weight == 0.0:
            continue
        bucket = (
            WritebackClass.OC_ONLY
            if item.writeback is WritebackClass.DEAD
            else item.writeback
        )
        counts[bucket] += weight
        total += weight
    if total == 0.0:
        return {bucket: 0.0 for bucket in counts}
    return {bucket: value / total for bucket, value in counts.items()}
