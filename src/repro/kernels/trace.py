"""Dynamic per-warp instruction traces.

A :class:`WarpTrace` is the resolved instruction stream one warp
executes; a :class:`KernelTrace` bundles the traces of every warp of a
kernel launch.  The bypass analyses (Figure 3, 7, 8, Table I) and the
timing simulator both consume traces, so their semantics agree by
construction.

A trace expanded from a :class:`~repro.kernels.cfg.KernelCFG` also
keeps its block path run-length encoded as :data:`Segment` pairs, so the
static analyses (:mod:`repro.core.window`, Figure 7) cost what the path
has blocks, not what it has loop iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from ..errors import KernelError
from ..isa import Instruction


@dataclass(frozen=True)
class RegisterAccess:
    """One register access inside a trace.

    Attributes:
        index: dynamic instruction index within the warp trace.
        register_id: architectural register id.
        is_write: ``True`` for destination writes, ``False`` for source reads.
        operand_slot: source slot (0..2) for reads; -1 for writes.
    """

    index: int
    register_id: int
    is_write: bool
    operand_slot: int = -1


#: ``(body, repeats)``: ``repeats`` back-to-back copies of one block body.
Segment = Tuple[Sequence[Instruction], int]


@dataclass
class WarpTrace:
    """The dynamic instruction stream of one warp.

    ``instructions`` is the stream itself.  ``segments`` is the same
    stream as run-length block segments: concatenating ``repeats``
    copies of each ``body`` in order gives ``instructions``.  Traces
    expanded from a CFG carry one segment per run of back-to-back visits
    of a block, with bodies shared by every warp of the expansion; any
    other trace (hand-built, imported, deserialized, shrunk) is one
    segment of count 1 holding ``instructions`` itself.
    """

    warp_id: int
    instructions: List[Instruction] = field(default_factory=list)
    segments: Tuple[Segment, ...] = field(default=(), compare=False,
                                          repr=False)

    def __post_init__(self) -> None:
        if self.warp_id < 0:
            raise KernelError(f"warp_id must be >= 0, got {self.warp_id}")
        if not self.segments and self.instructions:
            self.segments = ((self.instructions, 1),)

    @classmethod
    def from_segments(cls, warp_id: int,
                      segments: Sequence[Segment]) -> "WarpTrace":
        """The warp whose stream is ``segments`` expanded in order."""
        instructions: List[Instruction] = []
        for body, repeats in segments:
            instructions.extend(body * repeats)
        return cls(warp_id, instructions, tuple(segments))

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    @property
    def num_reads(self) -> int:
        """Total register source operands in the trace."""
        return sum(len(inst.sources) for inst in self.instructions)

    @property
    def num_writes(self) -> int:
        """Total register destination writes in the trace."""
        return sum(1 for inst in self.instructions if inst.dest is not None)

    @property
    def num_memory(self) -> int:
        return sum(1 for inst in self.instructions if inst.is_memory)

    def registers_used(self) -> Tuple[int, ...]:
        """Sorted distinct architectural registers the trace touches."""
        regs = set()
        for inst in self.instructions:
            for src in inst.sources:
                regs.add(src.id)
            if inst.dest is not None:
                regs.add(inst.dest.id)
        return tuple(sorted(regs))


def iter_accesses(trace: Sequence[Instruction]) -> Iterator[RegisterAccess]:
    """Yield every register access of a trace in program order.

    Within one instruction, sources are yielded before the destination,
    matching the pipeline (operands are read before the result exists).
    """
    for index, inst in enumerate(trace):
        for slot, src in enumerate(inst.sources):
            yield RegisterAccess(index, src.id, is_write=False, operand_slot=slot)
        if inst.dest is not None:
            yield RegisterAccess(index, inst.dest.id, is_write=True)


@dataclass
class KernelTrace:
    """Traces of every warp of one kernel launch."""

    name: str
    warps: List[WarpTrace] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen = set()
        for warp in self.warps:
            if warp.warp_id in seen:
                raise KernelError(f"duplicate warp id {warp.warp_id}")
            seen.add(warp.warp_id)

    def __len__(self) -> int:
        return len(self.warps)

    def __iter__(self) -> Iterator[WarpTrace]:
        return iter(self.warps)

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def total_instructions(self) -> int:
        return sum(len(warp) for warp in self.warps)

    @property
    def total_reads(self) -> int:
        return sum(warp.num_reads for warp in self.warps)

    @property
    def total_writes(self) -> int:
        return sum(warp.num_writes for warp in self.warps)

    def memory_fraction(self) -> float:
        """Fraction of dynamic instructions that are loads/stores."""
        total = self.total_instructions
        if total == 0:
            return 0.0
        return sum(warp.num_memory for warp in self.warps) / total
