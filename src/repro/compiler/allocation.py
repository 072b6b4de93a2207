"""Transient-register allocation elision (paper SS IV-B.2a).

Values classified OC-only never leave the bypassing operand collector,
so no register-file storage need be allocated for them.  This module
quantifies how much of a kernel's register demand is transient: the
paper finds ~52% of computed operands are transient at IW=3, letting the
GPU provision a smaller RF for the same performance (or run more thread
blocks for the same RF).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..errors import CompilerError
from ..isa import Instruction
from ..kernels.cfg import KernelCFG
from .writeback import WriteClassification, classify_cfg, classify_linear_writes


@dataclass(frozen=True)
class AllocationResult:
    """RF allocation demand before and after transient elision.

    Attributes:
        total_registers: distinct architectural registers the kernel names.
        rf_resident_registers: registers that still need an RF slot (at
            least one of their defining writes must reach the RF).
        transient_registers: registers *all* of whose values die inside
            the window — they need no RF slot at all.
        transient_write_fraction: fraction of dynamic/static writes that
            never reach the RF (the paper's 52% figure at IW=3).
    """

    total_registers: int
    rf_resident_registers: int
    transient_registers: int
    transient_write_fraction: float

    @property
    def register_savings(self) -> float:
        """Fraction of RF slots the kernel no longer needs."""
        if self.total_registers == 0:
            return 0.0
        return self.transient_registers / self.total_registers


def _aggregate(classifications, registers) -> AllocationResult:
    needs_rf_regs = set()
    seen_regs = set()
    transient_writes = 0
    total_writes = 0
    for item in classifications:
        seen_regs.add(item.register_id)
        total_writes += 1
        if item.needs_rf:
            needs_rf_regs.add(item.register_id)
        else:
            transient_writes += 1
    all_regs = set(registers) | seen_regs
    transient_regs = {
        reg for reg in seen_regs if reg not in needs_rf_regs
    }
    return AllocationResult(
        total_registers=len(all_regs),
        rf_resident_registers=len(all_regs) - len(transient_regs),
        transient_registers=len(transient_regs),
        transient_write_fraction=(
            transient_writes / total_writes if total_writes else 0.0
        ),
    )


def effective_register_demand(
    cfg: KernelCFG,
    window_size: int,
    classified: Optional[Dict[str, List[WriteClassification]]] = None,
) -> AllocationResult:
    """Measure transient-register savings for a kernel CFG.

    ``classified`` is :func:`classify_cfg`'s result for this CFG and
    window, if the caller already has it.  Hint bits do not change it,
    so one classification serves before and after :func:`annotate_cfg`.
    """
    if window_size < 1:
        raise CompilerError(f"window_size must be >= 1, got {window_size}")
    if classified is None:
        classified = classify_cfg(cfg, window_size)
    flattened = [item for items in classified.values() for item in items]
    registers = set()
    for block in cfg:
        for inst in block.instructions:
            for src in inst.sources:
                registers.add(src.id)
            if inst.dest is not None:
                registers.add(inst.dest.id)
    return _aggregate(flattened, registers)


def linear_register_demand(
    instructions: Sequence[Instruction],
    window_size: int,
    live_out: FrozenSet[int] = frozenset(),
) -> AllocationResult:
    """Measure transient-register savings for a linear sequence."""
    classified = classify_linear_writes(instructions, window_size, live_out)
    registers = set()
    for inst in instructions:
        for src in inst.sources:
            registers.add(src.id)
        if inst.dest is not None:
            registers.add(inst.dest.id)
    return _aggregate(classified, registers)
