"""The :class:`Instruction` value type.

An instruction is the unit everything else in the library consumes: the
compiler annotates it, the trace generators emit it, and the timing
model moves it through the pipeline.  It is immutable; compiler passes
produce annotated copies via :meth:`Instruction.with_hint`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..errors import IsaError
from .opcodes import OpClass, Opcode
from .registers import Predicate, Register

_instruction_ids = itertools.count()


class MemSpace(enum.Enum):
    """Address space of a memory instruction (drives its latency)."""

    GLOBAL = "global"
    SHARED = "shared"
    LOCAL = "local"


class WritebackHint(enum.Enum):
    """BOW-WR's two writeback-hint bits (SS IV-B).

    The first bit enables writing the result to the BOC, the second
    enables writing it to the register file banks.
    """

    BOTH = (True, True)  # default: reused in window, live after it
    OC_ONLY = (True, False)  # transient: dies inside the window
    RF_ONLY = (False, True)  # no reuse inside the window

    @property
    def to_oc(self) -> bool:
        return self.value[0]

    @property
    def to_rf(self) -> bool:
        return self.value[1]

    @property
    def bits(self) -> Tuple[bool, bool]:
        return self.value

    @classmethod
    def from_bits(cls, to_oc: bool, to_rf: bool) -> "WritebackHint":
        for hint in cls:
            if hint.value == (to_oc, to_rf):
                return hint
        raise IsaError(f"invalid writeback hint bits ({to_oc}, {to_rf})")


@dataclass(frozen=True)
class Instruction:
    """One static SASS-like instruction.

    Attributes:
        opcode: entry from the opcode table.
        dest: destination register, or ``None`` when the opcode writes
            nothing (stores, control).
        sources: register source operands, at most ``opcode.num_sources``.
        immediate: immediate operand, when present.
        predicate: guarding predicate, when present.
        pred_dest: predicate register written by compare instructions
            (``set.ne $p0/$o127, ...``); the integer result goes to the
            sink register, the boolean lands here.  Consumed by the SIMT
            lane-level executor; the scalar pipeline ignores it.
        hint: BOW-WR writeback hint (compiler-assigned; ``BOTH`` is the
            architecture's default behaviour without hints).
        uid: unique id used to correlate static instructions across
            compiler passes and traces.
    """

    opcode: Opcode
    dest: Optional[Register] = None
    sources: Tuple[Register, ...] = ()
    immediate: Optional[int] = None
    predicate: Optional[Predicate] = None
    pred_dest: Optional[Predicate] = None
    hint: WritebackHint = WritebackHint.BOTH
    uid: int = field(default_factory=lambda: next(_instruction_ids))

    def __post_init__(self) -> None:
        if len(self.sources) > self.opcode.num_sources:
            raise IsaError(
                f"{self.opcode.name} takes at most {self.opcode.num_sources} "
                f"register sources, got {len(self.sources)}"
            )
        if self.dest is not None and not self.opcode.has_dest:
            raise IsaError(f"{self.opcode.name} cannot have a destination")
        if self.dest is None and self.opcode.has_dest:
            raise IsaError(f"{self.opcode.name} requires a destination")

    # -- classification ------------------------------------------------

    @property
    def op_class(self) -> OpClass:
        return self.opcode.op_class

    @property
    def is_memory(self) -> bool:
        return self.opcode.op_class.is_memory

    @property
    def is_load(self) -> bool:
        return self.opcode.op_class is OpClass.MEM_LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode.op_class is OpClass.MEM_STORE

    @property
    def is_control(self) -> bool:
        return self.opcode.op_class.is_control

    @property
    def is_branch(self) -> bool:
        return self.opcode.name in ("bra", "ssy")

    @property
    def num_register_operands(self) -> int:
        """Register *source* operands — the OCU occupancy of Figure 8."""
        return len(self.sources)

    @property
    def mem_space(self) -> Optional[MemSpace]:
        if not self.is_memory:
            return None
        suffix = self.opcode.name.split(".", 1)[1]
        return MemSpace(suffix)

    # -- register sets used by the compiler ----------------------------

    @property
    def uses(self) -> Tuple[Register, ...]:
        """Registers read by this instruction (sources + predicate excluded)."""
        return self.sources

    @property
    def defs(self) -> Tuple[Register, ...]:
        """Registers written by this instruction."""
        return (self.dest,) if self.dest is not None else ()

    def accessed_registers(self) -> Tuple[Register, ...]:
        """All registers touched, sources first then destination."""
        return self.sources + self.defs

    # -- derivation -----------------------------------------------------

    def with_hint(self, hint: WritebackHint) -> "Instruction":
        """An identical instruction carrying a new writeback hint.

        The ``uid`` is preserved so traces remain correlated with the
        compiler's static view.  Only the hint changes, so the copy
        takes this validated instance's fields as they are instead of
        constructing (and re-checking) a new one.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.__dict__["hint"] = hint
        return clone

    def renumbered(self) -> "Instruction":
        """A copy with a fresh ``uid`` (used when cloning loop bodies)."""
        return replace(self, uid=next(_instruction_ids))

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        if self.predicate is not None:
            parts.append(f"@{self.predicate}")
        parts.append(self.opcode.name)
        operands = []
        if self.pred_dest is not None:
            operands.append(f"{self.pred_dest}/$o127")
        elif self.dest is not None:
            operands.append(str(self.dest))
        operands.extend(str(src) for src in self.sources)
        if self.immediate is not None:
            operands.append(f"0x{self.immediate & 0xFFFFFFFF:08x}")
        text = " ".join(parts)
        if operands:
            text += " " + ", ".join(operands)
        return text
