"""A fluent builder for constructing kernels programmatically.

The assembler (:mod:`repro.isa.parser`) suits pasted listings; this
builder suits generated or parameterized kernels::

    from repro.kernels.builder import KernelBuilder

    b = KernelBuilder("saxpy")
    b.mov(1, imm=0)                    # acc = 0
    b.jump("body")

    b.block("body")
    b.ld(3, addr=2)                    # x = [r2]
    b.mad(1, 3, 4, 1)                  # acc = x*a + acc
    b.add(2, 2, imm=4)                 # advance pointer
    b.branch(taken="body", fallthrough="done", probability=0.9)

    b.block("done")
    b.st(addr=5, value=1)
    b.exit()
    kernel = b.build()

Registers are plain ints; blocks are declared on first use and
validated at :meth:`KernelBuilder.build`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..errors import KernelError
from ..isa import Instruction
from ..isa.opcodes import opcode_by_name
from ..isa.registers import SINK_REGISTER, Predicate, Register
from .cfg import BasicBlock, Edge, KernelCFG
from .trace import KernelTrace

RegisterLike = Union[int, Register]


def _reg(value: RegisterLike) -> Register:
    if isinstance(value, Register):
        return value
    if isinstance(value, int):
        return Register(value)
    raise KernelError(f"not a register: {value!r}")


class KernelBuilder:
    """Accumulates instructions into blocks and edges into a CFG."""

    def __init__(self, name: str, entry: str = "entry"):
        if not name:
            raise KernelError("kernel needs a name")
        self.name = name
        self.entry = entry
        self._blocks: "Dict[str, List[Instruction]]" = {entry: []}
        self._edges: Dict[str, List[Edge]] = {}
        self._current = entry
        self._sealed: set = set()

    # -- structure -------------------------------------------------------

    def block(self, label: str) -> "KernelBuilder":
        """Start (or resume) the block named ``label``."""
        if not label:
            raise KernelError("block needs a non-empty label")
        if label in self._sealed:
            raise KernelError(f"block {label!r} already has its terminator")
        self._blocks.setdefault(label, [])
        self._current = label
        return self

    def jump(self, target: str) -> "KernelBuilder":
        """End the current block with an unconditional edge."""
        self._seal([Edge(target)])
        return self

    def branch(self, taken: str, fallthrough: str,
               probability: float = 0.5) -> "KernelBuilder":
        """End the current block with a two-way branch.

        ``probability`` is the taken probability used by trace expansion
        and lane-level divergence.
        """
        self.inst("bra", imm=0)
        self._seal([Edge(taken, probability),
                    Edge(fallthrough, 1.0 - probability)])
        return self

    def exit(self) -> "KernelBuilder":
        """End the current block as a kernel exit."""
        self.inst("exit")
        self._seal([])
        return self

    def _seal(self, edges: List[Edge]) -> None:
        if self._current in self._sealed:
            raise KernelError(
                f"block {self._current!r} already has its terminator"
            )
        self._edges[self._current] = edges
        self._sealed.add(self._current)

    # -- instructions -------------------------------------------------------

    def inst(self, opcode_name: str, dest: Optional[RegisterLike] = None,
             srcs: Sequence[RegisterLike] = (), imm: Optional[int] = None,
             guard: Optional[int] = None, guard_negated: bool = False,
             pred_dest: Optional[int] = None) -> "KernelBuilder":
        """Append one instruction to the current block (generic form)."""
        if self._current in self._sealed and opcode_name not in ("bra",
                                                                 "exit"):
            raise KernelError(
                f"block {self._current!r} is sealed; start a new block"
            )
        opcode = opcode_by_name(opcode_name)
        dest_reg: Optional[Register]
        if pred_dest is not None:
            dest_reg = SINK_REGISTER
        elif dest is not None:
            dest_reg = _reg(dest)
        else:
            dest_reg = None
        predicate = (Predicate(guard, negated=guard_negated)
                     if guard is not None else None)
        instruction = Instruction(
            opcode=opcode,
            dest=dest_reg,
            sources=tuple(_reg(s) for s in srcs),
            immediate=imm,
            predicate=predicate,
            pred_dest=Predicate(pred_dest) if pred_dest is not None else None,
        )
        self._blocks[self._current].append(instruction)
        return self

    # -- sugar ----------------------------------------------------------------

    def mov(self, dest: RegisterLike, src: Optional[RegisterLike] = None,
            imm: Optional[int] = None, **kw) -> "KernelBuilder":
        srcs = (src,) if src is not None else ()
        if src is None and imm is None:
            raise KernelError("mov needs a source register or an immediate")
        return self.inst("mov", dest, srcs, imm=imm, **kw)

    def _binary(self, name, dest, a, b, imm, **kw):
        srcs = [a] if b is None else [a, b]
        if b is None and imm is None:
            raise KernelError(f"{name} needs two sources or an immediate")
        return self.inst(name, dest, srcs, imm=imm, **kw)

    def add(self, dest, a, b=None, imm=None, **kw):
        return self._binary("add", dest, a, b, imm, **kw)

    def sub(self, dest, a, b=None, imm=None, **kw):
        return self._binary("sub", dest, a, b, imm, **kw)

    def mul(self, dest, a, b=None, imm=None, **kw):
        return self._binary("mul", dest, a, b, imm, **kw)

    def shl(self, dest, a, b=None, imm=None, **kw):
        return self._binary("shl", dest, a, b, imm, **kw)

    def mad(self, dest, a, b, c, **kw):
        return self.inst("mad", dest, (a, b, c), **kw)

    def ld(self, dest, addr, space: str = "global", **kw):
        return self.inst(f"ld.{space}", dest, (addr,), **kw)

    def st(self, addr, value, space: str = "global", **kw):
        return self.inst(f"st.{space}", None, (addr, value), **kw)

    def set_ne(self, pred: int, a, b, **kw):
        return self.inst("set.ne", srcs=(a, b), pred_dest=pred, **kw)

    def set_lt(self, pred: int, a, b, **kw):
        return self.inst("set.lt", srcs=(a, b), pred_dest=pred, **kw)

    def nop(self) -> "KernelBuilder":
        return self.inst("nop")

    # -- products -------------------------------------------------------------

    def build(self) -> KernelCFG:
        """Validate and return the kernel CFG.

        Unsealed non-empty blocks become exits (a convenience for
        straight-line kernels).
        """
        blocks = []
        for label, instructions in self._blocks.items():
            edges = self._edges.get(label, [])
            blocks.append(BasicBlock(label, list(instructions), list(edges)))
        return KernelCFG(self.name, blocks, entry=self.entry)

    def trace(self, num_warps: int = 1, seed: int = 0,
              max_instructions_per_warp: int = 100_000) -> KernelTrace:
        """Build and expand into per-warp traces in one call."""
        import random

        cfg = self.build()
        warps = [
            cfg.expand_warp(w, random.Random(seed + w + 1),
                            max_instructions_per_warp)
            for w in range(num_warps)
        ]
        return KernelTrace(name=self.name, warps=warps)
