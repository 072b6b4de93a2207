"""Synthetic kernel generation with controllable register locality.

Real GPU kernels are built from a handful of recurring code idioms —
address-arithmetic chains feeding a load, accumulation chains, loads
whose value is consumed a few instructions later, stores of freshly
computed values, and occasional reads of long-lived values (loop
bounds, base pointers).  The generator emits a weighted mix of exactly
these idioms, so register reuse-distance statistics emerge from code
*shape* rather than from sampling an arbitrary distribution.  Each
benchmark profile (see :mod:`repro.kernels.suites`) picks weights that
reproduce its column of the paper's Figure 3 / Figure 8 statistics.

Terminology used throughout:

* a *fresh* register is one drawn from the kernel's pool, round-robin,
  so it was last touched a long time ago (a distant access);
* a *recent* register is one accessed within the last few instructions
  (a near access that BOW can bypass).
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence

from ..errors import KernelError
from ..isa import Instruction, Register, opcode_by_name
from .cfg import KernelCFG
from .trace import KernelTrace

_ALU_2SRC = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr", "min", "max")
_ALU_3SRC = ("mad", "fma", "sel")
_ALU_1SRC = ("mov",)
_SFU_OPS = ("rcp", "sqrt", "sin", "exp")


@dataclass(frozen=True)
class IdiomWeights:
    """Relative frequencies of the code idioms the generator emits.

    The defaults give a middle-of-the-road compute kernel; benchmark
    profiles override them.  Weights need not sum to one.

    Attributes:
        accumulate_chain: runs of ALU instructions repeatedly updating an
            accumulator (dense read+write locality; the Fig. 6 pattern).
        address_load: address arithmetic immediately feeding a load
            (read locality, write consolidation on the address register).
        load_use: a load whose value is consumed 1-2 instructions later.
        compute_mix: independent ALU ops on recent values (read locality
            without write consolidation).
        far_read: ALU ops reading long-lived registers (no locality).
        store: store of a recently produced value.
        sfu: special-function instruction on a recent value.
        three_src: 3-source ALU ops (mad/fma/sel) — drives Fig. 8's
            OCU-occupancy-3 share.
    """

    accumulate_chain: float = 3.0
    address_load: float = 2.0
    load_use: float = 2.0
    compute_mix: float = 3.0
    far_read: float = 2.0
    store: float = 1.0
    sfu: float = 0.3
    three_src: float = 0.5

    def as_dict(self) -> Dict[str, float]:
        return {
            "accumulate_chain": self.accumulate_chain,
            "address_load": self.address_load,
            "load_use": self.load_use,
            "compute_mix": self.compute_mix,
            "far_read": self.far_read,
            "store": self.store,
            "sfu": self.sfu,
            "three_src": self.three_src,
        }


@dataclass(frozen=True)
class SyntheticKernelSpec:
    """Everything needed to generate one synthetic kernel.

    Attributes:
        name: kernel name (usually the benchmark name).
        num_registers: architectural registers the kernel cycles through;
            larger pools mean longer reuse distances for *fresh* picks.
        body_instructions: approximate instructions per loop body.
        loop_iterations: expected loop trip count per warp.
        num_warps: warps in the launch.
        weights: idiom mix.
        chain_length: mean length of accumulation chains.
        branch_every: emit an (unconditional-in-trace) branch roughly
            every N body instructions, modelling basic-block boundaries.
        max_source_operands: cap on register sources (BFS/BTREE/LPS have
            no 3-source instructions — paper Fig. 8).
        locality: fraction of *recent* register picks that stay recent;
            the rest are redirected to long-lived registers.  This is the
            calibration knob that matches each benchmark's Figure 3
            column: 1.0 keeps the idioms' natural (high) locality, lower
            values dilute it.
        seed: base RNG seed; warp ``w`` uses ``seed + w``.
    """

    name: str
    num_registers: int = 24
    body_instructions: int = 60
    loop_iterations: int = 20
    num_warps: int = 8
    weights: IdiomWeights = field(default_factory=IdiomWeights)
    chain_length: int = 3
    branch_every: int = 18
    max_source_operands: int = 3
    locality: float = 1.0
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.num_registers < 6:
            raise KernelError("need at least 6 registers to form idioms")
        if self.body_instructions < 4:
            raise KernelError("body_instructions must be >= 4")
        if self.num_warps < 1:
            raise KernelError("num_warps must be >= 1")
        if not 1 <= self.max_source_operands <= 3:
            raise KernelError("max_source_operands must be 1..3")
        if not 0.0 <= self.locality <= 1.0:
            raise KernelError("locality must be in [0, 1]")

    def scaled(self, factor: float) -> "SyntheticKernelSpec":
        """A spec with the dynamic trace length scaled by ``factor``."""
        return replace(
            self,
            loop_iterations=max(1, round(self.loop_iterations * factor)),
        )


class _RegisterPool:
    """Tracks recent register accesses and hands out fresh registers.

    ``recent(k)`` returns a register accessed within the last few
    instructions; ``fresh()`` cycles round-robin through the pool so the
    returned register was last touched ~``num_registers`` accesses ago.
    """

    def __init__(self, num_registers: int, rng: random.Random):
        self._rng = rng
        self._ids = list(range(num_registers))
        self._cursor = 0
        self._recent: Deque[int] = deque(maxlen=8)
        # Destinations written but not yet read, oldest first: real code
        # eventually consumes most values it computes, so far-readers
        # drain this queue rather than leaving dead writes behind.
        self._unread: "OrderedDict[int, None]" = OrderedDict()
        # Seed recency so the first idioms have something to read.
        for reg_id in self._ids[: 4]:
            self._recent.append(reg_id)

    def fresh(self) -> Register:
        reg_id = self._ids[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._ids)
        return Register(reg_id)

    def recent(self, horizon: int = 4) -> Register:
        candidates = list(self._recent)[-horizon:]
        return Register(self._rng.choice(candidates))

    def stale(self) -> Register:
        """The oldest value written but never read (else a fresh pick)."""
        for reg_id in self._unread:
            if reg_id not in list(self._recent)[-4:]:
                del self._unread[reg_id]
                return Register(reg_id)
        return self.fresh()

    def touch_read(self, reg_id: int) -> None:
        self._recent.append(reg_id)
        self._unread.pop(reg_id, None)

    def touch_write(self, reg_id: int) -> None:
        self._recent.append(reg_id)
        self._unread[reg_id] = None
        self._unread.move_to_end(reg_id)


class _KernelBuilder:
    """Emits idioms into an instruction list."""

    def __init__(self, spec: SyntheticKernelSpec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.pool = _RegisterPool(spec.num_registers, rng)
        self.instructions: List[Instruction] = []

    # -- emission helpers ------------------------------------------------

    def _emit(self, opcode_name: str, dest: Optional[Register],
              sources: Sequence[Register], immediate: Optional[int] = None) -> None:
        opcode = opcode_by_name(opcode_name)
        sources = tuple(sources[: opcode.num_sources])
        self.instructions.append(
            Instruction(opcode=opcode, dest=dest, sources=sources,
                        immediate=immediate)
        )
        for src in sources:
            self.pool.touch_read(src.id)
        if dest is not None:
            self.pool.touch_write(dest.id)

    def _recent(self, horizon: int = 4) -> Register:
        """A near register, diluted by the profile's locality knob."""
        if self.rng.random() < self.spec.locality:
            return self.pool.recent(horizon)
        return self.pool.fresh()

    def _alu_op(self, num_sources: int) -> str:
        num_sources = min(num_sources, self.spec.max_source_operands)
        if num_sources >= 3:
            return self.rng.choice(_ALU_3SRC)
        if num_sources == 2:
            return self.rng.choice(_ALU_2SRC)
        return _ALU_1SRC[0]

    # -- idioms ------------------------------------------------------------

    def accumulate_chain(self) -> None:
        """mov/mul/mad-style chain repeatedly updating one register."""
        acc = self.pool.fresh()
        length = max(2, round(self.rng.gauss(self.spec.chain_length, 0.7)))
        self._emit("mov", acc, [self._recent()],
                   immediate=self.rng.getrandbits(16))
        for _ in range(length - 1):
            other = self._recent() if self.rng.random() < 0.7 else self.pool.fresh()
            if (self.spec.max_source_operands >= 3
                    and self.rng.random() < self._three_src_probability()):
                self._emit(self.rng.choice(_ALU_3SRC), acc, [acc, other, acc])
            else:
                self._emit(self._alu_op(2), acc, [acc, other])

    def address_load(self) -> None:
        """Address arithmetic feeding a load (Fig. 6 lines 10-11)."""
        addr = self.pool.fresh()
        base = self._recent() if self.rng.random() < 0.5 else self.pool.fresh()
        self._emit("add", addr, [base, self._recent()],
                   immediate=self.rng.getrandbits(12))
        value = self.pool.fresh()
        space = "global" if self.rng.random() < 0.8 else "shared"
        self._emit(f"ld.{space}", value, [addr])
        if self.rng.random() < 0.6:
            self._emit(self._alu_op(2), value, [value, self._recent()])

    def load_use(self) -> None:
        """Load whose value is consumed shortly after."""
        addr = self._recent() if self.rng.random() < 0.5 else self.pool.fresh()
        value = self.pool.fresh()
        self._emit("ld.global", value, [addr])
        if self.rng.random() < 0.5:
            self._emit(self._alu_op(2), self.pool.fresh(),
                       [self._recent(), self._recent()])
        self._emit(self._alu_op(2), self.pool.fresh(), [value, self._recent()])

    def compute_mix(self) -> None:
        """Independent ALU work on recent values (read locality only)."""
        for _ in range(self.rng.randint(1, 3)):
            num_src = 3 if (self.spec.max_source_operands >= 3 and
                            self.rng.random() < self._three_src_probability()) else 2
            sources = [self._recent() for _ in range(num_src)]
            self._emit(self._alu_op(num_src), self.pool.fresh(), sources)

    def far_read(self) -> None:
        """Work on long-lived values: no bypassable locality."""
        sources = [self.pool.stale() for _ in range(2)]
        self._emit(self._alu_op(2), self.pool.fresh(), sources,
                   immediate=self.rng.getrandbits(16))

    def store(self) -> None:
        """Store a recently produced value to memory."""
        addr = self.pool.fresh()
        self._emit("add", addr, [self._recent(), self.pool.fresh()])
        space = "global" if self.rng.random() < 0.8 else "shared"
        self._emit(f"st.{space}", None, [addr, self._recent()])

    def sfu(self) -> None:
        self._emit(self.rng.choice(_SFU_OPS), self.pool.fresh(),
                   [self._recent()])

    def three_src(self) -> None:
        """A guaranteed 3-source instruction (when the ISA profile allows)."""
        if self.spec.max_source_operands < 3:
            self.compute_mix()
            return
        sources = [self._recent(), self._recent(), self.pool.fresh()]
        self._emit(self.rng.choice(_ALU_3SRC), self.pool.fresh(), sources)

    def _three_src_probability(self) -> float:
        weights = self.spec.weights
        total = sum(weights.as_dict().values())
        return min(0.4, weights.three_src / total * 2.0)

    # -- body generation ---------------------------------------------------

    _IDIOM_ORDER = (
        "accumulate_chain",
        "address_load",
        "load_use",
        "compute_mix",
        "far_read",
        "store",
        "sfu",
        "three_src",
    )

    def build_body(self) -> List[Instruction]:
        """One loop body of roughly ``spec.body_instructions`` instructions."""
        self.instructions = []
        weight_map = self.spec.weights.as_dict()
        names = [n for n in self._IDIOM_ORDER if weight_map[n] > 0]
        weights = [weight_map[n] for n in names]
        since_branch = 0
        while len(self.instructions) < self.spec.body_instructions:
            idiom = self.rng.choices(names, weights=weights, k=1)[0]
            before = len(self.instructions)
            getattr(self, idiom)()
            since_branch += len(self.instructions) - before
            if since_branch >= self.spec.branch_every:
                self._emit("bra", None, [], immediate=0)
                since_branch = 0
        return self.instructions


def generate_kernel(spec: SyntheticKernelSpec) -> KernelCFG:
    """Build the kernel CFG for ``spec`` (deterministic in ``spec.seed``)."""
    rng = random.Random(spec.seed)
    builder = _KernelBuilder(spec, rng)
    body = builder.build_body()

    preamble_builder = _KernelBuilder(spec, random.Random(spec.seed ^ 0x5EED))
    preamble_builder.far_read()
    preamble_builder.compute_mix()
    preamble = preamble_builder.instructions

    epilogue = [
        Instruction(opcode=opcode_by_name("st.global"), dest=None,
                    sources=(Register(0), Register(1))),
        Instruction(opcode=opcode_by_name("exit"), dest=None, sources=()),
    ]

    from .cfg import loop_kernel  # local import avoids a cycle at module load

    return loop_kernel(spec.name, preamble, body, epilogue, spec.loop_iterations)


def generate_trace(spec: SyntheticKernelSpec,
                   max_instructions_per_warp: int = 20_000,
                   kernel: Optional[KernelCFG] = None) -> KernelTrace:
    """Generate the kernel and expand one trace per warp.

    Warp ``w`` expands with seed ``spec.seed + w`` so warps follow
    slightly different paths (different loop trip counts), as they do in
    real launches.  ``kernel`` is ``generate_kernel(spec)`` when the
    caller already has it.
    """
    cfg = generate_kernel(spec) if kernel is None else kernel
    return _expand(spec, cfg, max_instructions_per_warp)


def generate_compiled_trace(
    spec: SyntheticKernelSpec,
    window_size: int,
    max_instructions_per_warp: int = 20_000,
    kernel: Optional[KernelCFG] = None,
) -> KernelTrace:
    """Generate, run the BOW-WR compiler, then expand per-warp traces.

    The compiler pass rewrites the kernel's instructions with their
    writeback-hint bits before control flow is resolved, so every
    dynamic occurrence of a static instruction carries the same hint —
    exactly what hardware decoding the 2 hint bits would see.  Given
    ``kernel`` (``generate_kernel(spec)``), a copy of it is compiled, so
    the kernel and traces already expanded from it keep their hints.
    """
    from ..compiler.pipeline import compile_kernel

    cfg = generate_kernel(spec) if kernel is None else kernel.copy()
    compile_kernel(cfg, window_size)
    return _expand(spec, cfg, max_instructions_per_warp)


def _expand(spec: SyntheticKernelSpec, cfg: KernelCFG,
            max_instructions_per_warp: int) -> KernelTrace:
    warps = [
        cfg.expand_warp(warp_id, random.Random(spec.seed + warp_id + 1),
                        max_instructions_per_warp)
        for warp_id in range(spec.num_warps)
    ]
    return KernelTrace(name=spec.name, warps=warps)
