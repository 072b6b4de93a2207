"""Seed-driven adversarial kernel generation.

The 15 calibrated synthetic benchmarks reproduce the paper's workload
statistics; this generator does the opposite job — it explores the
corners those profiles never reach.  From one integer seed it derives a
random-but-valid kernel: a *structured* (hence reducible) CFG built
through :class:`~repro.kernels.builder.KernelBuilder` out of nested
branch diamonds and probabilistic loops (zero-trip loops included),
filled with a hostile instruction mix — operand-count extremes
(``mad``/``fma``/``sel``), loads and stores across all three memory
spaces, predicated instructions, corner-value immediates, and register
pools from tiny (pathologically short reuse distances) to near the
architectural limit (no reuse at all).

Structured construction gives the three invariants the differential rig
relies on, by construction rather than by filtering:

* the built CFG always passes :meth:`KernelCFG.validate`;
* every block is sealed (exactly one terminator; no accidental exits);
* the entry reaches an exit, and every loop body contains at least one
  instruction (its terminating ``bra``), so trace expansion always
  makes progress and terminates within its cap.

The hypothesis property suite (``tests/kernels/test_cfg_properties.py``)
asserts exactly these invariants over a wide sample of seeds and
configurations.

Determinism: ``generate_case(seed, config)`` is a pure function of its
arguments.  Warp ``w`` expands control flow with ``random.Random(seed
+ w + 1)`` — the :meth:`KernelBuilder.trace` convention — so per-warp
divergence (different trip counts, different branch paths) arises
naturally from the shared CFG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import KernelError
from ..kernels.builder import KernelBuilder
from ..kernels.cfg import KernelCFG
from ..kernels.trace import KernelTrace, WarpTrace

#: 2-source ALU opcodes the generator draws from.
_ALU_2SRC = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr",
             "min", "max")
#: 3-source opcodes — the operand-count extreme (paper Fig. 8).
_ALU_3SRC = ("mad", "fma", "sel")
_SFU = ("rcp", "sqrt", "sin", "exp")
_SPACES = ("global", "shared", "local")
#: Corner-value immediates mixed with uniform draws.
_IMMEDIATES = (0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xDEADBEEF)


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing campaign (all draws derive from the seed).

    Attributes:
        max_depth: nesting depth of structured regions (branch inside
            loop inside branch ...).
        max_segments: constructs chained at each nesting level.
        max_block_instructions: straight-line instructions per segment.
        min_registers / max_registers: bounds of the per-case register
            pool; the pool size is the register-pressure knob (small
            pools force dense reuse, pools near the 255-register limit
            eliminate reuse entirely).  ``max_registers`` must stay
            below the sink register id (255).
        max_warps: warps per generated launch (at least 1).
        predication_probability: chance an instruction carries a
            ``@$pN`` guard (drives predicated-off divergence).
        three_src_probability: chance an ALU pick is 3-source.
        memory_probability: chance a pick is a load or store.
        sfu_probability: chance a pick is an SFU op.
        loop_probability: chance a nested construct is a loop rather
            than a branch diamond.
        max_trace_instructions: per-warp dynamic expansion cap.
        windows: instruction windows a case may draw.
    """

    max_depth: int = 3
    max_segments: int = 4
    max_block_instructions: int = 6
    min_registers: int = 4
    max_registers: int = 250
    max_warps: int = 6
    predication_probability: float = 0.15
    three_src_probability: float = 0.3
    memory_probability: float = 0.25
    sfu_probability: float = 0.08
    loop_probability: float = 0.4
    max_trace_instructions: int = 320
    windows: Tuple[int, ...] = (1, 2, 3, 6)

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise KernelError("max_depth must be >= 0")
        if self.max_segments < 1:
            raise KernelError("max_segments must be >= 1")
        if not 1 <= self.min_registers <= self.max_registers <= 254:
            raise KernelError(
                "register pool bounds must satisfy "
                "1 <= min_registers <= max_registers <= 254"
            )
        if self.max_warps < 1:
            raise KernelError("max_warps must be >= 1")
        if self.max_trace_instructions < 1:
            raise KernelError("max_trace_instructions must be >= 1")
        if not self.windows:
            raise KernelError("windows must not be empty")


#: The default campaign configuration (the CLI's).
DEFAULT_CONFIG = FuzzConfig()


@dataclass(frozen=True)
class FuzzCase:
    """One generated differential test case.

    ``plain`` is the unhinted expansion (what non-hinted designs run
    and what the reference executes); ``hinted`` is the *same* dynamic
    stream expanded after the BOW-WR compiler annotated the CFG for
    ``window`` — hinted designs run that, exactly as the experiment
    harness hint-compiles their benchmark traces.
    """

    seed: int
    cfg: KernelCFG
    plain: KernelTrace
    hinted: KernelTrace
    window: int
    memory_seed: int
    num_warps: int

    def trace_for(self, hinted: bool) -> KernelTrace:
        return self.hinted if hinted else self.plain


class _Emitter:
    """Recursive structured-region emitter over a :class:`KernelBuilder`.

    The builder's current block is always *open* (unsealed) between
    calls; every construct seals the blocks it opens and leaves a fresh
    open block for what follows.
    """

    def __init__(self, builder: KernelBuilder, rng: random.Random,
                 config: FuzzConfig, num_registers: int):
        self.b = builder
        self.rng = rng
        self.config = config
        self.num_registers = num_registers
        self._label = 0

    def fresh_label(self) -> str:
        self._label += 1
        return f"b{self._label}"

    # -- instruction soup ------------------------------------------------

    def _register(self) -> int:
        return self.rng.randrange(self.num_registers)

    def _immediate(self) -> int:
        if self.rng.random() < 0.5:
            return self.rng.choice(_IMMEDIATES)
        return self.rng.getrandbits(32)

    def _guard_kwargs(self) -> dict:
        if self.rng.random() >= self.config.predication_probability:
            return {}
        return {"guard": self.rng.randrange(8),
                "guard_negated": self.rng.random() < 0.5}

    def emit_instruction(self) -> None:
        """Append one random instruction to the open block."""
        rng = self.rng
        config = self.config
        guard = self._guard_kwargs()
        roll = rng.random()
        if roll < config.memory_probability:
            space = rng.choice(_SPACES)
            if rng.random() < 0.5:
                self.b.ld(self._register(), addr=self._register(),
                          space=space, **guard)
            else:
                self.b.st(addr=self._register(), value=self._register(),
                          space=space, **guard)
            return
        roll -= config.memory_probability
        if roll < config.sfu_probability:
            self.b.inst(rng.choice(_SFU), self._register(),
                        (self._register(),), **guard)
            return
        if rng.random() < 0.12:
            # Predicate definitions: feed the guards above.
            op = rng.choice(("set.ne", "set.lt"))
            self.b.inst(op, srcs=(self._register(), self._register()),
                        pred_dest=rng.randrange(8), **guard)
            return
        if rng.random() < config.three_src_probability:
            self.b.inst(rng.choice(_ALU_3SRC), self._register(),
                        (self._register(), self._register(),
                         self._register()), **guard)
            return
        op = rng.choice(_ALU_2SRC)
        if rng.random() < 0.25:
            # Immediate form: one register source + an immediate.
            self.b.inst(op, self._register(), (self._register(),),
                        imm=self._immediate(), **guard)
        elif rng.random() < 0.1:
            self.b.mov(self._register(), imm=self._immediate(), **guard)
        else:
            self.b.inst(op, self._register(),
                        (self._register(), self._register()), **guard)

    def emit_straightline(self, minimum: int = 0) -> None:
        count = self.rng.randint(minimum,
                                 self.config.max_block_instructions)
        for _ in range(count):
            self.emit_instruction()

    # -- structured constructs -------------------------------------------

    def emit_region(self, depth: int) -> None:
        """Emit a sequence of constructs into the open block."""
        for _ in range(self.rng.randint(1, self.config.max_segments)):
            self.emit_straightline()
            if depth >= self.config.max_depth:
                continue
            roll = self.rng.random()
            if roll < 0.45:
                continue  # plain straight-line segment
            if self.rng.random() < self.config.loop_probability:
                self.emit_loop(depth)
            else:
                self.emit_diamond(depth)

    def emit_diamond(self, depth: int) -> None:
        """An if/else diamond: branch, two arms, join."""
        then_label = self.fresh_label()
        else_label = self.fresh_label()
        join_label = self.fresh_label()
        probability = round(self.rng.uniform(0.05, 0.95), 3)
        self.b.branch(taken=then_label, fallthrough=else_label,
                      probability=probability)
        self.b.block(then_label)
        self.emit_region(depth + 1)
        self.b.jump(join_label)
        self.b.block(else_label)
        self.emit_region(depth + 1)
        self.b.jump(join_label)
        self.b.block(join_label)

    def emit_loop(self, depth: int) -> None:
        """A probabilistic loop with the zero-trip shape.

        The head *tests first*: with probability ``1 - p`` the body is
        skipped entirely, so low ``p`` draws produce warps whose trip
        count is zero.  The head's terminating ``bra`` guarantees every
        traversal of the cycle emits at least one instruction, keeping
        trace expansion finite.
        """
        head_label = self.fresh_label()
        body_label = self.fresh_label()
        after_label = self.fresh_label()
        probability = round(self.rng.uniform(0.05, 0.85), 3)
        self.b.jump(head_label)
        self.b.block(head_label)
        self.emit_straightline()
        self.b.branch(taken=body_label, fallthrough=after_label,
                      probability=probability)
        self.b.block(body_label)
        self.emit_region(depth + 1)
        self.b.jump(head_label)
        self.b.block(after_label)


def generate_cfg(seed: int, config: FuzzConfig = DEFAULT_CONFIG,
                 name: Optional[str] = None,
                 num_registers: Optional[int] = None) -> KernelCFG:
    """Build one random structured kernel CFG from ``seed``.

    Deterministic in ``(seed, config)``; the returned CFG always
    validates, every block is sealed, and the entry reaches an exit.
    """
    rng = random.Random(seed)
    if num_registers is None:
        num_registers = _draw_num_registers(rng, config)
    builder = KernelBuilder(name or f"fuzz-{seed}")
    emitter = _Emitter(builder, rng, config, num_registers)
    emitter.emit_region(depth=0)
    # Make sure the kernel is never empty: at least one real
    # instruction precedes the exit terminator.
    emitter.emit_straightline(minimum=1)
    builder.exit()
    return builder.build()


def _draw_num_registers(rng: random.Random, config: FuzzConfig) -> int:
    """The case's register-pool size; occasionally extreme."""
    if rng.random() < 0.2:
        # Pressure extreme: reuse distances collapse (tiny pool) or
        # explode (pool near the architectural limit).
        return rng.choice((config.min_registers, config.max_registers))
    return rng.randint(config.min_registers, config.max_registers)


def expand_warps(cfg: KernelCFG, num_warps: int, seed: int,
                 max_instructions: int) -> List[WarpTrace]:
    """Per-warp dynamic expansion with the builder's rng convention."""
    return [
        cfg.expand_warp(warp_id, random.Random(seed + warp_id + 1),
                        max_instructions)
        for warp_id in range(num_warps)
    ]


def generate_case(seed: int,
                  config: FuzzConfig = DEFAULT_CONFIG) -> FuzzCase:
    """One differential test case: CFG, plain + hinted traces, params."""
    rng = random.Random(seed)
    num_registers = _draw_num_registers(rng, config)
    num_warps = rng.randint(1, config.max_warps)
    window = rng.choice(config.windows)
    memory_seed = rng.randrange(1 << 16)
    name = f"fuzz-{seed}"

    cfg = generate_cfg(seed, config, name=name,
                       num_registers=num_registers)
    plain = KernelTrace(name=name, warps=expand_warps(
        cfg, num_warps, seed, config.max_trace_instructions))

    # The BOW-WR pipeline rewrites the CFG's instruction objects in
    # place (uid-preserving); the plain expansion above captured the
    # original objects, so it stays unhinted.  Re-expanding with the
    # same per-warp rngs resolves the identical control-flow path —
    # probabilities did not change — so plain and hinted are the same
    # dynamic stream, hint bits aside.
    from ..compiler.pipeline import compile_kernel

    compile_kernel(cfg, window)
    hinted = KernelTrace(name=name, warps=expand_warps(
        cfg, num_warps, seed, config.max_trace_instructions))

    return FuzzCase(
        seed=seed,
        cfg=cfg,
        plain=plain,
        hinted=hinted,
        window=window,
        memory_seed=memory_seed,
        num_warps=num_warps,
    )


def reaches_exit(cfg: KernelCFG) -> bool:
    """Whether some exit block is reachable from the entry (BFS)."""
    pending = [cfg.entry]
    seen = set()
    while pending:
        label = pending.pop()
        if label in seen:
            continue
        seen.add(label)
        block = cfg.blocks[label]
        if block.is_exit:
            return True
        pending.extend(edge.target for edge in block.edges)
    return False
