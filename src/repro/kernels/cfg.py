"""Kernel control-flow graphs.

A :class:`KernelCFG` is a set of named basic blocks plus an entry label.
Edges carry either a *taken probability* (data-dependent branch) or a
*trip count* (counted loop back-edge), which is all the trace expander
needs to unroll control flow deterministically from a seed.

The compiler passes (liveness, writeback classification) operate on the
CFG; the timing model and the bypass analyses operate on the expanded
per-warp traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import is_
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import KernelError
from ..isa import Instruction
from .trace import Segment, WarpTrace


@dataclass(frozen=True)
class Edge:
    """A CFG edge to ``target`` taken with probability ``probability``."""

    target: str
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise KernelError(
                f"edge probability must be in [0, 1], got {self.probability}"
            )


@dataclass
class BasicBlock:
    """A straight-line run of instructions with at most two successors.

    Attributes:
        label: unique block name.
        instructions: the block body (the trailing branch, if any, is the
            last instruction and is part of the body).
        edges: successor edges; empty for exit blocks.  With two edges
            their probabilities must sum to 1.
        max_visits: safety bound on how often a single warp may enter
            this block during trace expansion (catches runaway loops).
    """

    label: str
    instructions: List[Instruction] = field(default_factory=list)
    edges: List[Edge] = field(default_factory=list)
    max_visits: int = 10_000

    def validate(self) -> None:
        if not self.label:
            raise KernelError("basic block needs a non-empty label")
        if len(self.edges) > 2:
            raise KernelError(f"block {self.label!r} has more than two successors")
        if len(self.edges) == 2:
            total = self.edges[0].probability + self.edges[1].probability
            if abs(total - 1.0) > 1e-9:
                raise KernelError(
                    f"block {self.label!r}: successor probabilities sum to "
                    f"{total}, expected 1.0"
                )

    @property
    def is_exit(self) -> bool:
        return not self.edges


class KernelCFG:
    """A kernel as a control-flow graph of basic blocks."""

    def __init__(self, name: str, blocks: Iterable[BasicBlock], entry: str):
        self.name = name
        self.blocks: Dict[str, BasicBlock] = {}
        for block in blocks:
            block.validate()
            if block.label in self.blocks:
                raise KernelError(f"duplicate block label {block.label!r}")
            self.blocks[block.label] = block
        if entry not in self.blocks:
            raise KernelError(f"entry block {entry!r} not defined")
        self.entry = entry
        self._validate_edges()
        #: Per-label snapshot of the block body last expanded, shared by
        #: every expansion while the block's instructions stay the same.
        self._bodies: Dict[str, Tuple[Instruction, ...]] = {}

    def _validate_edges(self) -> None:
        for block in self.blocks.values():
            for edge in block.edges:
                if edge.target not in self.blocks:
                    raise KernelError(
                        f"block {block.label!r} targets undefined block "
                        f"{edge.target!r}"
                    )

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def static_instructions(self) -> List[Instruction]:
        """All static instructions in block order (entry first)."""
        ordered = [self.blocks[self.entry]]
        ordered.extend(
            block for label, block in self.blocks.items() if label != self.entry
        )
        return [inst for block in ordered for inst in block.instructions]

    def successors(self, label: str) -> List[str]:
        return [edge.target for edge in self.blocks[label].edges]

    def predecessors(self, label: str) -> List[str]:
        return [
            block.label
            for block in self.blocks.values()
            if any(edge.target == label for edge in block.edges)
        ]

    def copy(self) -> "KernelCFG":
        """A CFG with the same blocks, edges and instruction objects.

        Each block gets its own instruction list, so a pass that
        rewrites a copy's block bodies in place (the hint compiler)
        leaves this CFG, and traces expanded from it, untouched.
        """
        return KernelCFG(
            self.name,
            [BasicBlock(block.label, list(block.instructions),
                        list(block.edges), block.max_visits)
             for block in self],
            self.entry,
        )

    def expand_segments(
        self,
        rng: random.Random,
        max_instructions: int = 100_000,
    ) -> List[Segment]:
        """Resolve control flow into one warp's run-length block path.

        Block bodies are emitted as-is; at each branch the successor is
        drawn from the edge probabilities using ``rng``.  Expansion stops
        at an exit block or at ``max_instructions`` (whichever first);
        a block cut by the limit ends the path as a shorter body.
        Back-to-back visits of one block form one ``(body, repeats)``
        segment, and every expansion of this CFG shares one body tuple
        per block while the block's instructions stay the same objects.
        """
        segments: List[list] = []
        visits: Dict[str, int] = {}
        bodies: Dict[str, Tuple[Instruction, ...]] = {}
        length = 0
        label: Optional[str] = self.entry
        while label is not None and length < max_instructions:
            block = self.blocks[label]
            visits[label] = visits.get(label, 0) + 1
            if visits[label] > block.max_visits:
                raise KernelError(
                    f"block {label!r} visited more than {block.max_visits} "
                    "times; runaway loop?"
                )
            body = bodies.get(label)
            if body is None:
                body = bodies[label] = self._body(block)
            if len(body) > max_instructions - length:
                body = body[:max_instructions - length]
            length += len(body)
            if segments and segments[-1][0] is body:
                segments[-1][1] += 1
            elif body:
                segments.append([body, 1])
            label = self._pick_successor(block, rng)
        return [(body, repeats) for body, repeats in segments]

    def expand_trace(
        self,
        rng: random.Random,
        max_instructions: int = 100_000,
    ) -> List[Instruction]:
        """:meth:`expand_segments` flattened to one instruction stream."""
        trace: List[Instruction] = []
        for body, repeats in self.expand_segments(rng, max_instructions):
            trace.extend(body * repeats)
        return trace

    def expand_warp(
        self,
        warp_id: int,
        rng: random.Random,
        max_instructions: int = 100_000,
    ) -> WarpTrace:
        """Warp ``warp_id``'s trace, keeping its block segments."""
        return WarpTrace.from_segments(
            warp_id, self.expand_segments(rng, max_instructions))

    def _body(self, block: BasicBlock) -> Tuple[Instruction, ...]:
        body = self._bodies.get(block.label)
        current = block.instructions
        if (body is None or len(body) != len(current)
                or not all(map(is_, body, current))):
            body = self._bodies[block.label] = tuple(current)
        return body

    @staticmethod
    def _pick_successor(block: BasicBlock, rng: random.Random) -> Optional[str]:
        if not block.edges:
            return None
        if len(block.edges) == 1:
            return block.edges[0].target
        first = block.edges[0]
        return first.target if rng.random() < first.probability else block.edges[1].target


def straightline_kernel(name: str, instructions: Sequence[Instruction]) -> KernelCFG:
    """Wrap a flat instruction list as a single-block kernel."""
    block = BasicBlock(label="entry", instructions=list(instructions))
    return KernelCFG(name=name, blocks=[block], entry="entry")


def loop_kernel(
    name: str,
    preamble: Sequence[Instruction],
    body: Sequence[Instruction],
    epilogue: Sequence[Instruction],
    iterations: int,
) -> KernelCFG:
    """A canonical counted loop: preamble, ``iterations`` x body, epilogue.

    The back-edge probability is set so the *expected* trip count equals
    ``iterations``; individual warps draw their own trip counts, which
    gives the mild inter-warp divergence real kernels show.
    """
    if iterations < 1:
        raise KernelError(f"iterations must be >= 1, got {iterations}")
    back_probability = 1.0 - 1.0 / iterations
    blocks = [
        BasicBlock("entry", list(preamble), [Edge("body")]),
        BasicBlock(
            "body",
            list(body),
            [Edge("body", back_probability), Edge("exit", 1.0 - back_probability)],
            max_visits=max(100, iterations * 50),
        ),
        BasicBlock("exit", list(epilogue)),
    ]
    return KernelCFG(name=name, blocks=blocks, entry="entry")
