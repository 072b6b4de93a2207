"""The SIMT reconvergence stack.

Expands a kernel CFG into a *masked trace*: the sequence of
(instruction, active-mask) pairs a warp actually issues, with lanes
diverging at data-dependent branches and reconverging at the branch
block's immediate post-dominator — the classic stack-based SIMT scheme
GPUs (and GPGPU-Sim) implement.

Per-lane branch outcomes are drawn deterministically from the edge
probabilities (seeded by a stable hash of warp, block and visit number,
never by per-process string hashing), so divergence statistics follow
the CFG's annotated branch biases while remaining reproducible.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import KernelError
from ..gpu.memory import _mix_hash
from ..isa import Instruction
from ..kernels.cfg import BasicBlock, KernelCFG
from .dominators import immediate_post_dominators
from .mask import FULL_MASK, WARP_WIDTH, ActiveMask


@dataclass(frozen=True)
class MaskedInstruction:
    """One issued instruction with the lanes that execute it."""

    inst: Instruction
    mask: ActiveMask
    block: str


@dataclass
class _StackEntry:
    label: str
    mask: ActiveMask
    reconv: Optional[str]


class SIMTStack:
    """Reconvergence-stack walker over one kernel CFG."""

    def __init__(self, cfg: KernelCFG, warp_id: int = 0, seed: int = 0):
        self.cfg = cfg
        self.warp_id = warp_id
        self.seed = seed
        self.ipdom = immediate_post_dominators(cfg)
        self._visits: Dict[str, int] = {}

    def _lane_taken_mask(self, block: BasicBlock,
                         mask: ActiveMask) -> ActiveMask:
        """Per-lane decision for a two-way branch."""
        probability = block.edges[0].probability
        visit = self._visits.get(block.label, 0)
        rng = random.Random(_mix_hash(
            self.seed, self.warp_id, zlib.crc32(block.label.encode()), visit))
        taken_bits = 0
        for lane in mask.lanes():
            if rng.random() < probability:
                taken_bits |= 1 << lane
        return ActiveMask(taken_bits)

    def run(self, max_instructions: int = 200_000) -> List[MaskedInstruction]:
        """Expand the CFG into a masked dynamic trace."""
        trace: List[MaskedInstruction] = []
        stack: List[_StackEntry] = [
            _StackEntry(self.cfg.entry, FULL_MASK, None)
        ]
        while stack:
            top = stack[-1]
            if top.reconv is not None and top.label == top.reconv:
                # These lanes have reached the reconvergence point; the
                # entry below resumes there with the merged mask.
                stack.pop()
                continue
            if not top.mask:
                stack.pop()
                continue
            block = self.cfg.blocks[top.label]
            self._visits[top.label] = self._visits.get(top.label, 0) + 1
            if self._visits[top.label] > block.max_visits * WARP_WIDTH:
                raise KernelError(
                    f"block {top.label!r} visited too often; runaway loop?"
                )
            for inst in block.instructions:
                trace.append(MaskedInstruction(inst, top.mask, top.label))
                if len(trace) >= max_instructions:
                    return trace

            if block.is_exit:
                stack.pop()
                continue
            if len(block.edges) == 1:
                top.label = block.edges[0].target
                continue

            taken = self._lane_taken_mask(block, top.mask)
            taken_mask, fall_mask = top.mask.partition(taken)
            if not fall_mask:
                top.label = block.edges[0].target
                continue
            if not taken_mask:
                top.label = block.edges[1].target
                continue

            # True divergence: lanes split, to reconverge at the
            # immediate post-dominator.
            reconv = self.ipdom[top.label]
            if reconv is None:
                # Paths only meet at kernel exit: run each side to
                # completion independently.
                stack.pop()
                stack.append(_StackEntry(block.edges[1].target, fall_mask,
                                         None))
                stack.append(_StackEntry(block.edges[0].target, taken_mask,
                                         None))
                continue
            top.label = reconv  # the merged mask waits at reconvergence
            stack.append(_StackEntry(block.edges[1].target, fall_mask,
                                     reconv))
            stack.append(_StackEntry(block.edges[0].target, taken_mask,
                                     reconv))
        return trace


def expand_masked_trace(
    cfg: KernelCFG,
    warp_id: int = 0,
    seed: int = 0,
    max_instructions: int = 200_000,
) -> List[MaskedInstruction]:
    """Convenience wrapper: one warp's masked trace of ``cfg``."""
    return SIMTStack(cfg, warp_id=warp_id, seed=seed).run(max_instructions)


def simd_efficiency(trace: List[MaskedInstruction]) -> float:
    """Average fraction of active lanes across a masked trace."""
    if not trace:
        return 0.0
    return sum(item.mask.utilization() for item in trace) / len(trace)
