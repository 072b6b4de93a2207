"""The compile() driver: run every pass and package the results.

``compile_kernel`` is the one-call entry point used by examples and the
experiment harness: given a kernel CFG and a window size, it computes
liveness, classifies writebacks, rewrites instructions with their hint
bits, and reports allocation savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..isa import WritebackHint
from ..kernels.cfg import KernelCFG
from .allocation import AllocationResult, effective_register_demand
from .liveness import LivenessResult, compute_liveness
from .writeback import (
    WritebackClass,
    WriteClassification,
    annotate_cfg,
    classify_cfg,
    hint_distribution,
)


@dataclass(frozen=True)
class CompiledKernel:
    """Result of compiling one kernel for BOW-WR.

    Attributes:
        cfg: the kernel CFG with hint-annotated instructions.
        window_size: the window the hints were computed for.
        liveness: the liveness facts used.
        classifications: per-block write classifications.
        hints: hint per instruction ``uid``.
        allocation: transient-register savings.
    """

    cfg: KernelCFG
    window_size: int
    liveness: LivenessResult
    classifications: Dict[str, List[WriteClassification]]
    hints: Dict[int, WritebackHint]
    allocation: AllocationResult

    def hint_distribution(self) -> Dict[WritebackClass, float]:
        """Static Figure 7 split for this kernel."""
        flattened = [
            item for items in self.classifications.values() for item in items
        ]
        return hint_distribution(flattened)


def compile_kernel(cfg: KernelCFG, window_size: int) -> CompiledKernel:
    """Run the full BOW-WR compiler pipeline on ``cfg``.

    The CFG's block bodies are rewritten in place so traces expanded
    afterwards carry the hint bits.  Liveness and the classification
    are computed once: rewriting hints changes no register or predicate,
    so the hinting and the allocation pass share them.
    """
    liveness = compute_liveness(cfg)
    classifications = classify_cfg(cfg, window_size, liveness)
    hints = annotate_cfg(cfg, window_size, liveness, classifications)
    allocation = effective_register_demand(cfg, window_size, classifications)
    return CompiledKernel(
        cfg=cfg,
        window_size=window_size,
        liveness=liveness,
        classifications=classifications,
        hints=hints,
        allocation=allocation,
    )
