"""Execution units: dispatch-width limits and completion scheduling.

Units are fully pipelined (initiation interval one), so the structural
constraint is dispatch width per class per cycle — four ALU groups, one
SFU, one memory unit in the Pascal-like default.  Completion times are
tracked in a cycle-indexed map the engine drains.
"""

from __future__ import annotations

from typing import Dict

from ..config import GPUConfig
from ..errors import SimulationError
from ..isa import Instruction, OpClass


def latency_for(inst: Instruction, config: GPUConfig) -> int:
    """Fixed execution latency of a non-memory instruction.

    Memory latencies are sampled per access by the memory model; control
    instructions take an ALU-like resolution latency plus a small branch
    penalty.
    """
    op_class = inst.op_class
    if op_class is OpClass.ALU:
        return config.alu_latency
    if op_class is OpClass.SFU:
        return config.sfu_latency
    if op_class is OpClass.CONTROL:
        return config.alu_latency + 2
    if op_class is OpClass.NOP:
        return 1
    raise SimulationError(f"latency_for called for memory op {inst.opcode.name}")


#: Dispatch-bucket indices.  ``DecodedOp.bucket`` carries one of these
#: so the per-cycle budget check is two list indexings instead of dict
#: lookups keyed by enum members (enum ``__hash__`` is measurable
#: overhead on the hottest dispatch path).  Control and NOP resolve in
#: the scheduler/branch unit; model them as sharing the ALU ports.
BUCKET_ALU, BUCKET_SFU, BUCKET_MEM = 0, 1, 2

_BUCKET_OF: Dict[OpClass, int] = {
    OpClass.ALU: BUCKET_ALU,
    OpClass.SFU: BUCKET_SFU,
    OpClass.MEM_LOAD: BUCKET_MEM,
    OpClass.MEM_STORE: BUCKET_MEM,
    OpClass.CONTROL: BUCKET_ALU,
    OpClass.NOP: BUCKET_ALU,
}


class ExecutionUnits:
    """Per-class dispatch-width tracker for one cycle."""

    def __init__(self, config: GPUConfig):
        self.config = config
        self._capacity = [
            config.num_alu_units,  # BUCKET_ALU
            config.num_sfu_units,  # BUCKET_SFU
            config.num_mem_units,  # BUCKET_MEM
        ]
        self._used = [0, 0, 0]
        # True when any dispatch happened since the last reset; lets
        # the engine skip new_cycle() on untouched cycles.
        self._any = False

    def new_cycle(self) -> None:
        """Reset this cycle's dispatch budget."""
        if self._any:
            used = self._used
            used[0] = used[1] = used[2] = 0
            self._any = False

    def can_dispatch(self, op_class: OpClass) -> bool:
        bucket = _BUCKET_OF[op_class]
        return self._used[bucket] < self._capacity[bucket]

    def dispatch(self, op_class: OpClass) -> None:
        if not self.can_dispatch(op_class):
            raise SimulationError(f"dispatch over capacity for {op_class}")
        self._used[_BUCKET_OF[op_class]] += 1
        self._any = True

    # -- decoded fast path: the caller already holds the bucket ---------

    def can_dispatch_bucket(self, bucket: int) -> bool:
        """`can_dispatch` for a pre-bucketed class (decode-cache path)."""
        return self._used[bucket] < self._capacity[bucket]

    def dispatch_bucket(self, bucket: int) -> None:
        """`dispatch` for a pre-bucketed class the caller just checked."""
        self._used[bucket] += 1
        self._any = True
