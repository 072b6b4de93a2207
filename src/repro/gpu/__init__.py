"""Baseline GPU streaming-multiprocessor microarchitecture.

This package is the substrate the paper's evaluation runs on: a
cycle-level model of one SM with the Figure 2 register-file organization
(32 single-ported banks behind a crossbar and a bank arbitrator),
conventional single-ported operand-collector units, GTO warp schedulers,
a scoreboard, and latency-modeled SIMD/SFU/memory pipelines.

The BOW designs (package :mod:`repro.core`) plug into the same engine
through the :class:`~repro.gpu.collector.OperandProvider` interface, so
baseline and bypassing runs share every other pipeline mechanism.
"""

from .banks import AccessRequest, BankArbiter
from .collector import (
    BaselineCollectorPool,
    InflightInstruction,
    OperandProvider,
)
from .device import (
    DevicePartition,
    DeviceResult,
    SMPartition,
    merge_counters,
    partition_launch,
    simulate_device,
)
from .execution import ExecutionUnits, latency_for
from .memory import MemoryModel
from .reference import ReferenceResult, execute_reference
from .regfile import BankedRegisterFile
from .scheduler import (
    GTOScheduler,
    LRRScheduler,
    TwoLevelScheduler,
    make_scheduler,
)
from .scoreboard import Scoreboard
from .sm import SimulationResult, SMEngine, simulate_baseline

__all__ = [
    "DevicePartition",
    "DeviceResult",
    "SMPartition",
    "merge_counters",
    "partition_launch",
    "simulate_device",
    "ReferenceResult",
    "execute_reference",
    "BankArbiter",
    "AccessRequest",
    "BankedRegisterFile",
    "Scoreboard",
    "make_scheduler",
    "GTOScheduler",
    "LRRScheduler",
    "TwoLevelScheduler",
    "ExecutionUnits",
    "latency_for",
    "MemoryModel",
    "InflightInstruction",
    "OperandProvider",
    "BaselineCollectorPool",
    "SMEngine",
    "SimulationResult",
    "simulate_baseline",
]
