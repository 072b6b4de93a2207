"""Register-file bank arbitration.

The RF is split into single-ported banks (Figure 2): each bank serves at
most one access per cycle, and concurrent requests to the same bank
serialize.  The arbiter receives this cycle's read and write requests
and grants at most one per bank, preferring writes (draining the
writeback queue keeps the pipeline from backing up, the usual GPGPU-Sim
choice), then the oldest read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from ..errors import SimulationError


class AccessRequest:
    """One bank access request.

    A plain ``__slots__`` record rather than a dataclass: requests are
    rebuilt every cycle from collector/queue state, so construction is
    on the engine's hottest path.

    Attributes:
        bank: target bank index.
        warp_id: requesting warp (for accounting and value lookup).
        register_id: architectural register accessed.
        tag: opaque requester handle (collector key or write-queue id)
            handed back with the grant.
        age: request age used for oldest-first arbitration (lower = older).
    """

    __slots__ = ("bank", "warp_id", "register_id", "tag", "age")

    def __init__(self, bank: int, warp_id: int, register_id: int,
                 tag: object, age: int = 0):
        self.bank = bank
        self.warp_id = warp_id
        self.register_id = register_id
        self.tag = tag
        self.age = age

    def __repr__(self) -> str:
        return (
            f"AccessRequest(bank={self.bank}, warp_id={self.warp_id}, "
            f"register_id={self.register_id}, tag={self.tag!r}, "
            f"age={self.age})"
        )


@dataclass
class ArbitrationResult:
    """Outcome of one arbitration cycle."""

    granted_reads: List[AccessRequest] = field(default_factory=list)
    granted_writes: List[AccessRequest] = field(default_factory=list)
    conflicts: int = 0


def _request_age(request: AccessRequest) -> int:
    """Arbitration priority: oldest issue cycle wins the port."""
    return request.age


class BankArbiter:
    """Single-port-per-bank arbitration with write priority."""

    def __init__(self, num_banks: int):
        if num_banks < 1:
            raise SimulationError(f"num_banks must be >= 1, got {num_banks}")
        self.num_banks = num_banks

    def arbitrate(
        self,
        reads: Iterable[AccessRequest],
        writes: Iterable[AccessRequest],
    ) -> ArbitrationResult:
        """Grant at most one access per bank this cycle.

        Denied requests count as conflicts; the caller retries them next
        cycle (requests are regenerated from collector/queue state).
        """
        # The winner per bank is the oldest request, first-arrived on
        # age ties (min() scans stably, so no sort is needed).
        by_bank: Dict[int, tuple] = {}
        for request in writes:
            self._check(request)
            bucket = by_bank.get(request.bank)
            if bucket is None:
                bucket = by_bank[request.bank] = ([], [])
            bucket[1].append(request)
        for request in reads:
            self._check(request)
            bucket = by_bank.get(request.bank)
            if bucket is None:
                bucket = by_bank[request.bank] = ([], [])
            bucket[0].append(request)

        result = ArbitrationResult()
        for read_list, write_list in by_bank.values():
            if write_list:
                result.granted_writes.append(
                    write_list[0] if len(write_list) == 1
                    else min(write_list, key=_request_age))
                result.conflicts += len(write_list) - 1 + len(read_list)
            elif read_list:
                result.granted_reads.append(
                    read_list[0] if len(read_list) == 1
                    else min(read_list, key=_request_age))
                result.conflicts += len(read_list) - 1
        return result

    def _check(self, request: AccessRequest) -> None:
        if not 0 <= request.bank < self.num_banks:
            raise SimulationError(
                f"bank {request.bank} out of range [0, {self.num_banks})"
            )
