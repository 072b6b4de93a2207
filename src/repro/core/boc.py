"""The Bypassing Operand Collector (BOC).

One BOC per warp (paper SS IV-A).  Each BOC:

* holds the in-flight instructions of the last ``IW`` issued
  instructions of its warp (the sliding window);
* keeps an operand store of register values accessed inside the window,
  refreshed by every access (the *extended* window) and capped at the
  configured capacity with FIFO eviction (SS IV-C);
* forwards resident operands to newly issued instructions at insert
  time — forwarded operands consume neither a bank port nor the BOC's
  single RF-fill port;
* routes results per the configured writeback policy: write-through
  (baseline BOW), write-back (BOW-WB), or compiler hints (BOW-WR).

Correctness invariants (exercised by the property tests):

* a value is dropped without reaching the RF only when (a) a newer write
  to the same register is already resident, or (b) its compiler hint
  says every consumer forwards from the BOC;
* a dirty value evicted early — capacity pressure or window slide —
  is written back before the entry disappears.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import BOWConfig, EvictionPolicy, WritebackPolicy
from ..errors import SimulationError
from ..gpu.banks import AccessRequest
from ..gpu.collector import InflightInstruction, OperandProvider, ensure_decoded
from ..stats.trace import EventKind


@dataclass
class _BocEntry:
    """One operand slot of a BOC."""

    register_id: int
    value: int
    dirty: bool = False
    transient: bool = False  # OC-only: never owes the RF a write


@dataclass
class _WarpBOC:
    """Per-warp bypassing collector state."""

    warp_id: int
    seq: int = 0  # issued-instruction counter (window clock)
    last_access: Dict[int, int] = field(default_factory=dict)
    entries: "OrderedDict[int, _BocEntry]" = field(default_factory=OrderedDict)
    inflight: List[InflightInstruction] = field(default_factory=list)
    #: Last cycle whose occupancy sample has been accumulated into the
    #: histogram (see BOWCollectors._settle).
    settled: int = 0


class BOWCollectors(OperandProvider):
    """Per-warp BOCs implementing the three BOW writeback policies."""


    def __init__(self, engine, bow: BOWConfig):
        if not bow.enabled:
            raise SimulationError(
                "BOWCollectors requires an enabled BOWConfig; use the "
                "baseline provider for bypass-off runs"
            )
        self.engine = engine
        self.bow = bow
        self.window_size = bow.window_size
        self.capacity = bow.effective_capacity
        self._lru = bow.eviction is EvictionPolicy.LRU
        self._compiler_policy = bow.writeback is WritebackPolicy.COMPILER
        self._warps: Dict[int, _WarpBOC] = {}
        # Operand-complete entries, maintained incrementally at the
        # ready transition (fully bypassed insert, or last delivery)
        # so ready_entries never rescans every warp's inflight list.
        self._ready: List[InflightInstruction] = []
        self.heads_pending = 0
        #: occupancy histogram: {entries_in_use: warp-cycles}, one
        #: sample per cycle per warp with work in flight (Figure 9).
        #: Maintained lazily: a warp's (busy, entries-in-use) state only
        #: changes at an insert, delivery, dispatch, or completion, so
        #: each of those settles the constant span since the previous
        #: mutation in one bulk add instead of sampling every cycle.
        self.occupancy_histogram: Dict[int, int] = {}

    def _warp(self, warp_id: int) -> _WarpBOC:
        if warp_id not in self._warps:
            self._warps[warp_id] = _WarpBOC(warp_id)
        return self._warps[warp_id]

    def _settle(self, warp: _WarpBOC, through: int) -> None:
        """Accumulate owed occupancy samples for cycles up to ``through``.

        Between two mutations a warp's sampled state is constant, so
        the whole span lands in one histogram bucket.  The per-cycle
        sampling point sits in the bank stage — after completions and
        operand deliveries, before dispatch and issue — so pre-sample
        mutators (``on_complete``, ``deliver``) settle through the
        *previous* cycle and post-sample mutators (``insert``,
        ``on_dispatch``) settle through the current one.  The result is
        numerically identical to sampling every cycle.
        """
        owed = through - warp.settled
        if owed > 0:
            if warp.inflight:
                used = len(warp.entries)
                histogram = self.occupancy_histogram
                histogram[used] = histogram.get(used, 0) + owed
            warp.settled = through

    # ------------------------------------------------------------------
    # window bookkeeping
    # ------------------------------------------------------------------

    def _in_window(self, warp: _WarpBOC, register_id: int) -> bool:
        last = warp.last_access.get(register_id)
        return last is not None and warp.seq - last < self.window_size

    def _slide_window(self, warp: _WarpBOC) -> None:
        """Evict operands whose last access just fell out of the window."""
        entries = warp.entries
        if not entries:
            return
        # Inline of _in_window over every resident operand — this runs
        # once per issued instruction, so the per-entry cost matters.
        seq = warp.seq
        window_size = self.window_size
        last_access = warp.last_access
        expired = [
            reg_id
            for reg_id in entries
            if (last := last_access.get(reg_id)) is None
            or seq - last >= window_size
        ]
        for reg_id in expired:
            self._dispose(warp, entries.pop(reg_id), reason="slide")

    def _dispose(self, warp: _WarpBOC, entry: _BocEntry, reason: str) -> None:
        """Final disposition of a value leaving the BOC.

        ``reason`` is ``"slide"`` (window expiry), ``"capacity"``
        (FIFO/LRU pressure), or ``"drain"`` (kernel end — every window
        expires at once).
        """
        counters = self.engine.counters
        recorder = self.engine.recorder
        if recorder is not None:
            recorder.emit(
                self.engine.cycle, EventKind.BOC_EVICT, warp=warp.warp_id,
                reason=reason, register=entry.register_id,
            )
        if not entry.dirty:
            return
        if entry.transient and reason != "capacity":
            # All consumers forwarded from the BOC; the RF write is
            # eliminated and the value simply evaporates.
            counters.bypassed_writes += 1
            if recorder is not None:
                recorder.emit(
                    self.engine.cycle, EventKind.WRITE_ELIMINATED,
                    warp=warp.warp_id, reason="transient",
                    register=entry.register_id,
                )
            return
        # Dirty value still owed to the RF (write-back slide-out, a
        # compiler BOTH-value, or a transient evicted early by capacity
        # pressure — the safety writeback of SS IV-C).
        self.engine.enqueue_rf_write(
            None, entry.value, warp_id=warp.warp_id, register_id=entry.register_id
        )
        if reason == "capacity":
            counters.eviction_writebacks += 1
            if recorder is not None:
                recorder.emit(
                    self.engine.cycle, EventKind.EVICTION_WRITEBACK,
                    warp=warp.warp_id, register=entry.register_id,
                )

    def _deposit(self, warp: _WarpBOC, register_id: int, value: int,
                 dirty: bool, transient: bool) -> None:
        """Place a value into the operand store (FIFO capacity)."""
        counters = self.engine.counters
        recorder = self.engine.recorder
        existing = warp.entries.pop(register_id, None)
        if existing is not None and existing.dirty and dirty:
            # A newer write lands on a still-dirty value: the old value's
            # RF write is consolidated away (SS IV-B).
            counters.bypassed_writes += 1
            if recorder is not None:
                recorder.emit(
                    self.engine.cycle, EventKind.WRITE_ELIMINATED,
                    warp=warp.warp_id, reason="consolidated",
                    register=register_id,
                )
        elif existing is not None and existing.dirty:
            # Clean re-fill over a dirty value cannot happen: a read miss
            # would have been served by the dirty (newer) value.
            raise SimulationError(
                f"warp {warp.warp_id}: clean deposit over dirty $r{register_id}"
            )
        while len(warp.entries) >= self.capacity:
            _, victim = warp.entries.popitem(last=False)
            counters.boc_evictions += 1
            self._dispose(warp, victim, reason="capacity")
        warp.entries[register_id] = _BocEntry(
            register_id=register_id, value=value, dirty=dirty, transient=transient
        )
        counters.boc_writes += 1
        if recorder is not None:
            recorder.emit(
                self.engine.cycle, EventKind.BOC_INSERT, warp=warp.warp_id,
                reason="dirty" if dirty else "clean", register=register_id,
            )

    # ------------------------------------------------------------------
    # OperandProvider interface
    # ------------------------------------------------------------------

    def can_accept(self, warp_id: int) -> bool:
        return len(self._warp(warp_id).inflight) < self.window_size

    def insert(self, entry: InflightInstruction) -> None:
        warp = self._warp(entry.warp_id)
        if len(warp.inflight) >= self.window_size:
            raise SimulationError("insert into a full BOC")
        self._settle(warp, self.engine.state.cycle)
        warp.seq += 1
        self._slide_window(warp)

        dec = ensure_decoded(entry, self.engine)
        counters = self.engine.counters
        recorder = self.engine.recorder
        seq = warp.seq
        window_size = self.window_size
        last_access = warp.last_access
        entries = warp.entries
        operand_values = entry.operand_values
        pending: List[int] = []
        for slot, reg_id in enumerate(dec.source_ids):
            last = last_access.get(reg_id)
            resident = (
                last is not None
                and seq - last < window_size
                and reg_id in entries
            )
            last_access[reg_id] = seq
            if resident:
                operand_values[slot] = entries[reg_id].value
                if self._lru:
                    entries.move_to_end(reg_id)
                counters.bypassed_reads += 1
                counters.boc_reads += 1
                if recorder is not None:
                    recorder.emit(
                        self.engine.cycle, EventKind.BOC_HIT,
                        warp=warp.warp_id, register=reg_id,
                        trace_index=entry.trace_index,
                        opcode=dec.opcode_name,
                    )
            else:
                pending.append(slot)
        entry.pending_slots = pending
        if pending:
            self.heads_pending += 1
        else:
            self._ready.append(entry)

        dest_id = dec.rf_dest_id
        if dest_id is not None and not self._dest_skips_window(dec):
            last_access[dest_id] = seq
        warp.inflight.append(entry)

    def _dest_skips_window(self, dec) -> bool:
        """RF-only values never enter the window (no reuse to serve)."""
        return self._compiler_policy and dec.hint_rf_only

    def read_requests(self, cycle: int) -> List[AccessRequest]:
        requests = []
        # Skip slots whose read was already granted (the contract).
        inflight_tags = self.engine.state.inflight_read_tags
        for warp in self._warps.values():
            for entry in warp.inflight:
                if not entry.pending_slots:
                    continue
                # One fill path per instruction slot (matching the
                # baseline OCU each slot replaces); operands of a single
                # instruction still serialize.
                slot = entry.pending_slots[0]
                request = entry.head_request
                if request is None or request.tag[1] != slot:
                    dec = entry.dec
                    request = AccessRequest(
                        bank=dec.source_banks[slot],
                        warp_id=warp.warp_id,
                        register_id=dec.source_ids[slot],
                        tag=(entry.key, slot),
                        age=entry.issue_cycle,
                    )
                    entry.head_request = request
                if request.tag in inflight_tags:
                    continue
                requests.append(request)
        return requests

    def deliver(self, tag: object, value: int) -> None:
        key, slot = tag
        warp = self._warp(key[0])
        self._settle(warp, self.engine.state.cycle - 1)
        for entry in warp.inflight:
            if entry.key == key:
                break
        else:
            raise SimulationError(f"operand delivery for unknown entry {key}")
        if not entry.pending_slots or entry.pending_slots[0] != slot:
            raise SimulationError(f"out-of-order operand delivery {tag!r}")
        entry.pending_slots.pop(0)
        entry.operand_values[slot] = value
        source_ids = entry.dec.source_ids
        register_id = source_ids[slot]
        # Duplicate sources ($rN appearing in several slots) share one
        # fetch: the forwarding logic serves the remaining slots from
        # the just-filled value.
        duplicates = [
            s for s in entry.pending_slots
            if source_ids[s] == register_id
        ]
        for dup in duplicates:
            entry.pending_slots.remove(dup)
            entry.operand_values[dup] = value
            self.engine.counters.bypassed_reads += 1
            self.engine.counters.boc_reads += 1
            if self.engine.recorder is not None:
                self.engine.recorder.emit(
                    self.engine.cycle, EventKind.BOC_HIT,
                    warp=warp.warp_id, register=register_id,
                    trace_index=entry.trace_index,
                    opcode=entry.inst.opcode.name,
                )
        if not entry.pending_slots:
            self.heads_pending -= 1
            self._ready.append(entry)
        # An RF fill deposits the value for later forwarding — but only
        # while the register is still windowed (it may have slid while
        # the read waited on a bank port).
        if self._in_window(warp, register_id) and register_id not in warp.entries:
            self._deposit(warp, register_id, value, dirty=False, transient=False)

    def ready_entries(self) -> List[InflightInstruction]:
        return self._ready

    def on_dispatch(self, entry: InflightInstruction) -> None:
        # The instruction slot frees once the operands are consumed; the
        # window (and any deposited operand values) persists via the
        # per-register access clock.
        warp = self._warp(entry.warp_id)
        self._settle(warp, self.engine.state.cycle)
        warp.inflight.remove(entry)
        self._ready.remove(entry)

    def on_complete(self, entry: InflightInstruction, value: Optional[int]) -> None:
        warp = self._warp(entry.warp_id)
        self._settle(warp, self.engine.state.cycle - 1)
        dest_id = entry.dec.rf_dest_id
        if dest_id is None or value is None:
            self.engine.release_scoreboard(entry)
            return

        policy = self.bow.writeback
        in_window = self._in_window(warp, dest_id)

        if policy is WritebackPolicy.WRITE_THROUGH:
            if in_window:
                self._deposit(warp, dest_id, value, dirty=False, transient=False)
            self.engine.enqueue_rf_write(entry, value)
        elif policy is WritebackPolicy.WRITE_BACK:
            if in_window:
                self._deposit(warp, dest_id, value, dirty=True, transient=False)
            else:
                self.engine.enqueue_rf_write(entry, value)
        else:  # compiler-guided (BOW-WR)
            self._complete_with_hint(warp, entry, value, in_window)

        # Forwarding makes the value architecturally available now; the
        # scoreboard need not wait for any queued RF write.
        self.engine.release_scoreboard(entry)

    def _complete_with_hint(self, warp: _WarpBOC, entry: InflightInstruction,
                            value: int, in_window: bool) -> None:
        dec = entry.dec
        dest_id = dec.rf_dest_id
        if dec.hint_rf_only:
            # The new value goes straight to the RF, but a resident copy
            # of the *old* value (deposited by an earlier BOTH write and
            # kept windowed by recent reads) would now serve stale
            # forwards — invalidate it.  If it was dirty, its RF write
            # is consolidated away: this newer write supersedes it.
            stale = warp.entries.pop(dest_id, None)
            if stale is not None and stale.dirty:
                self.engine.counters.bypassed_writes += 1
                if self.engine.recorder is not None:
                    self.engine.recorder.emit(
                        self.engine.cycle, EventKind.WRITE_ELIMINATED,
                        warp=warp.warp_id, reason="consolidated",
                        register=dest_id,
                    )
            self.engine.enqueue_rf_write(entry, value)
            return
        transient = dec.hint_oc_only
        if in_window:
            self._deposit(warp, dest_id, value, dirty=True, transient=transient)
        elif transient:
            # Slid out before completing: a transient value has no
            # remaining consumers (they would have blocked the window),
            # so it evaporates — the write is bypassed entirely.
            self.engine.counters.bypassed_writes += 1
            if self.engine.recorder is not None:
                self.engine.recorder.emit(
                    self.engine.cycle, EventKind.WRITE_ELIMINATED,
                    warp=warp.warp_id, reason="transient", register=dest_id,
                )
        else:
            self.engine.enqueue_rf_write(entry, value)

    def drain(self) -> None:
        """Kernel end: every dirty value leaves its BOC."""
        for warp in self._warps.values():
            if warp.inflight:
                raise SimulationError(
                    f"drain with instructions in flight in warp {warp.warp_id}"
                )
            while warp.entries:
                _, entry = warp.entries.popitem(last=False)
                self._dispose(warp, entry, reason="drain")
