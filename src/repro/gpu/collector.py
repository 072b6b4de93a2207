"""Operand collection: the provider protocol and the baseline OCU pool.

The engine (:mod:`repro.gpu.sm`) is agnostic to how operands reach an
instruction: it talks to an :class:`OperandProvider`, which owns the
collector storage.  Every design point in the registry
(:mod:`repro.core.designs`) is "an engine plus a provider":

* :class:`BaselineCollectorPool` (here) — conventional operand collector
  units, every operand fetched from the RF;
* :class:`~repro.core.boc.BOWCollectors` — per-warp bypassing collectors
  implementing the BOW writeback policies;
* :class:`~repro.core.rfc.RFCCollectors` — conventional collectors
  backed by a register-file cache (the closest prior design).

All three implement the same protocol, so adding a design never touches
the engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..isa import Instruction
from .banks import AccessRequest
from .decode import DecodedOp


class InflightInstruction:
    """One instruction between issue and completion.

    Attributes:
        warp_id: owning warp.
        trace_index: position in the warp's dynamic trace (identity key:
            static instructions repeat across loop iterations).
        inst: the static instruction.
        issue_cycle: when it entered the collector stage.
        dispatch_cycle: when its operands were complete and it went to a
            functional unit (``None`` while collecting).
        operand_values: collected source values by operand slot.
        pending_slots: operand slots still waiting on an RF read, in
            request order (the single collector port serializes them).
        dec: the instruction's :class:`~repro.gpu.decode.DecodedOp`.
            The engine issues entries with it populated; entries built
            by hand (tests, external drivers) may leave it ``None`` and
            the provider decodes lazily on insert.
        key: ``(warp_id, trace_index)`` — the entry's identity.
        head_request: cached :class:`AccessRequest` for the head pending
            slot.  A stalled slot re-requests the same bank every cycle
            until granted, so providers reuse the object instead of
            rebuilding it (they invalidate by comparing the cached
            tag's slot against the current head).
    """

    __slots__ = ("warp_id", "trace_index", "inst", "issue_cycle",
                 "dispatch_cycle", "operand_values", "pending_slots",
                 "dec", "key", "head_request")

    def __init__(
        self,
        warp_id: int,
        trace_index: int,
        inst: Instruction,
        issue_cycle: int,
        dispatch_cycle: Optional[int] = None,
        operand_values: Optional[Dict[int, int]] = None,
        pending_slots: Optional[List[int]] = None,
        dec: Optional[DecodedOp] = None,
    ):
        self.warp_id = warp_id
        self.trace_index = trace_index
        self.inst = inst
        self.issue_cycle = issue_cycle
        self.dispatch_cycle = dispatch_cycle
        self.operand_values = {} if operand_values is None else operand_values
        self.pending_slots = [] if pending_slots is None else pending_slots
        self.dec = dec
        self.key = (warp_id, trace_index)
        self.head_request: Optional[AccessRequest] = None

    def __repr__(self) -> str:
        return (
            f"InflightInstruction(warp={self.warp_id}, "
            f"trace_index={self.trace_index}, inst={self.inst!s}, "
            f"issue_cycle={self.issue_cycle})"
        )


class OperandProvider:
    """The protocol between the engine and a collector organization.

    The engine drives a provider through three groups of hooks, all of
    which a conforming implementation must honor:

    **Issue / read-request path** — :meth:`can_accept` gates issue;
    :meth:`insert` accepts a new entry (forwarding and window sliding /
    eviction happen here); :meth:`read_requests` exposes this cycle's
    RF reads (one per collector port); :meth:`deliver` returns a
    granted read's data.

    **Dispatch path** — :meth:`ready_entries` lists operand-complete
    entries; :meth:`on_dispatch` frees the collector slot.

    **Write-route path** — :meth:`on_complete` routes a result (RF
    queue via :meth:`SMEngine.enqueue_rf_write`, collector storage, or
    both: this is where the writeback policies differ) and must
    eventually call :meth:`SMEngine.release_scoreboard` exactly once
    per entry (directly, or via a ``release_on_grant`` queued write);
    :meth:`drain` flushes anything that still owes RF writes at kernel
    end.

    **Tick-guard contract** (mandatory).  The engine's fast loop skips
    stage calls it can prove idle from O(1) peeks at provider state,
    so every provider must keep that state exact:

    * ``heads_pending`` counts entries whose head operand slot still
      awaits data (requesting a bank port, granted-in-flight, or in
      provider-internal service).  The engine only calls the bank
      stage when ``heads_pending`` exceeds the granted-in-flight tag
      count (or writes / due deliveries exist), so the count may
      over-approximate requestable heads but never under-approximate.
    * ``due_heap`` is a min-heap of provider-internal delivery cycles
      (e.g. RFC cache hits) on which :meth:`read_requests` must be
      called; it also bounds the fast-forward horizon.  Providers
      without internal timers share the empty-tuple default.
    * :meth:`ready_entries` returns the same list object every call
      (mutated in place), so the engine tests it for emptiness without
      a call.
    * :meth:`read_requests` never returns a tag in
      ``engine.state.inflight_read_tags`` (a granted read is not
      re-requested), and is side-effect-free on cycles where no head is
      requestable and no ``due_heap`` entry is due.

    The reference loop (``SMEngine(fast_forward=False)``) calls every
    hook every cycle; the parity suites compare the fast loop with it.

    Providers emit their design-specific trace events (BOC hits,
    inserts, evictions, eliminated writes) through ``engine.recorder``,
    guarded by ``is not None`` so the untraced hot path does no tracing
    work; engine-level events (issue, dispatch, writeback, commit) are
    emitted by the stages.
    """

    #: True when :meth:`can_accept` ignores ``warp_id`` (one shared
    #: structure gates every warp).  The issue stage exploits this: one
    #: acceptance check settles every collector-stalled warp at once.
    #: Per-warp organizations (the BOW per-warp collectors) keep False.
    shared_pool = False

    #: Entries whose head operand slot still awaits data (see the
    #: tick-guard contract above).
    heads_pending = 0

    #: Min-heap of provider-internal delivery cycles (see the
    #: tick-guard contract above).
    due_heap: tuple = ()

    def can_accept(self, warp_id: int) -> bool:
        """Can a new instruction of ``warp_id`` enter the collectors?"""
        raise NotImplementedError

    def insert(self, entry: InflightInstruction) -> None:
        """Accept a newly issued instruction (resolve forwarding here)."""
        raise NotImplementedError

    def read_requests(self, cycle: int) -> List[AccessRequest]:
        """This cycle's RF read requests (one per collector port)."""
        raise NotImplementedError

    def deliver(self, tag: object, value: int) -> None:
        """An RF read granted by the arbiter returns its data."""
        raise NotImplementedError

    def ready_entries(self) -> List[InflightInstruction]:
        """Instructions whose operands are complete, oldest-first per warp.

        Callers treat the result as a read-only view: providers may
        return internal state, so the dispatch stage copies before it
        reorders.
        """
        raise NotImplementedError

    def on_dispatch(self, entry: InflightInstruction) -> None:
        """The engine dispatched ``entry`` to a functional unit."""
        raise NotImplementedError

    def on_complete(self, entry: InflightInstruction, value: Optional[int]) -> None:
        """``entry`` finished executing and produced ``value`` (or none).

        The provider routes the result: RF write queue, collector
        storage, or both — this is where the writeback policies differ.
        """
        raise NotImplementedError

    def drain(self) -> None:
        """Kernel end: flush any state that still owes RF writes."""


def ensure_decoded(entry: InflightInstruction, engine) -> DecodedOp:
    """The entry's decode record, decoding lazily for hand-built entries."""
    dec = entry.dec
    if dec is None:
        dec = DecodedOp(entry.warp_id, entry.inst, engine.config)
        entry.dec = dec
    return dec


class BaselineCollectorPool(OperandProvider):
    """Conventional OCUs: shared pool, no bypassing (Figure 2).

    Every source operand is fetched from the RF; each OCU's single port
    serializes its fetches; results are written back to the RF through
    the engine's write queue, and the scoreboard releases only when the
    bank accepts the write.
    """

    shared_pool = True  # can_accept gates on the pool, not the warp

    def __init__(self, engine, num_units: int):
        if num_units < 1:
            raise SimulationError(f"num_units must be >= 1, got {num_units}")
        self.engine = engine
        self.num_units = num_units
        self._occupied: Dict[Tuple[int, int], InflightInstruction] = {}
        # Entries currently collecting (i.e. consuming an OCU).
        self._collecting: List[InflightInstruction] = []
        # Operand-complete entries, maintained incrementally at the
        # ready transition (insert with no sources, or last delivery)
        # so ready_entries never rescans the pool.
        self._ready: List[InflightInstruction] = []
        self.heads_pending = 0

    # -- issue ----------------------------------------------------------

    def can_accept(self, warp_id: int) -> bool:
        return len(self._collecting) < self.num_units

    def insert(self, entry: InflightInstruction) -> None:
        if len(self._collecting) >= self.num_units:
            raise SimulationError("insert called with no free OCU")
        dec = ensure_decoded(entry, self.engine)
        entry.pending_slots = list(range(dec.num_sources))
        self._occupied[entry.key] = entry
        self._collecting.append(entry)
        if entry.pending_slots:
            self.heads_pending += 1
        else:
            self._ready.append(entry)

    # -- collection ------------------------------------------------------

    def read_requests(self, cycle: int) -> List[AccessRequest]:
        requests = []
        # Skip slots whose read was already granted (the contract).
        inflight_tags = self.engine.state.inflight_read_tags
        for entry in self._collecting:
            pending = entry.pending_slots
            if not pending:
                continue
            slot = pending[0]
            request = entry.head_request
            if request is None or request.tag[1] != slot:
                dec = entry.dec
                request = AccessRequest(
                    bank=dec.source_banks[slot],
                    warp_id=entry.warp_id,
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
        entry = self._occupied.get(key)
        if entry is None or not entry.pending_slots or entry.pending_slots[0] != slot:
            raise SimulationError(f"unexpected operand delivery {tag!r}")
        entry.pending_slots.pop(0)
        entry.operand_values[slot] = value
        if not entry.pending_slots:
            self.heads_pending -= 1
            self._ready.append(entry)

    def ready_entries(self) -> List[InflightInstruction]:
        return self._ready

    def on_dispatch(self, entry: InflightInstruction) -> None:
        self._collecting.remove(entry)
        self._ready.remove(entry)

    # -- writeback --------------------------------------------------------

    def on_complete(self, entry: InflightInstruction, value: Optional[int]) -> None:
        self._occupied.pop(entry.key, None)
        if value is None or entry.dec.rf_dest_id is None:
            # Predicate-only results ($o127 sink) never touch the banks.
            self.engine.release_scoreboard(entry)
            return
        # Conventional path: result goes to the RF; the scoreboard holds
        # until the bank accepts the write.
        self.engine.enqueue_rf_write(entry, value, release_on_grant=True)
