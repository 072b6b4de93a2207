"""Register File Cache (RFC): the closest prior design (SS V-A).

Gebhart et al. add a small cache in front of the RF: every computed
result is written into the cache; reads check the cache first; dirty
victims are written back on eviction.  Two structural differences from
BOW that the paper calls out, both modeled here:

* the RFC is organized like the RF (a single structure behind the
  collectors), so a cache *hit still serializes through the collector's
  single port* — it saves bank energy and bank conflicts, not collection
  latency, which is why its IPC gain is small;
* every result is cached regardless of future use — no compiler hints —
  so it pays redundant cache-write energy BOW-WR avoids.

The paper's configuration caches 6 register entries per thread — one
warp-wide entry per warp-register, i.e. 6 warp-registers per warp, 24 KB
per SM (double BOW-WR's half-size storage).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..config import GPUConfig
from ..errors import SimulationError
from ..gpu.banks import AccessRequest
from ..gpu.collector import InflightInstruction, OperandProvider, ensure_decoded
from ..gpu.sm import SimulationResult, SMEngine
from ..kernels.trace import KernelTrace
from ..stats.trace import EventKind

#: Warp-registers cached per warp (6 entries per thread in the paper).
RFC_ENTRIES_PER_WARP = 6


@dataclass
class _CacheLine:
    value: int
    dirty: bool


@dataclass
class _WarpCache:
    """FIFO cache of warp-registers for one warp."""

    warp_id: int
    lines: "OrderedDict[int, _CacheLine]" = field(default_factory=OrderedDict)


class RFCCollectors(OperandProvider):
    """Conventional collectors backed by a per-warp register-file cache."""

    shared_pool = True  # can_accept gates on the pool, not the warp

    def __init__(self, engine, num_units: int,
                 entries_per_warp: int = RFC_ENTRIES_PER_WARP):
        if entries_per_warp < 1:
            raise SimulationError("entries_per_warp must be >= 1")
        self.engine = engine
        self.num_units = num_units
        self.entries_per_warp = entries_per_warp
        self._caches: Dict[int, _WarpCache] = {}
        self._collecting: List[InflightInstruction] = []
        # Operand-complete entries, maintained incrementally at the
        # ready transition so ready_entries never rescans the pool.
        self._ready: List[InflightInstruction] = []
        self.heads_pending = 0
        # Cache hits in service: the RFC is organized like the RF, so a
        # hit takes the same pipelined read latency — it skips only the
        # bank port (and its conflicts).
        self._hits_due: Dict[int, List[Tuple[Tuple[int, int], int, int]]] = {}
        # Min-heap of the due cycles present in _hits_due (the
        # provider's due_heap): a hit scheduled at cycle c lands at
        # c + hit_delta, so the engine must tick that cycle even when
        # every other structure is idle.
        # Hits deliver exactly at their due cycle, so heads never stale.
        self.due_heap: List[int] = []
        self._serving: set = set()

    def _cache(self, warp_id: int) -> _WarpCache:
        if warp_id not in self._caches:
            self._caches[warp_id] = _WarpCache(warp_id)
        return self._caches[warp_id]

    # -- issue ----------------------------------------------------------

    def can_accept(self, warp_id: int) -> bool:
        return len(self._collecting) < self.num_units

    def insert(self, entry: InflightInstruction) -> None:
        dec = ensure_decoded(entry, self.engine)
        entry.pending_slots = list(range(dec.num_sources))
        self._collecting.append(entry)
        if entry.pending_slots:
            self.heads_pending += 1
        else:
            self._ready.append(entry)

    # -- collection: every operand passes the single port; cache hits
    # skip the bank, not the port ------------------------------------------

    def read_requests(self, cycle: int) -> List[AccessRequest]:
        self._deliver_due_hits(cycle)
        requests = []
        counters = self.engine.counters
        serving = self._serving
        inflight_tags = self.engine.state.inflight_read_tags
        hit_delta = max(1, self.engine.config.rf_read_latency - 1)
        for entry in self._collecting:
            if not entry.pending_slots:
                continue
            slot = entry.pending_slots[0]
            tag = (entry.key, slot)
            if tag in serving:
                continue  # a cache hit for this slot is already in flight
            dec = entry.dec
            register_id = dec.source_ids[slot]
            cache = self._cache(entry.warp_id)
            line = cache.lines.get(register_id)
            if line is not None:
                # Cache hit: no bank access, and one cycle less than a
                # full RF read (the cache sits closer to the collectors)
                # — but the collection pipeline itself remains.
                serving.add(tag)
                due = cycle + hit_delta
                bucket = self._hits_due.get(due)
                if bucket is None:
                    bucket = self._hits_due[due] = []
                    heappush(self.due_heap, due)
                bucket.append((entry.key, slot, line.value))
                counters.bypassed_reads += 1
                counters.boc_reads += 1
                if self.engine.recorder is not None:
                    self.engine.recorder.emit(
                        self.engine.cycle, EventKind.BOC_HIT,
                        warp=entry.warp_id, register=register_id,
                        trace_index=entry.trace_index,
                        opcode=dec.opcode_name,
                    )
                continue
            if tag in inflight_tags:
                # The bank read was already granted: never re-request
                # it.  (The cache check above must still run first: a
                # concurrent fill schedules a hit for the slot.)
                continue
            request = entry.head_request
            if request is None or request.tag[1] != slot:
                request = AccessRequest(
                    bank=dec.source_banks[slot],
                    warp_id=entry.warp_id,
                    register_id=register_id,
                    tag=tag,
                    age=entry.issue_cycle,
                )
                entry.head_request = request
            requests.append(request)
        return requests

    def _deliver_due_hits(self, cycle: int) -> None:
        heap = self.due_heap
        while heap and heap[0] <= cycle:
            heappop(heap)
        for key, slot, value in self._hits_due.pop(cycle, ()):
            self._serving.discard((key, slot))
            for entry in self._collecting:
                if entry.key == key:
                    break
            else:
                raise SimulationError(f"hit delivery for unknown entry {key}")
            if not entry.pending_slots or entry.pending_slots[0] != slot:
                raise SimulationError(f"out-of-order hit delivery {key}/{slot}")
            entry.pending_slots.pop(0)
            entry.operand_values[slot] = value
            if not entry.pending_slots:
                self.heads_pending -= 1
                self._ready.append(entry)

    def deliver(self, tag: object, value: int) -> None:
        key, slot = tag
        for entry in self._collecting:
            if entry.key == key:
                break
        else:
            raise SimulationError(f"operand delivery for unknown entry {key}")
        if not entry.pending_slots or entry.pending_slots[0] != slot:
            # The slot may already have been served by a cache hit in the
            # same cycle the bank request was in flight; treat as stale.
            raise SimulationError(f"out-of-order operand delivery {tag!r}")
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

    # -- writeback: allocate every result in the cache ----------------------

    def on_complete(self, entry: InflightInstruction, value: Optional[int]) -> None:
        dest_id = entry.dec.rf_dest_id
        if dest_id is None or value is None:
            self.engine.release_scoreboard(entry)
            return
        cache = self._cache(entry.warp_id)
        counters = self.engine.counters
        recorder = self.engine.recorder
        old = cache.lines.pop(dest_id, None)
        if old is not None and old.dirty:
            counters.bypassed_writes += 1  # consolidated in the cache
            if recorder is not None:
                recorder.emit(
                    self.engine.cycle, EventKind.WRITE_ELIMINATED,
                    warp=cache.warp_id, reason="consolidated",
                    register=dest_id,
                )
        while len(cache.lines) >= self.entries_per_warp:
            victim_id, victim = cache.lines.popitem(last=False)
            counters.boc_evictions += 1
            if recorder is not None:
                recorder.emit(
                    self.engine.cycle, EventKind.BOC_EVICT,
                    warp=cache.warp_id, reason="capacity",
                    register=victim_id,
                )
            if victim.dirty:
                self.engine.enqueue_rf_write(
                    None, victim.value,
                    warp_id=cache.warp_id, register_id=victim_id,
                )
                counters.eviction_writebacks += 1
                if recorder is not None:
                    recorder.emit(
                        self.engine.cycle, EventKind.EVICTION_WRITEBACK,
                        warp=cache.warp_id, register=victim_id,
                    )
        cache.lines[dest_id] = _CacheLine(value=value, dirty=True)
        counters.boc_writes += 1
        if recorder is not None:
            recorder.emit(
                self.engine.cycle, EventKind.BOC_INSERT,
                warp=cache.warp_id, reason="dirty", register=dest_id,
            )
        self.engine.release_scoreboard(entry)

    def drain(self) -> None:
        for cache in self._caches.values():
            while cache.lines:
                register_id, line = cache.lines.popitem(last=False)
                if self.engine.recorder is not None:
                    self.engine.recorder.emit(
                        self.engine.cycle, EventKind.BOC_EVICT,
                        warp=cache.warp_id, reason="drain",
                        register=register_id,
                    )
                if line.dirty:
                    self.engine.enqueue_rf_write(
                        None, line.value,
                        warp_id=cache.warp_id, register_id=register_id,
                    )


def simulate_rfc(
    trace: KernelTrace,
    config: Optional[GPUConfig] = None,
    memory_seed: int = 0,
    entries_per_warp: int = RFC_ENTRIES_PER_WARP,
    preload: Optional[Dict[int, int]] = None,
    recorder=None,
    fast_forward: bool = True,
) -> SimulationResult:
    """Run the RFC comparison design over ``trace``."""
    engine = SMEngine(
        trace,
        config=config,
        provider_factory=lambda eng: RFCCollectors(
            eng, eng.config.num_operand_collectors, entries_per_warp
        ),
        memory_seed=memory_seed,
        preload=preload,
        recorder=recorder,
        fast_forward=fast_forward,
    )
    return engine.run()
