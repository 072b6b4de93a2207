"""Pipeline stages of the SM engine.

:class:`~repro.gpu.sm.SMEngine` processes one cycle back-to-front so
results never skip a stage; each step of that reverse walk is an
explicit stage object here, all sharing one typed :class:`EngineState`:

1. :class:`CompleteStage` — functional units finishing this cycle hand
   results to the operand provider, which routes them (RF queue /
   collector / both, depending on the design).
2. :class:`BankStage` — queued RF writes arbitrate for bank ports
   together with the provider's operand reads; granted writes may
   release the scoreboard, granted reads enter the bank/crossbar
   pipeline and deliver after ``rf_read_latency``.
3. :class:`DispatchStage` — instructions whose operands are complete go
   to a functional unit, round-robin across warps, limited by unit
   widths; execution semantics run here and schedule a completion.
4. :class:`IssueStage` — schedulers pick warps (GTO by default); the
   next trace instruction issues when the scoreboard is clear, the
   provider has room, and no branch is unresolved.

The stages read static per-instruction facts from the decode cache
(:mod:`repro.gpu.decode`) instead of re-deriving them per cycle; the
simulated machine is cycle-for-cycle identical to the pre-stage engine.
Stage objects hold only references into the engine — all mutable
per-run state lives in :class:`EngineState`.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..stats.trace import EventKind
from .banks import AccessRequest
from .collector import InflightInstruction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sm import SMEngine


class QueuedWrite:
    """One pending RF write awaiting a bank port."""

    __slots__ = ("warp_id", "register_id", "value", "age", "bank",
                 "entry", "release_on_grant", "request")

    def __init__(self, warp_id: int, register_id: int, value: int, age: int,
                 bank: int, entry: Optional[InflightInstruction] = None,
                 release_on_grant: bool = False):
        self.warp_id = warp_id
        self.register_id = register_id
        self.value = value
        self.age = age
        self.bank = bank
        self.entry = entry
        self.release_on_grant = release_on_grant
        # The bank request is immutable for the write's whole queue
        # life, so it is built once here instead of every cycle the
        # write waits for a port.  Its tag is the QueuedWrite itself.
        self.request = AccessRequest(
            bank=bank, warp_id=warp_id, register_id=register_id,
            tag=self, age=age,
        )


class EngineState:
    """All mutable per-run pipeline state, shared by the stages.

    Attributes:
        cycle: current simulated cycle (0 before the first step).
        write_queue: RF writes awaiting a bank port, oldest first.
        completions: finish cycle -> [(entry, result value)].
        reads_in_flight: granted reads in the bank/crossbar pipeline,
            delivery cycle -> [(tag, warp_id, register_id)].
        inflight_read_tags: tags of granted-but-undelivered reads (the
            provider must not re-request them).
        in_flight: issued-but-unretired instruction count.
        active_warps: warps that still have instructions to issue.
        dispatch_rotor: round-robin pivot of the dispatch stage.
        write_age: monotonic age stamp for write arbitration.
        undispatched_mem: per-warp trace indexes of issued-but-
            undispatched memory ops (dispatch keeps program order so
            same-address load/store ordering holds within a warp).
        completion_heap: min-heap of the due cycles present in
            ``completions`` — the engine's event-horizon loop peeks it
            for the earliest future completion in O(1).
        read_heap: min-heap of the due cycles present in
            ``reads_in_flight``.
        issue_dirty: warp ids whose issue outcome may have changed
            since the issue stage last derived it.  Dispatches and
            scoreboard releases append here — for a scoreboard-stalled
            warp only when they clear its recorded blocker
            (``_WarpState.blocker``) — and the issue stage consumes the
            list on the next cycle, so it stays short.  Warps not on
            the list provably stall exactly as they did last cycle,
            which lets the issue stage patch a cached stall profile
            instead of re-walking every warp.
    """

    __slots__ = ("cycle", "write_queue", "write_requests", "completions",
                 "reads_in_flight", "inflight_read_tags", "in_flight",
                 "active_warps", "dispatch_rotor", "write_age",
                 "undispatched_mem", "completion_heap", "read_heap",
                 "issue_dirty", "occupancy_gen")

    def __init__(self) -> None:
        self.cycle = 0
        self.write_queue: List[QueuedWrite] = []
        # Mirror of write_queue's prebuilt AccessRequests, maintained
        # incrementally so the bank stage never rebuilds it per cycle.
        self.write_requests: List[AccessRequest] = []
        self.completions: Dict[
            int, List[Tuple[InflightInstruction, Optional[int]]]
        ] = {}
        self.reads_in_flight: Dict[int, List[Tuple[object, int, int]]] = {}
        self.inflight_read_tags: Set[object] = set()
        self.in_flight = 0
        self.active_warps = 0
        self.dispatch_rotor = 0
        self.write_age = 0
        self.undispatched_mem: Dict[int, Set[int]] = {}
        self.completion_heap: List[int] = []
        self.read_heap: List[int] = []
        self.issue_dirty: List[int] = []
        # Generation of provider occupancy (inserts and dispatches):
        # the key for cached "collector" stall outcomes.
        self.occupancy_gen = 0


class _Stage:
    """A pipeline stage bound to one engine."""

    __slots__ = ("engine", "state")

    def __init__(self, engine: "SMEngine"):
        self.engine = engine
        self.state = engine.state

    def run(self) -> bool:
        """Process one cycle; returns whether any event happened."""
        raise NotImplementedError


class CompleteStage(_Stage):
    """Hand finishing results to the provider for writeback routing."""

    __slots__ = ()

    def run(self) -> bool:
        state = self.state
        cycle = state.cycle
        heap = state.completion_heap
        if not heap or heap[0] > cycle:
            # Nothing can be due: every completions key is on the heap.
            return False
        while heap and heap[0] <= cycle:
            heappop(heap)
        finishing = state.completions.pop(cycle, None)
        if not finishing:
            return False
        on_complete = self.engine.provider.on_complete
        for entry, value in finishing:
            on_complete(entry, value)
        return True


class BankStage(_Stage):
    """Reads and writes arbitrate together for the single-ported banks."""

    __slots__ = ("_read_due_delta", "_crossbar_width", "_read_requests",
                 "_arbitrate", "_num_banks", "_check_request")

    def __init__(self, engine: "SMEngine"):
        super().__init__(engine)
        self._read_due_delta = max(1, engine.config.rf_read_latency)
        self._crossbar_width = engine.config.crossbar_width
        self._read_requests = engine.provider.read_requests
        # The arbiter is fixed at engine construction; bind its entry
        # points once instead of chasing engine.arbiter every cycle.
        self._arbitrate = engine.arbiter.arbitrate
        self._num_banks = engine.arbiter.num_banks
        self._check_request = engine.arbiter._check

    def run(self) -> bool:
        cycle = self.state.cycle
        return self._deliver_due_reads(cycle) | self.collect(cycle)

    def collect(self, cycle: int) -> bool:
        """The request/arbitrate half of the stage (deliveries aside).

        The engine's fast loop calls the two halves separately —
        deliveries only when the read heap says something is due,
        collection only when a head is requestable, a write waits, or a
        provider-internal delivery lands this cycle.
        """
        engine = self.engine
        state = self.state
        tags = state.inflight_read_tags
        reads = self._read_requests(cycle)
        writes = state.write_requests
        if not reads and len(writes) == 1:
            # Lone write: nothing to conflict with, grant in place —
            # the same bookkeeping the granted_writes loop below does,
            # minus the arbitration round trip.
            request = writes[0]
            if not 0 <= request.bank < self._num_banks:
                self._check_request(request)  # raises
            queued = request.tag
            state.write_queue.remove(queued)
            del writes[0]
            engine.regfile.write(queued.warp_id, queued.register_id,
                                 queued.value)
            recorder = engine.recorder
            if recorder is not None:
                recorder.emit(
                    cycle, EventKind.WRITEBACK, warp=queued.warp_id,
                    reason="granted", register=queued.register_id,
                    bank=queued.bank,
                )
            if queued.release_on_grant and queued.entry is not None:
                engine.release_scoreboard(queued.entry)
            return True
        if not writes:
            if not reads:
                return False
            if len(reads) == 1:
                # Lone read: nothing to conflict with, grant in place
                # without building an ArbitrationResult.
                request = reads[0]
                if not 0 <= request.bank < self._num_banks:
                    self._check_request(request)  # raises
                due = cycle + self._read_due_delta
                pending = state.reads_in_flight.get(due)
                if pending is None:
                    pending = state.reads_in_flight[due] = []
                    heappush(state.read_heap, due)
                tags.add(request.tag)
                pending.append(
                    (request.tag, request.warp_id, request.register_id)
                )
                return True

        result = self._arbitrate(reads, writes)
        recorder = engine.recorder
        engine.counters.bank_conflicts += result.conflicts
        if recorder is not None and result.conflicts:
            recorder.emit(cycle, EventKind.BANK_CONFLICT,
                          count=result.conflicts)

        if result.granted_writes:
            regfile_write = engine.regfile.write
            write_queue = state.write_queue
            for request in result.granted_writes:
                queued = request.tag
                write_queue.remove(queued)
                writes.remove(request)
                regfile_write(queued.warp_id, queued.register_id,
                              queued.value)
                if recorder is not None:
                    recorder.emit(
                        cycle, EventKind.WRITEBACK, warp=queued.warp_id,
                        reason="granted", register=queued.register_id,
                        bank=queued.bank,
                    )
                if queued.release_on_grant and queued.entry is not None:
                    engine.release_scoreboard(queued.entry)

        if result.granted_reads:
            # Granted reads occupy the bank port now; the data lands in
            # the collector after the bank/crossbar pipeline latency.
            due = cycle + self._read_due_delta
            pending = state.reads_in_flight.get(due)
            if pending is None:
                pending = state.reads_in_flight[due] = []
                heappush(state.read_heap, due)
            for request in result.granted_reads:
                tags.add(request.tag)
                pending.append(
                    (request.tag, request.warp_id, request.register_id)
                )
            return True
        return bool(result.granted_writes)

    def _deliver_due_reads(self, cycle: int) -> bool:
        state = self.state
        heap = state.read_heap
        if not heap or heap[0] > cycle:
            # Nothing can be due: every reads_in_flight key is on the heap.
            return False
        while heap and heap[0] <= cycle:
            heappop(heap)
        due = state.reads_in_flight.pop(cycle, None)
        if not due:
            return False
        engine = self.engine
        width = self._crossbar_width
        if width and len(due) > width:
            # The crossbar moves at most `width` operands per cycle;
            # the overflow slips to the next cycle.
            due, deferred = due[:width], due[width:]
            overflow = state.reads_in_flight.get(cycle + 1)
            if overflow is None:
                overflow = state.reads_in_flight[cycle + 1] = []
                heappush(heap, cycle + 1)
            overflow.extend(deferred)
        discard = state.inflight_read_tags.discard
        regfile_read = engine.regfile.read
        deliver = engine.provider.deliver
        for tag, warp_id, register_id in due:
            discard(tag)
            deliver(tag, regfile_read(warp_id, register_id))
        return True


def _dispatch_age(entry):
    """Oldest-first dispatch order within one warp's ready bucket."""
    return (entry.issue_cycle, entry.trace_index)


class DispatchStage(_Stage):
    """Send operand-complete instructions to the functional units."""

    __slots__ = ("_ready_entries",)

    def __init__(self, engine: "SMEngine"):
        super().__init__(engine)
        self._ready_entries = engine.provider.ready_entries

    def run(self) -> bool:
        engine = self.engine
        ready = self._ready_entries()
        if not ready:
            return False
        state = self.state
        cycle = state.cycle
        counters = engine.counters
        recorder = engine.recorder
        units = engine.units
        undispatched_mem = state.undispatched_mem
        if len(ready) > 1:
            # Round-robin across warps (paper SS IV-A), oldest-first
            # per warp.  ``ready`` is the provider's own list, so order
            # (and iterate) a copy — on_dispatch mutates the original.
            # Grouping first and sorting the (tiny) per-warp buckets
            # orders exactly like one global (warp, issue, trace) sort
            # — (issue_cycle, trace_index) is unique within a warp —
            # without building a key tuple per entry.
            by_warp: Dict[int, List[InflightInstruction]] = {}
            for entry in ready:
                bucket = by_warp.get(entry.warp_id)
                if bucket is None:
                    bucket = by_warp[entry.warp_id] = []
                bucket.append(entry)
            warp_order = sorted(by_warp)
            rotor = state.dispatch_rotor % len(warp_order)
            warp_order = warp_order[rotor:] + warp_order[:rotor]
            for bucket in by_warp.values():
                if len(bucket) > 1:
                    bucket.sort(key=_dispatch_age)
            ready = [
                entry
                for warp_id in warp_order
                for entry in by_warp[warp_id]
            ]
        else:
            ready = (ready[0],)
        # A lone entry needs no ordering, but the rotor still advances:
        # it only ticks on cycles with ready entries, exactly as before.
        state.dispatch_rotor += 1

        dispatched = False
        on_dispatch = engine.provider.on_dispatch
        for entry in ready:
            warp_id = entry.warp_id
            dec = entry.dec
            if dec.is_memory:
                # Memory effects apply at dispatch: only the oldest
                # undispatched memory op of the warp may go.
                pending = undispatched_mem.get(warp_id)
                if pending and min(pending) != entry.trace_index:
                    continue
            bucket = dec.bucket
            if not units.can_dispatch_bucket(bucket):
                counters.exec_busy_stalls += 1
                if recorder is not None:
                    recorder.emit(
                        cycle, EventKind.DISPATCH_STALL,
                        warp=warp_id, reason="exec_busy",
                        trace_index=entry.trace_index,
                        opcode=dec.opcode_name,
                    )
                continue
            units.dispatch_bucket(bucket)
            on_dispatch(entry)
            state.occupancy_gen += 1
            entry.dispatch_cycle = cycle
            if recorder is not None:
                recorder.emit(
                    cycle, EventKind.DISPATCH, warp=warp_id,
                    trace_index=entry.trace_index,
                    opcode=dec.opcode_name,
                )
            # Drop the scoreboard's WAR reader marks: the operands
            # are collected, and the guard is sampled this cycle
            # (in _execute), so younger writers may proceed.
            warp_state = engine.warp_state(warp_id)
            # Dispatch drops this warp's WAR reader marks, may resolve
            # its branch, and frees a provider slot.  A warp stalled on
            # one scoreboard blocker wakes only when that count hits 0.
            blocker = warp_state.blocker
            wake = blocker is None
            reads = warp_state.sb_reads
            for reg_id in dec.source_ids:
                remaining = reads.get(reg_id, 0) - 1
                if remaining > 0:
                    reads[reg_id] = remaining
                else:
                    reads.pop(reg_id, None)
                    if reg_id == blocker:
                        wake = True
            guard_id = dec.guard_id
            if guard_id is not None:
                pred_reads = warp_state.sb_pred_reads
                remaining = pred_reads.get(guard_id, 0) - 1
                if remaining > 0:
                    pred_reads[guard_id] = remaining
                else:
                    pred_reads.pop(guard_id, None)
                    if ~guard_id == blocker:
                        wake = True
            if wake:
                state.issue_dirty.append(warp_id)
            if dec.is_memory:
                undispatched_mem[warp_id].discard(entry.trace_index)
            if dec.is_control:
                # The next PC is determined once the branch leaves
                # the collector; issue of the successor may resume.
                # (A warp with a pending branch has no blocker, so it
                # was woken above.)
                warp_state.control_pending = False
            self._start_execution(entry, dec)
            dispatched = True
        return dispatched

    def _start_execution(self, entry: InflightInstruction, dec) -> None:
        engine = self.engine
        state = self.state
        if dec.is_memory:
            latency = engine.memory.latency(dec.inst, entry.warp_id,
                                            entry.trace_index)
        else:
            latency = dec.latency
        value = self._execute(entry, dec)
        finish = state.cycle + (latency if latency > 1 else 1)
        bucket = state.completions.get(finish)
        if bucket is None:
            bucket = state.completions[finish] = []
            heappush(state.completion_heap, finish)
        bucket.append((entry, value))

    def _execute(self, entry: InflightInstruction, dec) -> Optional[int]:
        """Functional semantics using the *collected* operand values."""
        engine = self.engine
        warp_id = entry.warp_id
        if dec.guard_id is not None:
            value = engine.predicates.get((warp_id, dec.guard_id), False)
            if not (not value if dec.guard_negated else value):
                # Predicated off: consumes the slot, produces nothing.
                return None
        get = entry.operand_values.get
        num_sources = dec.num_sources
        pad = dec.imm_pad
        # Unrolled operand materialization (two sources is by far the
        # common shape): same values the generic pad loop would build.
        if num_sources == 2:
            operands = (get(0, 0), get(1, 0), pad)
        elif num_sources == 1:
            operands = (get(0, 0), pad, pad)
        elif num_sources == 0:
            operands = (pad, pad, pad)
        else:
            operands = (get(0, 0), get(1, 0), get(2, 0))

        if dec.is_load:
            address = engine.memory.thread_address(warp_id, operands[0])
            return engine.memory.load(address)
        if dec.is_store:
            address = engine.memory.thread_address(warp_id, operands[0])
            engine.memory.store(address, operands[1])
            return None
        if dec.is_control or dec.is_nop:
            return None
        if dec.semantic is None:
            from ..errors import SimulationError

            raise SimulationError(f"no semantics for {dec.opcode_name}")
        if dec.dest_id is None:
            return None
        value = dec.semantic(operands[0], operands[1], operands[2])
        if dec.pred_dest_id is not None:
            engine.predicates[(warp_id, dec.pred_dest_id)] = bool(value)
        return value


class _IssueProfile:
    """Per-warp hazard-walk outcomes, patched in place across cycles.

    ``slots`` holds one ``[warp, charge]`` pair per warp, scheduler by
    scheduler and in warp-id order within each; ``charge`` is ``None``
    (drained / branch pending / not yet walked, nothing to charge) or
    the ``(warp_id, reason, pc, opcode)`` stall record.  ``bounds``
    marks each scheduler's ``(start, end)`` span of ``slots``, with
    per-scheduler stall sums in ``sched_sb`` / ``sched_col`` and the
    grand totals in ``n_scoreboard`` / ``n_collector`` — so a stable
    span of cycles and a scheduler a sparse walk skips both charge in
    O(1).  ``collector_ids`` tracks which warps are collector-stalled
    (the only outcomes that depend on provider occupancy);
    ``occupancy_gen`` is the occupancy generation the profile was last
    validated against.
    """

    __slots__ = ("slots", "index", "bounds", "sched_of", "sched_sb",
                 "sched_col", "n_scoreboard", "n_collector",
                 "collector_ids", "occupancy_gen")

    def __init__(self, engine: "SMEngine"):
        self.slots = []
        self.bounds = []
        self.sched_of = {}
        for sched_idx, scheduler in enumerate(engine.schedulers):
            start = len(self.slots)
            for warp_id in sorted(scheduler.warp_ids):
                self.slots.append([engine.warp_state(warp_id), None])
                self.sched_of[warp_id] = sched_idx
            self.bounds.append((start, len(self.slots)))
        self.index = {
            pair[0].warp_id: i for i, pair in enumerate(self.slots)
        }
        self.sched_sb = [0] * len(self.bounds)
        self.sched_col = [0] * len(self.bounds)
        self.n_scoreboard = 0
        self.n_collector = 0
        self.collector_ids = set()
        self.occupancy_gen = 0

    def patch(self, warp_id: int, outcome) -> None:
        """Replace one warp's outcome, keeping the sums consistent."""
        slot = self.slots[self.index[warp_id]]
        old = slot[1]
        if old == outcome:
            return
        sched_idx = self.sched_of[warp_id]
        if old is not None:
            if old[1] == "scoreboard":
                self.n_scoreboard -= 1
                self.sched_sb[sched_idx] -= 1
            else:
                self.n_collector -= 1
                self.sched_col[sched_idx] -= 1
                self.collector_ids.discard(warp_id)
        if outcome is not None:
            if outcome[1] == "scoreboard":
                self.n_scoreboard += 1
                self.sched_sb[sched_idx] += 1
            else:
                self.n_collector += 1
                self.sched_col[sched_idx] += 1
                self.collector_ids.add(warp_id)
        slot[1] = outcome


def _emit_stalls(recorder, cycle: int, slots, count: int = 1) -> None:
    """One ISSUE_STALL event per charged slot, ``count`` cycles each."""
    for _warp, charge in slots:
        if charge is not None:
            recorder.emit(
                cycle, EventKind.ISSUE_STALL, warp=charge[0],
                reason=charge[1], trace_index=charge[2], opcode=charge[3],
                count=count,
            )


#: Sentinel outcome: the warp can issue its next instruction now.
_ISSUABLE = object()

#: A skip bound no occupancy generation reaches.
_UNBOUNDED = sys.maxsize


class IssueStage(_Stage):
    """Schedulers pick warps; hazard-free instructions enter collectors.

    There is one walk, :meth:`_sparse_walk`, and two ways to drive it.
    The *full* walk passes every warp as live, so each one gets a
    hazard check against live state — the reference behaviour, and
    what every cycle runs until the first fruitless one.  From then on
    the stage works by events: it does work only on a cycle where
    something changed what it would charge.

    **The profile.**  A warp's walk outcome is a pure function of
    issue-relevant state — its PC, ``control_pending``, its scoreboard
    views, and provider occupancy — which only an issue, a dispatch or
    a scoreboard release changes.  Every walk records each warp's
    outcome in an :class:`_IssueProfile`.  After the first fruitless
    full walk the profile is complete, and the stage re-derives only
    the warps in ``EngineState.issue_dirty`` and patches the profile
    (:meth:`_run_profile`).  When a re-derived warp turns out issuable,
    or a collector-stalled one finds room, the walk runs sparsely: it
    hazard-checks only the warps whose outcome could have moved (the
    dirty ones and the collector-stalled ones) and charges every other
    warp straight from the profile.  Warps the walk leaves in an
    unknown state (they issued, or the issue budget ran out mid-warp)
    are marked dirty for the next cycle.

    **Integrated stall charges.**  While no patch happens, every cycle
    charges the same ``n_scoreboard`` / ``n_collector``, so the stage
    does not add them cycle by cycle.  It keeps the last cycle it has
    charged through and adds ``sum × span`` in one step
    (:meth:`settle`): before any patch changes the sums, at the start
    of a walk (which charges its own cycle explicitly), and when the
    engine's ``run()`` returns or raises.  The counters are therefore
    exact at every point a caller can observe them.  The engine's fast
    loop calls :meth:`run` only when a warp is dirty or
    ``occupancy_gen`` passed :attr:`skip_through_gen`, a bound the
    stage keeps current after every run: every cycle while the full
    walk is on or a recorder is attached (so per-cycle ISSUE_STALL
    events keep their order), on an occupancy move while
    collector-stalled warps exist, never otherwise.  On any cycle it
    skips, the stage would only have charged the sums.  An idle-span
    jump leaves its cycles owed the same way.

    **Owed idle spans.**  A scheduler none of whose warps can issue
    stalls every member, which ``on_idle_span(1)`` replays.  Each
    scheduler records the last cycle it was consulted; right before its
    next ``candidate_order()`` it receives everything owed since in one
    ``on_idle_span`` call.  Spans compose additively (the greedy reset
    is idempotent, LRR pointers sum) and nothing else reads scheduler
    state, so this is exact — but only for schedulers whose
    ``idle_span_limit()`` is statically ``None``.  A two-level
    scheduler with a pending set mutates state per ``note_stall``, so
    it keeps the full walk every cycle, as does the engine's reference
    loop (``fast_forward=False``): full walk, explicit charges.

    **Wake on the blocking hazard.**  When :meth:`_derive_outcome`
    returns a scoreboard stall it records the first blocker in check
    order on the warp (``_WarpState.blocker``): the register of a RAW,
    WAW or WAR hazard, or ``~p`` for a predicate ``p`` that blocks as
    a guard or as a destination.  Every other outcome (collector stall,
    pending branch, drained, issuable) records ``None``.  A scoreboard
    release marks a warp dirty only when it discards that register or
    predicate, and a dispatch only when it drops that reader count to
    zero; a ``None`` blocker wakes on any such event.  This is
    exact: the charge ``(warp, "scoreboard", pc, opcode)`` does not
    name the register, and only an issue by the same warp can move its
    PC, set ``control_pending`` or add a hazard — and an issue
    re-derives the warp.  So while the recorded blocker stays set, a
    re-derivation would return the same charge, and (returning before
    ``can_accept``) would not touch the provider.

    **Stalled schedulers in bulk.**  A walk consults only the
    schedulers that own a live warp.  The others cannot issue this
    cycle (issues elsewhere only consume provider slots, which unstalls
    no one), so each charges its per-scheduler sums in one step, in
    scheduler order (which keeps the event order), and its cycle stays
    owed to ``on_idle_span``.

    The cache never guesses: every charge either comes from a live
    hazard check or from an outcome proven unchanged since one.  The
    full walks up to the first fruitless cycle also fix the order in
    which warps first reach the provider's ``can_accept``, which a
    provider may use to order its per-warp state (BOW does).
    """

    __slots__ = ("_issue_width", "_replay_ok", "_may_skip", "_profile",
                 "_full_walk", "skip_through_gen", "_all_ids",
                 "_all_scheds", "_member_sets", "_charged_through",
                 "_consulted")

    def __init__(self, engine: "SMEngine"):
        super().__init__(engine)
        self._issue_width = engine.config.issue_width_per_scheduler
        # idle_span_limit() is a static property of each scheduler (a
        # two-level pending set never changes size), so one check at
        # construction decides profile eligibility for the whole run.
        self._replay_ok = engine.fast_forward and all(
            scheduler.idle_span_limit() is None
            for scheduler in engine.schedulers
        )
        # Per-cycle ISSUE_STALL events need a run every cycle.
        self._may_skip = self._replay_ok and engine.recorder is None
        self._profile = _IssueProfile(engine)
        self._all_ids = frozenset(self._profile.index)
        self._all_scheds = range(len(engine.schedulers))
        # True until the first fruitless full walk (forever without
        # replay).
        self._full_walk = True
        #: The engine's fast loop skips run() on a cycle with no dirty
        #: warp while ``occupancy_gen`` is at most this: such a cycle
        #: would only charge the profile's sums, which settle()
        #: integrates.  It is -1 (run every cycle) during the full walk
        #: or with a recorder attached; the profile's generation while
        #: collector-stalled warps wait for room; unbounded otherwise.
        self.skip_through_gen = -1
        # Ownership is fixed, so each scheduler's member set can back a
        # fast "does this scheduler hold any live warp" test.
        self._member_sets = [
            frozenset(scheduler.warp_ids)
            for scheduler in engine.schedulers
        ]
        # Last cycle whose stall charges are in the counters (settle),
        # and per scheduler the last cycle it was consulted: the cycles
        # after it are owed to on_idle_span.
        self._charged_through = 0
        self._consulted = [0] * len(engine.schedulers)

    def settle(self, through: int) -> None:
        """Charge the profile's stall sums for every cycle up to ``through``.

        Between two patches every cycle charges the same sums, so the
        owed cycles land in one multiply-add.  Cycles already charged
        (a walk charges its own cycle) are never charged twice.
        """
        owed = through - self._charged_through
        if owed > 0:
            profile = self._profile
            counters = self.engine.counters
            counters.issue_stalls_scoreboard += profile.n_scoreboard * owed
            counters.issue_stalls_collector += profile.n_collector * owed
            self._charged_through = through

    def emit_stalls(self, cycle: int, count: int) -> None:
        """Record the profile's stalls as events covering ``count`` cycles.

        The fast-forward jump calls this (with a recorder attached) for
        the span it skips: nothing issue-relevant changes across a
        provably idle span, so each skipped cycle would charge exactly
        the profile.
        """
        _emit_stalls(self.engine.recorder, cycle, self._profile.slots,
                     count)

    def _derive_outcome(self, warp, can_accept):
        """One warp's walk outcome: a charge tuple, None, or _ISSUABLE.

        A scoreboard stall also records its first blocker on the warp
        (``~p`` for a predicate); any other outcome clears it.
        """
        pc = warp.pc
        if pc >= warp.end or warp.control_pending:
            warp.blocker = None
            return None
        dec = warp.decoded[pc]
        sb_pending = warp.sb_pending
        for reg_id in dec.source_ids:
            if reg_id in sb_pending:  # RAW
                warp.blocker = reg_id
                return (warp.warp_id, "scoreboard", pc, dec.opcode_name)
        dest_id = dec.rf_dest_id
        if dest_id is not None and (
            dest_id in sb_pending  # WAW
            or warp.sb_reads.get(dest_id)  # WAR
        ):
            warp.blocker = dest_id
            return (warp.warp_id, "scoreboard", pc, dec.opcode_name)
        guard_id = dec.guard_id
        if guard_id is not None and guard_id in warp.sb_preds:
            warp.blocker = ~guard_id
            return (warp.warp_id, "scoreboard", pc, dec.opcode_name)
        pred_dest_id = dec.pred_dest_id
        if pred_dest_id is not None and (
            pred_dest_id in warp.sb_preds
            or warp.sb_pred_reads.get(pred_dest_id)
        ):
            warp.blocker = ~pred_dest_id
            return (warp.warp_id, "scoreboard", pc, dec.opcode_name)
        warp.blocker = None
        if not can_accept(warp.warp_id):
            return (warp.warp_id, "collector", pc, dec.opcode_name)
        return _ISSUABLE

    def _run_profile(self, profile: _IssueProfile) -> bool:
        """Patch dirty warps into the profile; walk if one can issue.

        Charges nothing itself: a cycle without a walk is owed to
        :meth:`settle`.
        """
        engine = self.engine
        state = self.state
        dirty = state.issue_dirty
        occ = state.occupancy_gen
        collector_ids = profile.collector_ids
        occ_moved = occ != profile.occupancy_gen and collector_ids
        if dirty or occ_moved:
            # The old sums held through the previous cycle.
            if self._charged_through < state.cycle - 1:
                self.settle(state.cycle - 1)
            provider = engine.provider
            can_accept = provider.can_accept
            index = profile.index
            slots = profile.slots
            derive = self._derive_outcome
            seen = set()
            live = set()
            for warp_id in dirty:
                if warp_id in seen:
                    continue
                seen.add(warp_id)
                outcome = derive(slots[index[warp_id]][0], can_accept)
                if outcome is _ISSUABLE:
                    live.add(warp_id)  # re-derived live by the walk
                else:
                    profile.patch(warp_id, outcome)
            dirty.clear()
            if occ_moved:
                # Occupancy moved (an issue filled or a dispatch freed
                # a unit).  Non-dirty collector-stalled warps kept their
                # scoreboard outcome (stalls there outrank acceptance),
                # so only the acceptance half needs a re-check — and a
                # shared pool answers it once for every warp.
                if provider.shared_pool:
                    for warp_id in collector_ids:
                        if warp_id not in seen:
                            if can_accept(warp_id):
                                live.update(
                                    w for w in collector_ids
                                    if w not in seen
                                )
                            break
                else:
                    for warp_id in collector_ids:
                        if warp_id not in seen and can_accept(warp_id):
                            live.add(warp_id)
            if live:
                # seen minus live = warps just proven still-stalled;
                # the sparse walk may skip their hazard checks too.
                return self._sparse_walk(profile, seen - live, live)
        profile.occupancy_gen = occ
        recorder = engine.recorder
        if recorder is not None:
            _emit_stalls(recorder, state.cycle, profile.slots)
        return False

    def _sparse_walk(self, profile: _IssueProfile, settled: set,
                     live: set) -> bool:
        """The issue walk; hazard-checks only warps that may move.

        ``settled`` holds the dirty warps whose re-derivation just
        proved them still stalled; ``live`` the ones to check now (every
        warp, for the full walk).  Every other warp gets a live
        check only if it is collector-stalled (an issue here consumes
        provider slots mid-walk); the rest provably charge the same
        stall as the profile records, so the walk takes them from the
        cache.  Scheduler calls, budget accounting, and event emission
        are the same as for the full walk — including stopping the
        moment a scheduler's budget runs out, after which the remaining
        warps of that scheduler are neither charged nor noted, just as
        the full walk leaves them unvisited.  A scheduler that owns no
        *live* warp cannot issue this cycle (settled warps just
        re-derived stalled, collector-stalled warps can only stay
        stalled while the walk fills provider slots, unmoved warps
        provably repeat), so it stalls wholesale: its members charge
        from the per-scheduler profile sums — which patch() keeps
        current — and its idle cycle is owed to ``on_idle_span``.
        """
        engine = self.engine
        state = self.state
        counters = engine.counters
        recorder = engine.recorder
        provider = engine.provider
        can_accept = provider.can_accept
        insert = provider.insert
        derive = self._derive_outcome
        cycle = state.cycle
        issue_width = self._issue_width
        slots = profile.slots
        index = profile.index
        dirty = state.issue_dirty
        collector_ids = profile.collector_ids
        schedulers = engine.schedulers
        consulted = self._consulted
        issued_any = False
        # Owed cycles charge the sums as they stood; this cycle is
        # charged warp by warp below.
        if self._charged_through < cycle - 1:
            self.settle(cycle - 1)
        self._charged_through = cycle
        for sched_idx in self._all_scheds:
            if live.isdisjoint(self._member_sets[sched_idx]):
                # No live warp: the scheduler stalls wholesale.
                counters.issue_stalls_scoreboard += (
                    profile.sched_sb[sched_idx])
                counters.issue_stalls_collector += (
                    profile.sched_col[sched_idx])
                if recorder is not None:
                    start, end = profile.bounds[sched_idx]
                    _emit_stalls(recorder, cycle, slots[start:end])
                continue
            scheduler = schedulers[sched_idx]
            owed = cycle - 1 - consulted[sched_idx]
            if owed:
                # Owed all-stall cycles land before candidate_order is
                # consulted (greedy reset, LRR pointer advance).
                scheduler.on_idle_span(owed)
            consulted[sched_idx] = cycle
            budget = issue_width
            note_stall = scheduler.note_stall
            for warp_id in scheduler.candidate_order():
                if budget == 0:
                    break
                if warp_id not in settled and (
                    warp_id in live
                    or (warp_id in collector_ids and can_accept(warp_id))
                ):
                    # A live check: found issuable just now, or
                    # collector-stalled with room freed mid-walk.
                    live.discard(warp_id)
                    slot = slots[index[warp_id]]
                    warp = slot[0]
                    issued_here = 0
                    fresh_charge = None
                    while budget > 0:
                        outcome = derive(warp, can_accept)
                        if outcome is not _ISSUABLE:
                            fresh_charge = outcome
                            if outcome is not None:
                                if outcome[1] == "scoreboard":
                                    counters.issue_stalls_scoreboard += 1
                                else:
                                    counters.issue_stalls_collector += 1
                                if recorder is not None:
                                    recorder.emit(
                                        cycle, EventKind.ISSUE_STALL,
                                        warp=warp_id, reason=outcome[1],
                                        trace_index=outcome[2],
                                        opcode=outcome[3],
                                    )
                            break
                        pc = warp.pc
                        dec = warp.decoded[pc]
                        entry = InflightInstruction(warp_id, pc, dec.inst,
                                                    cycle, dec=dec)
                        if dec.rf_dest_id is not None:
                            warp.sb_pending.add(dec.rf_dest_id)
                        if dec.pred_dest_id is not None:
                            warp.sb_preds.add(dec.pred_dest_id)
                        sb_reads = warp.sb_reads
                        for reg_id in dec.source_ids:
                            sb_reads[reg_id] = sb_reads.get(reg_id, 0) + 1
                        if dec.guard_id is not None:
                            sb_pred_reads = warp.sb_pred_reads
                            sb_pred_reads[dec.guard_id] = (
                                sb_pred_reads.get(dec.guard_id, 0) + 1)
                        insert(entry)
                        state.occupancy_gen += 1
                        if dec.is_memory:
                            state.undispatched_mem.setdefault(
                                warp_id, set()
                            ).add(pc)
                        warp.pc = pc + 1
                        if pc + 1 == warp.end:
                            state.active_warps -= 1
                        state.in_flight += 1
                        counters.issued += 1
                        if recorder is not None:
                            recorder.emit(
                                cycle, EventKind.ISSUE, warp=warp_id,
                                trace_index=pc, opcode=dec.opcode_name,
                            )
                        if dec.is_control:
                            warp.control_pending = True
                        issued_here += 1
                        budget -= 1
                        issued_any = True
                    if issued_here:
                        scheduler.note_issue(warp_id)
                    else:
                        note_stall(warp_id)
                    if fresh_charge is not None or (
                        warp.pc >= warp.end or warp.control_pending
                    ):
                        # The while loop ended on a definite outcome
                        # (a stall, drained, or a pending branch) —
                        # record it so the next cycle starts current
                        # (most full-walk cycles repeat the last one).
                        if slot[1] != fresh_charge:
                            profile.patch(warp_id, fresh_charge)
                    else:
                        # Budget ran out mid-warp: its next outcome is
                        # unknown, re-derive it next cycle.
                        profile.patch(warp_id, None)
                        dirty.append(warp_id)
                    continue
                # Charge the profiled outcome: just re-derived against
                # this cycle's state (settled), collector-stalled with
                # the provider still full (not dirty, so the scoreboard
                # half of the outcome is current), or provably unmoved.
                note_stall(warp_id)
                charge = slots[index[warp_id]][1]
                if charge is None:
                    continue
                if charge[1] == "scoreboard":
                    counters.issue_stalls_scoreboard += 1
                else:
                    counters.issue_stalls_collector += 1
                if recorder is not None:
                    recorder.emit(
                        cycle, EventKind.ISSUE_STALL, warp=charge[0],
                        reason=charge[1], trace_index=charge[2],
                        opcode=charge[3],
                    )
        if live:
            # Issuable warps the walk never reached (an earlier warp
            # consumed their scheduler's budget): their profile slots
            # are stale and their dirty marks were consumed above, so
            # re-mark them for the next cycle.
            dirty.extend(live)
        # The walk issued (the warp that triggered it is reached with
        # budget in hand unless an earlier warp issued first), so the
        # provider occupancy moved; leaving occupancy_gen stale makes
        # the next cycle re-derive the collector-stalled warps.
        return issued_any

    def run(self) -> bool:
        profile = self._profile
        if not self._full_walk:
            issued = self._run_profile(profile)
        else:
            # The full walk checks every warp against live state, so the
            # pending dirty marks are consumed up front.
            self.state.issue_dirty.clear()
            issued = self._sparse_walk(profile, set(), set(self._all_ids))
            if issued or not self._replay_ok:
                return issued
            # A fruitless full walk visited every warp (no budget was
            # consumed), so the profile is now complete and current.
            self._full_walk = False
            profile.occupancy_gen = self.state.occupancy_gen
        if self._may_skip:
            # Only an occupancy move can change a collector-stalled
            # warp's outcome without marking it dirty.
            self.skip_through_gen = (
                profile.occupancy_gen if profile.collector_ids
                else _UNBOUNDED
            )
        return issued
