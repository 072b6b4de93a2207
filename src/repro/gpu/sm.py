"""The cycle-level SM engine.

One :class:`SMEngine` simulates a single streaming multiprocessor
running a :class:`~repro.kernels.trace.KernelTrace`.  The engine is a
thin conductor: each cycle it runs four explicit pipeline stages
(:mod:`repro.gpu.stages`) back-to-front so results never skip a stage —
complete, banks (writeback + operand reads), dispatch (+ execute), and
issue.  All mutable pipeline state lives in one shared
:class:`~repro.gpu.stages.EngineState`; static per-instruction facts
are precomputed once per trace by the decode cache
(:mod:`repro.gpu.decode`).

Operand movement is delegated to an
:class:`~repro.gpu.collector.OperandProvider` — the one pluggable
surface that distinguishes the simulated designs (baseline OCUs, BOW
collectors, RFC).  The engine also executes instruction *semantics*
(functional layer): operand values travel through collectors and
forwarding paths exactly as the hardware would move them, and tests
compare final memory/register images across designs to prove bypassing
preserves results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import GPUConfig
from ..errors import DeadlockError, SimulationError
from ..kernels.trace import KernelTrace
from ..stats.counters import Counters
from ..stats.trace import EventKind
from .banks import BankArbiter
from .collector import BaselineCollectorPool, InflightInstruction, OperandProvider
from .decode import DecodedOp, decode_warp_cached
from .execution import ExecutionUnits
from .memory import CacheMix, MemoryModel
from .regfile import BankedRegisterFile
from .scheduler import make_scheduler
from .scoreboard import Scoreboard
from .stages import (
    BankStage,
    CompleteStage,
    DispatchStage,
    EngineState,
    IssueStage,
    QueuedWrite,
)

#: Cycles without any progress before the engine declares a deadlock.
_DEADLOCK_LIMIT = 20_000


class _WarpState:
    """Issue-side state of one warp.

    Besides the program counter, a warp caches direct references to its
    decode records and its scoreboard views (the *same* set/dict objects
    the :class:`~repro.gpu.scoreboard.Scoreboard` owns), so the issue
    stage checks hazards without per-cycle lookups.

    ``blocker`` is what the issue stage last found blocking the warp:
    the register of a scoreboard stall, ``~p`` for a predicate ``p``,
    or ``None`` (any other outcome).  Releases and dispatches wake the
    warp only when they clear it (see
    :class:`~repro.gpu.stages.IssueStage`).
    """

    __slots__ = ("warp_id", "pc", "control_pending", "end",
                 "decoded", "sb_pending", "sb_reads", "sb_preds",
                 "sb_pred_reads", "blocker")

    def __init__(self, warp_id: int, decoded: List[DecodedOp]):
        self.warp_id = warp_id
        self.pc = 0
        self.control_pending = False
        self.end = len(decoded)
        self.decoded = decoded
        self.sb_pending: set = set()
        self.sb_reads: dict = {}
        self.sb_preds: set = set()
        self.sb_pred_reads: dict = {}
        self.blocker: Optional[int] = None


@dataclass
class SimulationResult:
    """Everything a run produces."""

    counters: Counters
    register_image: Dict[Tuple[int, int], int]
    memory_image: Dict[int, int]

    @property
    def ipc(self) -> float:
        return self.counters.ipc


class SMEngine:
    """Cycle-level simulator of one SM over a kernel trace."""

    def __init__(
        self,
        trace: KernelTrace,
        config: Optional[GPUConfig] = None,
        provider_factory=None,
        memory_seed: int = 0,
        timeline=None,
        preload: Optional[Dict[int, int]] = None,
        recorder=None,
        fast_forward: bool = True,
    ):
        self.config = config or GPUConfig()
        #: ``False`` runs the reference loop: every stage every cycle,
        #: the full issue walk every cycle, and no idle-span jumps.
        self.fast_forward = bool(fast_forward)
        if trace.num_warps > self.config.max_warps_per_sm:
            raise SimulationError(
                f"{trace.num_warps} warps exceed the SM limit "
                f"{self.config.max_warps_per_sm}"
            )
        self.trace = trace
        self.counters = Counters()
        self.regfile = BankedRegisterFile(self.config)
        self.memory = MemoryModel(
            self.config, seed=memory_seed,
            mix=CacheMix(l1_hit=self.config.mem_l1_hit_rate,
                         l2_hit=self.config.mem_l2_hit_rate),
        )
        if preload:
            # Launch-time input data (absolute addresses; use
            # MemoryModel.thread_address to target a warp's window).
            for address, value in preload.items():
                self.memory.store(address, value)
        self.arbiter = BankArbiter(self.config.num_banks)
        self.units = ExecutionUnits(self.config)
        self.scoreboard = Scoreboard(max(1, trace.num_warps))

        self.warps = [
            _WarpState(warp.warp_id,
                       decode_warp_cached(trace, warp.warp_id,
                                          warp.instructions, self.config))
            for warp in trace
        ]
        self.warps.sort(key=lambda w: w.warp_id)
        self._warp_by_id: Dict[int, _WarpState] = {}
        for warp in self.warps:
            (warp.sb_pending, warp.sb_reads, warp.sb_preds,
             warp.sb_pred_reads) = (
                self.scoreboard.warp_views(warp.warp_id)
            )
            self._warp_by_id[warp.warp_id] = warp

        self.state = EngineState()
        self.state.active_warps = sum(1 for warp in self.warps if warp.end)

        # Warp-uniform predicate file (the lane-accurate version lives in
        # repro.simt): (warp_id, predicate_id) -> bool.
        self.predicates: Dict[Tuple[int, int], bool] = {}
        # Optional per-interval sampler (see repro.stats.timeline).
        self.timeline = timeline
        # Optional cycle-level event recorder (see repro.stats.trace).
        # Every emit site is guarded by one `is not None` check so the
        # untraced hot path does no tracing work at all.
        self.recorder = recorder

        factory = provider_factory or (
            lambda engine: BaselineCollectorPool(
                engine, engine.config.num_operand_collectors
            )
        )
        self.provider: OperandProvider = factory(self)

        self.schedulers = self._build_schedulers()
        self.stages = (
            CompleteStage(self),
            BankStage(self),
            DispatchStage(self),
            IssueStage(self),
        )
        # The fast loop reads the issue stage's skip bound, run()
        # settles its stall charges, and the fast-forward jump has it
        # emit the skipped cycles' stall events.
        self._issue_stage = self.stages[3]
        # Horizon shortcut: only schedulers whose idle_span_limit can
        # ever bite are consulted per idle cycle.
        self._limit_schedulers = [
            scheduler for scheduler in self.schedulers
            if scheduler.dynamic_idle_limit
        ]

    @property
    def cycle(self) -> int:
        """Current simulated cycle (lives in the shared EngineState)."""
        return self.state.cycle

    @cycle.setter
    def cycle(self, value: int) -> None:
        self.state.cycle = value

    def warp_state(self, warp_id: int) -> _WarpState:
        """The issue-side state of ``warp_id``."""
        try:
            return self._warp_by_id[warp_id]
        except KeyError:
            raise SimulationError(f"unknown warp id {warp_id}") from None

    def _build_schedulers(self):
        groups: Dict[int, List[int]] = {}
        for warp in self.warps:
            groups.setdefault(
                warp.warp_id % self.config.num_schedulers, []
            ).append(warp.warp_id)
        return [
            make_scheduler(self.config.scheduler_policy, sched_id, warp_ids,
                           active_size=self.config.two_level_active_warps)
            for sched_id, warp_ids in sorted(groups.items())
        ]

    # ------------------------------------------------------------------
    # services used by providers
    # ------------------------------------------------------------------

    def enqueue_rf_write(
        self,
        entry: Optional[InflightInstruction],
        value: int,
        warp_id: Optional[int] = None,
        register_id: Optional[int] = None,
        release_on_grant: bool = False,
    ) -> None:
        """Queue a physical RF write.

        The value becomes architecturally visible immediately (a read
        racing the queued write would be served by write-buffer
        forwarding in hardware); the queue entry models only the bank
        port the write will consume.
        """
        bank = None
        if entry is not None:
            warp_id = entry.warp_id
            dec = entry.dec
            if dec is not None:
                register_id = dec.rf_dest_id
                bank = dec.dest_bank
            else:
                register_id = entry.inst.dest.id  # type: ignore[union-attr]
        if warp_id is None or register_id is None:
            raise SimulationError("enqueue_rf_write needs a target register")
        if bank is None:
            bank = self.regfile.bank_of(warp_id, register_id)
        self.regfile.poke(warp_id, register_id, value)
        state = self.state
        state.write_age += 1
        queued = QueuedWrite(
            warp_id=warp_id,
            register_id=register_id,
            value=value,
            age=state.write_age,
            bank=bank,
            entry=entry if release_on_grant else None,
            release_on_grant=release_on_grant,
        )
        state.write_queue.append(queued)
        state.write_requests.append(queued.request)

    def release_scoreboard(self, entry: InflightInstruction) -> None:
        """Release ``entry``'s destination and retire the instruction.

        The destinations come from the entry's decode record; an entry
        built by hand without one is decoded here from its instruction.
        """
        warp_id = entry.warp_id
        warp = self.warp_state(warp_id)
        dec = entry.dec
        if dec is None:
            dec = DecodedOp(warp_id, entry.inst, self.config)
        # Releasing shrinks this warp's scoreboard views (and may clear
        # its pending branch).  A warp stalled on one scoreboard blocker
        # keeps its cached outcome until that blocker is the one freed;
        # a pending branch leaves no blocker, so it always wakes.
        blocker = warp.blocker
        wake = blocker is None
        dest_id = dec.rf_dest_id
        if dest_id is not None:
            warp.sb_pending.discard(dest_id)
            if dest_id == blocker:
                wake = True
        pred_dest_id = dec.pred_dest_id
        if pred_dest_id is not None:
            warp.sb_preds.discard(pred_dest_id)
            if ~pred_dest_id == blocker:
                wake = True
        if wake:
            self.state.issue_dirty.append(warp_id)
        if dec.is_control:
            warp.control_pending = False
        self._retire(entry, dec)

    def _retire(self, entry: InflightInstruction, dec: DecodedOp) -> None:
        state = self.state
        state.in_flight -= 1
        counters = self.counters
        counters.instructions += 1
        if self.recorder is not None:
            self.recorder.emit(
                state.cycle, EventKind.COMMIT, warp=entry.warp_id,
                trace_index=entry.trace_index, opcode=dec.opcode_name,
            )
        is_memory = dec.is_memory
        if is_memory:
            counters.mem_instructions += 1
        if entry.dispatch_cycle is not None:
            wait = entry.dispatch_cycle - entry.issue_cycle
            lifetime = state.cycle - entry.issue_cycle
            counters.oc_wait_cycles += wait
            counters.lifetime_cycles += lifetime
            if is_memory:
                counters.oc_wait_cycles_memory += wait
                counters.lifetime_cycles_memory += lifetime

    # ------------------------------------------------------------------
    # the cycle loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 5_000_000) -> SimulationResult:
        """Simulate until every warp drains (or raise on deadlock).

        ``fast_forward`` picks one of two loop shapes.  The fast loop
        skips every stage call the provider contract (see
        :class:`~repro.gpu.collector.OperandProvider`) proves idle from
        O(1) peeks, and jumps provably idle spans in bulk.  Each guard
        is exact about *progress* — a skipped stage is one that would
        have returned False — so counters, events, and state match the
        reference loop, which runs every stage every cycle.  The issue
        stage's stall charges are integrated lazily
        (:meth:`~repro.gpu.stages.IssueStage.settle`); they are brought
        current here whether the loop finishes or raises.
        """
        counters = self.counters
        try:
            self._run_cycles(max_cycles)
        finally:
            self._issue_stage.settle(counters.cycles)
        self.provider.drain()
        self._drain_write_queue()
        counters.rf_reads = self.regfile.reads
        counters.rf_writes = self.regfile.writes
        if self.timeline is not None:
            # The drain tail (provider flush + residual writes) falls
            # between sampling-grid points; emit one final sample so the
            # series always reaches the end of the run.
            self.timeline.finalize(
                counters.cycles, counters,
                self.regfile.reads, self.regfile.writes,
            )
        return SimulationResult(
            counters=counters,
            register_image=self.regfile.snapshot(),
            memory_image=self.memory.image_snapshot(),
        )

    def _run_cycles(self, max_cycles: int) -> None:
        """The cycle loop proper, up to the last pipeline event."""
        state = self.state
        counters = self.counters
        timeline = self.timeline
        fast_forward = self.fast_forward
        new_cycle = self.units.new_cycle
        provider = self.provider
        complete, banks, dispatch, issue = (
            stage.run for stage in self.stages
        )
        completion_heap = state.completion_heap
        read_heap = state.read_heap
        write_requests = state.write_requests
        inflight_tags = state.inflight_read_tags
        due_heap = provider.due_heap
        ready_list = provider.ready_entries()
        deliver_reads = self.stages[1]._deliver_due_reads
        collect = self.stages[1].collect
        units = self.units
        issue_stage = self._issue_stage
        issue_dirty = state.issue_dirty
        idle_cycles = 0
        while state.active_warps or state.in_flight or state.write_queue:
            if state.cycle >= max_cycles:
                raise DeadlockError("max_cycles exceeded", state.cycle)
            cycle = state.cycle = state.cycle + 1
            if units._any:
                new_cycle()
            if fast_forward:
                progress = (
                    complete()
                    if completion_heap and completion_heap[0] <= cycle
                    else False
                )
                if read_heap and read_heap[0] <= cycle:
                    progress |= deliver_reads(cycle)
                if (
                    write_requests
                    or provider.heads_pending > len(inflight_tags)
                    or (due_heap and due_heap[0] <= cycle)
                ):
                    progress |= collect(cycle)
                if ready_list:
                    progress |= dispatch()
                # The issue stage keeps its own skip bound (see
                # IssueStage.skip_through_gen).
                if (issue_dirty
                        or state.occupancy_gen > issue_stage.skip_through_gen):
                    progress |= issue()
            else:
                progress = complete() | banks() | dispatch() | issue()
            counters.cycles = cycle
            if timeline is not None:
                timeline.maybe_sample(
                    cycle, counters,
                    self.regfile.reads, self.regfile.writes,
                )
            if progress:
                idle_cycles = 0
            else:
                idle_cycles += 1
                if idle_cycles > _DEADLOCK_LIMIT:
                    raise DeadlockError("no forward progress", state.cycle)
                if fast_forward:
                    span = self._fast_forward_span(idle_cycles, max_cycles)
                    if span > 0:
                        idle_cycles += self._apply_fast_forward(span)

    # ------------------------------------------------------------------
    # event-horizon fast-forward
    # ------------------------------------------------------------------

    def _fast_forward_span(self, idle_cycles: int, max_cycles: int) -> int:
        """How many provably idle cycles follow the current one.

        The horizon is the earliest future cycle at which *anything*
        could change: the next scheduled completion, the next bank/
        crossbar read delivery, the provider's next internal event
        (e.g. an RFC hit delivery), a scheduler whose bulk behaviour is
        not derivable (two-level demotion), or the deadlock /
        ``max_cycles`` boundaries — those last cycles must be simulated
        (or reached) per-cycle so the raise fires with the reference
        cycle number.  Every cycle strictly before the horizon is idle
        by construction, so the loop may jump to ``horizon - 1`` and
        charge the span in bulk.
        """
        state = self.state
        cycle = state.cycle
        # Jumping *to* max_cycles is fine: the loop-top check then
        # raises with the same cycle stamp as the per-cycle path.
        horizon = min(
            max_cycles + 1,
            cycle + (_DEADLOCK_LIMIT - idle_cycles) + 1,
        )
        # The stages drain every due heap head when it falls due, so at
        # this point (after the cycle's stages ran) a bare peek is the
        # exact earliest future event — no stale-head sweep needed.
        heap = state.completion_heap
        if heap and heap[0] < horizon:
            horizon = heap[0]
        heap = state.read_heap
        if heap and heap[0] < horizon:
            horizon = heap[0]
        heap = self.provider.due_heap
        if heap and heap[0] < horizon:
            horizon = heap[0]
        for scheduler in self._limit_schedulers:
            limit = scheduler.idle_span_limit()
            if limit is not None and cycle + 1 + limit < horizon:
                horizon = cycle + 1 + limit
        return horizon - 1 - cycle

    def _apply_fast_forward(self, span: int) -> int:
        """Charge ``span`` skipped idle cycles in bulk; returns the span.

        Replays exactly what the per-cycle loop would have recorded for
        each skipped cycle: dispatch-rotor advance when ready entries
        exist, exec-busy stalls for ready-but-undispatchable entries,
        one (coalesced, ``count=span``) ISSUE_STALL event per stalled
        warp when a recorder is attached, and the owed timeline samples.
        The issue stage's stall charges and the schedulers' bulk-idle
        hooks need nothing here: the skipped cycles simply stay owed
        (``IssueStage.settle`` and the per-scheduler owed spans).

        The issue profile is the stall log of the idle cycle being
        extended: issue-relevant state only changes at an issue, a
        dispatch, or a scoreboard release, all of which make their
        cycle a progress cycle — so across a provably idle span the
        per-cycle walk would re-derive exactly those charges.  The
        dispatch side is re-derived here instead,
        because a provider-internal delivery (e.g. an RFC cache hit)
        can make an entry ready without counting as progress; if any
        ready entry could actually dispatch, the jump is aborted and
        the caller falls back to per-cycle stepping — a bulk charge
        must never guess.
        """
        state = self.state
        provider = self.provider
        recorder = self.recorder
        counters = self.counters
        ready = provider.ready_entries()
        blocked = []
        if ready:
            undispatched_mem = state.undispatched_mem
            can_dispatch = self.units.can_dispatch_bucket
            for entry in ready:
                dec = entry.dec
                if dec.is_memory:
                    pending = undispatched_mem.get(entry.warp_id)
                    if pending and min(pending) != entry.trace_index:
                        continue
                if can_dispatch(dec.bucket):
                    return 0
                blocked.append(entry)

        start = state.cycle
        state.cycle += span
        counters.cycles = state.cycle
        counters.fast_forwarded_cycles += span
        stamp = start + 1  # coalesced events carry the first skipped cycle
        if recorder is not None:
            self._issue_stage.emit_stalls(stamp, span)
        for entry in blocked:
            counters.exec_busy_stalls += span
            if recorder is not None:
                recorder.emit(
                    stamp, EventKind.DISPATCH_STALL, warp=entry.warp_id,
                    reason="exec_busy", trace_index=entry.trace_index,
                    opcode=entry.dec.opcode_name, count=span,
                )
        if ready:
            state.dispatch_rotor += span
        if self.timeline is not None:
            self.timeline.advance(
                start, state.cycle, counters,
                self.regfile.reads, self.regfile.writes,
            )
        return span

    def _drain_write_queue(self) -> None:
        """Flush writes left after the last instruction retires."""
        for queued in self.state.write_queue:
            self.regfile.write(queued.warp_id, queued.register_id, queued.value)
            self.counters.cycles += 1  # each residual write costs a port cycle
            if self.recorder is not None:
                self.recorder.emit(
                    self.counters.cycles, EventKind.WRITEBACK,
                    warp=queued.warp_id, reason="drain",
                    register=queued.register_id,
                )
        self.state.write_queue.clear()
        self.state.write_requests.clear()


def simulate_baseline(
    trace: KernelTrace,
    config: Optional[GPUConfig] = None,
    memory_seed: int = 0,
    preload: Optional[Dict[int, int]] = None,
    recorder=None,
    fast_forward: bool = True,
) -> SimulationResult:
    """Run the unmodified-GPU configuration over ``trace``."""
    engine = SMEngine(trace, config=config, memory_seed=memory_seed,
                      preload=preload, recorder=recorder,
                      fast_forward=fast_forward)
    return engine.run()
