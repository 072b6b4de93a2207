"""Warp schedulers: greedy-then-oldest (GTO) and loose round-robin (LRR).

The SM has several schedulers (four on Pascal, Table II), each owning
the warps whose id is congruent to the scheduler index.  Every cycle a
scheduler proposes an ordering of its ready warps; the issue stage walks
that order and issues up to ``issue_width`` instructions.

GTO keeps issuing from the warp it issued from last (the *greedy* warp)
and falls back to the oldest warp when the greedy one stalls — the
policy in the paper's Table II.  LRR rotates a fair pointer and is
provided for the scheduler-sensitivity ablation.
"""

from __future__ import annotations

from typing import List, Sequence

from ..config import SchedulerPolicy
from ..errors import SimulationError


class WarpSchedulerBase:
    """Shared bookkeeping: which warps this scheduler owns."""

    #: True when :meth:`idle_span_limit` can return something other
    #: than ``None`` over the scheduler's lifetime, so the engine's
    #: fast-forward horizon must consult it every idle cycle.  Static
    #: unlimited schedulers (GTO, LRR, an undersubscribed two-level)
    #: keep False and are skipped entirely.
    dynamic_idle_limit = False

    def __init__(self, scheduler_id: int, warp_ids: Sequence[int]):
        if not warp_ids:
            raise SimulationError(f"scheduler {scheduler_id} owns no warps")
        self.scheduler_id = scheduler_id
        self.warp_ids = list(warp_ids)

    def candidate_order(self) -> List[int]:
        """Warp ids in this cycle's issue-priority order."""
        raise NotImplementedError

    def note_issue(self, warp_id: int) -> None:
        """Record that ``warp_id`` issued this cycle."""

    def note_stall(self, warp_id: int) -> None:
        """Record that ``warp_id`` could not issue when tried."""

    # -- event-horizon fast-forward hooks -------------------------------
    #
    # During a provably idle span the engine charges stalls in bulk
    # instead of ticking every cycle; these hooks let it replay the
    # scheduler's per-cycle behaviour without calling candidate_order
    # (which may mutate rotation state) once per skipped cycle.

    def idle_span_limit(self) -> int | None:
        """Max skippable idle cycles, or ``None`` for unlimited.

        Return 0 when consecutive stalls change future scheduling
        decisions in ways a bulk update cannot replay (e.g. two-level
        demotion), forcing the engine back to per-cycle stepping.
        """
        return None

    def on_idle_span(self, span: int) -> None:
        """Replay the effect of ``span`` all-stall cycles in bulk."""


class GTOScheduler(WarpSchedulerBase):
    """Greedy-then-oldest.

    Oldest is approximated by warp id, which matches GPGPU-Sim's GTO for
    kernels where all warps start together (our launches do).
    """

    def __init__(self, scheduler_id: int, warp_ids: Sequence[int]):
        super().__init__(scheduler_id, warp_ids)
        self._greedy: int | None = None
        self._oldest_first = sorted(self.warp_ids)
        self._members = frozenset(self.warp_ids)

    def candidate_order(self) -> List[int]:
        greedy = self._greedy
        if greedy is None or greedy not in self._members:
            return self._oldest_first
        return [greedy] + [w for w in self._oldest_first if w != greedy]

    def note_issue(self, warp_id: int) -> None:
        self._greedy = warp_id

    def note_stall(self, warp_id: int) -> None:
        if warp_id == self._greedy:
            self._greedy = None

    def on_idle_span(self, span: int) -> None:
        # Every owned warp stalls each idle cycle, so the greedy warp
        # (if any) was noted stalled and cleared.
        self._greedy = None


class TwoLevelScheduler(WarpSchedulerBase):
    """Two-level scheduling (Gebhart et al.).

    Only a small *active set* of warps competes for issue; a warp that
    stalls repeatedly (typically on a long-latency load) is demoted to
    the pending queue and the oldest pending warp takes its slot.  The
    original motivation is a smaller register working set — the same
    observation the RFC design builds on.
    """

    #: Consecutive stalls before a warp is swapped out.
    DEMOTE_AFTER = 2

    def __init__(self, scheduler_id: int, warp_ids: Sequence[int],
                 active_size: int = 4):
        super().__init__(scheduler_id, warp_ids)
        if active_size < 1:
            raise SimulationError(
                f"active_size must be >= 1, got {active_size}"
            )
        ordered = sorted(warp_ids)
        self.active: List[int] = ordered[:active_size]
        self.pending: List[int] = ordered[active_size:]
        # The pending queue's *size* is invariant (note_stall swaps one
        # for one), so whether idle_span_limit can ever bite is fixed.
        self.dynamic_idle_limit = bool(self.pending)
        self._stalls: dict = {}

    def candidate_order(self) -> List[int]:
        return list(self.active)

    def note_issue(self, warp_id: int) -> None:
        self._stalls[warp_id] = 0
        # Issuing warp moves to the front (greedy within the active set).
        if warp_id in self.active:
            self.active.remove(warp_id)
            self.active.insert(0, warp_id)

    def note_stall(self, warp_id: int) -> None:
        if warp_id not in self.active or not self.pending:
            return
        self._stalls[warp_id] = self._stalls.get(warp_id, 0) + 1
        if self._stalls[warp_id] >= self.DEMOTE_AFTER:
            self._stalls[warp_id] = 0
            self.active.remove(warp_id)
            self.pending.append(warp_id)
            self.active.append(self.pending.pop(0))

    def idle_span_limit(self) -> int | None:
        # With warps waiting to be promoted, each stalled cycle moves
        # the demotion counters and may reshuffle the active set —
        # per-cycle stepping is the only faithful replay.  Once the
        # pending queue is empty note_stall is a no-op (see above) and
        # idle spans may be skipped freely.
        return 0 if self.pending else None


class LRRScheduler(WarpSchedulerBase):
    """Loose round-robin: rotate priority one warp per cycle."""

    def __init__(self, scheduler_id: int, warp_ids: Sequence[int]):
        super().__init__(scheduler_id, warp_ids)
        self._pointer = 0
        self._ordered = sorted(self.warp_ids)

    def candidate_order(self) -> List[int]:
        ordered = self._ordered
        pivot = self._pointer % len(ordered)
        self._pointer += 1
        return ordered[pivot:] + ordered[:pivot]

    def on_idle_span(self, span: int) -> None:
        # candidate_order advances the pointer once per cycle whether
        # or not anything issues; replay the skipped rotations.
        self._pointer += span


def make_scheduler(policy: SchedulerPolicy, scheduler_id: int,
                   warp_ids: Sequence[int],
                   active_size: int = 4) -> WarpSchedulerBase:
    """Factory keyed by the configured policy."""
    if policy is SchedulerPolicy.GTO:
        return GTOScheduler(scheduler_id, warp_ids)
    if policy is SchedulerPolicy.LRR:
        return LRRScheduler(scheduler_id, warp_ids)
    if policy is SchedulerPolicy.TWO_LEVEL:
        return TwoLevelScheduler(scheduler_id, warp_ids,
                                 active_size=active_size)
    raise SimulationError(f"unknown scheduler policy {policy!r}")
