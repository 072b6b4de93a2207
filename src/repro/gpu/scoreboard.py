"""Per-warp scoreboard: RAW/WAW hazard tracking at issue.

The paper relies on the scoreboard to guarantee that two dependent
instructions are never simultaneously resident in an operand collector
(SS IV-A): an instruction only issues once every register it reads or
writes has no pending producer.  This is the standard GPU in-order-issue
scoreboard.

This module holds the per-warp hazard state only.  The engine reads and
updates it through :meth:`Scoreboard.warp_views`; the hazard check
itself is ``IssueStage._derive_outcome`` in :mod:`repro.gpu.stages`.
"""

from __future__ import annotations

from typing import Dict, Set

from ..errors import SimulationError


class Scoreboard:
    """Pending destination registers per warp.

    Warp ids need not be dense (launches may occupy arbitrary slots);
    state is created on first touch.
    """

    def __init__(self, num_warps: int):
        if num_warps < 1:
            raise SimulationError(f"num_warps must be >= 1, got {num_warps}")
        self._pending: Dict[int, Set[int]] = {w: set() for w in range(num_warps)}
        # Registers with in-flight *readers* (issued, operands not yet
        # collected), reference-counted: a writer must not overtake them
        # (WAR through the register file).
        self._pending_reads: Dict[int, Dict[int, int]] = {}
        # Predicate registers with in-flight producers (set.* compares):
        # a guarded instruction must wait for its guard.
        self._pending_preds: Dict[int, Set[int]] = {}
        # Predicate registers with in-flight *guard readers* (issued,
        # guard not yet sampled at dispatch), reference-counted: a
        # predicate writer must not overtake them (predicate WAR — the
        # exact analog of ``_pending_reads`` for the predicate file).
        self._pending_pred_reads: Dict[int, Dict[int, int]] = {}

    def _warp(self, warp_id: int) -> Set[int]:
        if warp_id not in self._pending:
            self._pending[warp_id] = set()
        return self._pending[warp_id]

    def _warp_reads(self, warp_id: int) -> Dict[int, int]:
        if warp_id not in self._pending_reads:
            self._pending_reads[warp_id] = {}
        return self._pending_reads[warp_id]

    def _warp_preds(self, warp_id: int) -> Set[int]:
        if warp_id not in self._pending_preds:
            self._pending_preds[warp_id] = set()
        return self._pending_preds[warp_id]

    def _warp_pred_reads(self, warp_id: int) -> Dict[int, int]:
        if warp_id not in self._pending_pred_reads:
            self._pending_pred_reads[warp_id] = {}
        return self._pending_pred_reads[warp_id]

    def warp_views(self, warp_id: int):
        """Direct references to ``warp_id``'s hazard state.

        Returns ``(pending_dests, pending_reads, pending_preds,
        pending_pred_reads)`` — the *live* set/dict objects the engine
        reserves at issue, releases at dispatch (reader marks) and at
        retire (destinations), and checks in
        ``IssueStage._derive_outcome``, the one hazard check.
        """
        return (
            self._warp(warp_id),
            self._warp_reads(warp_id),
            self._warp_preds(warp_id),
            self._warp_pred_reads(warp_id),
        )
