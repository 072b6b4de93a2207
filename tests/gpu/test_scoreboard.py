"""Issue-stage hazard tests, through the engine's one hazard check.

Instructions are reserved by the real issue stage and released by the
engine's retire path; the hazard verdict is
``IssueStage._derive_outcome`` over the warp's scoreboard views.
"""

import pytest

from repro.errors import SimulationError
from repro.gpu.collector import InflightInstruction
from repro.gpu.scoreboard import Scoreboard
from repro.gpu.sm import SMEngine
from repro.gpu.stages import _ISSUABLE
from repro.isa import parse_program
from repro.kernels.trace import KernelTrace, WarpTrace


def engine_for(*programs):
    """An engine running one warp per program text."""
    return SMEngine(KernelTrace(name="t", warps=[
        WarpTrace(warp_id=warp_id, instructions=parse_program(text))
        for warp_id, text in enumerate(programs)
    ]))


def issue_once(engine):
    """One issue-stage walk: every hazard-free instruction issues."""
    engine.stages[3].run()


def outcome(engine, warp_id):
    """The hazard check's verdict on the warp's next instruction."""
    return engine.stages[3]._derive_outcome(
        engine.warp_state(warp_id), engine.provider.can_accept)


def retire(engine, warp_id, pc):
    """Release an issued instruction the way the engine retires it."""
    dec = engine.warp_state(warp_id).decoded[pc]
    engine.release_scoreboard(
        InflightInstruction(warp_id, pc, dec.inst, 0, dec=dec))


def views(engine, warp_id):
    warp = engine.warp_state(warp_id)
    return warp.sb_pending, warp.sb_reads, warp.sb_preds, warp.sb_pred_reads


class TestHazards:
    def test_raw_blocks(self):
        engine = engine_for("mov.u32 $r1, 0x1\n"
                            "add.u32 $r2, $r1, $r1")
        issue_once(engine)
        assert engine.warp_state(0).pc == 1
        assert outcome(engine, 0) == (0, "scoreboard", 1, "add")
        retire(engine, 0, 0)
        assert outcome(engine, 0) is _ISSUABLE

    def test_waw_blocks(self):
        engine = engine_for("mov.u32 $r1, 0x1\n"
                            "mov.u32 $r1, 0x2")
        issue_once(engine)
        assert engine.warp_state(0).pc == 1
        assert outcome(engine, 0) == (0, "scoreboard", 1, "mov")

    def test_independent_instructions_pass(self):
        engine = engine_for("mov.u32 $r1, 0x1\n"
                            "add.u32 $r2, $r3, $r4")
        issue_once(engine)
        # The add issued behind the still-pending mov.
        assert engine.warp_state(0).pc == 2
        assert views(engine, 0)[0] == {1, 2}

    def test_warps_independent(self):
        engine = engine_for("mov.u32 $r1, 0x1",
                            "add.u32 $r2, $r1, $r1")
        issue_once(engine)
        assert 1 in views(engine, 0)[0]
        assert engine.warp_state(1).pc == 1
        assert engine.counters.issue_stalls_scoreboard == 0

    def test_store_never_blocks_on_dest(self):
        engine = engine_for("st.global.u32 [$r1], $r2")
        assert outcome(engine, 0) is _ISSUABLE
        issue_once(engine)
        assert engine.warp_state(0).pc == 1
        assert views(engine, 0)[0] == set()


class TestSinkRegister:
    def test_sink_not_tracked(self):
        engine = engine_for("set.ne.s32.s32 $p0/$o127, $r1, $r2\n"
                            "set.ne.s32.s32 $p1/$o127, $r3, $r4")
        issue_once(engine)
        # Neither compare reserves the sink, so the second has no WAW.
        assert engine.warp_state(0).pc == 2
        assert views(engine, 0)[0] == set()
        assert views(engine, 0)[2] == {0, 1}


class TestBookkeeping:
    def test_is_idle(self):
        engine = engine_for("mov.u32 $r1, 0x1",
                            "mov.u32 $r1, 0x1\n"
                            "add.u32 $r2, $r1, $r1")
        assert not any(any(views(engine, w)) for w in (0, 1))
        issue_once(engine)
        assert views(engine, 1)[0] == {1}
        engine.run()
        # A drained run leaves no pending write or reader anywhere.
        assert not any(any(views(engine, w)) for w in (0, 1))

    def test_invalid_warp_count(self):
        with pytest.raises(SimulationError):
            Scoreboard(0)
