"""The engine's golden points: counters, images and events pinned.

``tests/data/engine_golden.json`` records, for each point below, what
one fast-loop run produces:

* the full ``Counters`` dict;
* sha256 digests of the sorted register and memory images;
* the recorder's ``counts`` / ``reason_counts`` / ``warp_counts``;
* a sha256 digest of the event stream with the events of each cycle
  sorted, so only the order of same-cycle events is free to change.

The points are the differential oracle's (NW/BFS/SAD x every design,
shared through the ``oracle_runs`` fixture) plus SAD at 8 warps for
``baseline``/``bow``/``bow-wr`` under the LRR and two-level schedulers.
The two-level points shrink the active set to one warp so the pending
queue is never empty and the issue stage walks every warp every cycle.

A simplification of the engine must leave this file passing unchanged.
Regenerate it only for an intentional model change::

    PYTHONPATH=src:. python tests/observe/test_engine_golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest
from tests.conftest import SEED, small_spec
from tests.observe.conftest import (
    ALL_DESIGNS,
    CAPACITY,
    HINTED_DESIGNS,
    ORACLE_BENCHMARKS,
    WINDOW,
)

from repro.config import GPUConfig, SchedulerPolicy
from repro.core.bow_sm import simulate_design
from repro.kernels.synthetic import generate_compiled_trace, generate_trace
from repro.stats.trace import TraceRecorder

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "engine_golden.json"

#: (benchmark, design, scheduler policy, warps) of every pinned point.
ORACLE_POINTS = [
    (bench, design, "gto", 4)
    for bench in ORACLE_BENCHMARKS
    for design in ALL_DESIGNS
]
SCHEDULER_POINTS = [
    ("SAD", design, policy, 8)
    for policy in ("two-level", "lrr")
    for design in ("baseline", "bow", "bow-wr")
]


def point_id(bench, design, policy, warps) -> str:
    return f"{bench}/{design}/{policy}/{warps}w"


def _digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _event_row(event) -> list:
    return [event.cycle, event.kind.value, event.warp, event.reason,
            event.register, event.bank, event.trace_index, event.opcode,
            event.count]


def _sort_key(row) -> str:
    return json.dumps(row)


def event_digest(recorder) -> str:
    """Digest of the event stream, each cycle's events sorted."""
    rows = []
    for _cycle, group in itertools.groupby(recorder.events,
                                           key=lambda e: e.cycle):
        rows.extend(sorted((_event_row(e) for e in group), key=_sort_key))
    return _digest(rows)


def summarize(result, recorder) -> dict:
    """The pinned record of one traced run."""
    assert recorder.dropped == 0, "recorder ring too small for the point"
    return {
        "counters": result.counters.as_dict(),
        "registers": _digest(sorted(
            [warp, reg, value]
            for (warp, reg), value in result.register_image.items())),
        "memory": _digest(sorted(
            [address, value]
            for address, value in result.memory_image.items())),
        "counts": {kind.value: total
                   for kind, total in recorder.counts.items()},
        "reason_counts": {f"{kind.value}/{reason}": total
                          for (kind, reason), total
                          in recorder.reason_counts.items()},
        "warp_counts": {f"{kind.value}/{warp}": total
                        for (kind, warp), total
                        in recorder.warp_counts.items()},
        "events": event_digest(recorder),
    }


def run_point(bench, design, policy, warps) -> dict:
    """Simulate one scheduler point (the oracle points come traced
    from the shared ``oracle_runs`` fixture instead)."""
    spec = small_spec(bench, warps=warps, iterations=4)
    if design in HINTED_DESIGNS:
        trace = generate_compiled_trace(spec, window_size=WINDOW)
    else:
        trace = generate_trace(spec)
    config = GPUConfig(scheduler_policy=SchedulerPolicy(policy))
    if config.scheduler_policy is SchedulerPolicy.TWO_LEVEL:
        config = replace(config, two_level_active_warps=1)
    recorder = TraceRecorder(capacity=CAPACITY)
    result = simulate_design(design, trace, window_size=WINDOW,
                             config=config, memory_seed=SEED,
                             recorder=recorder)
    return summarize(result, recorder)


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["points"]


def test_golden_covers_every_point():
    expected = {point_id(*point)
                for point in ORACLE_POINTS + SCHEDULER_POINTS}
    assert set(_load_golden()) == expected


@pytest.mark.parametrize("point", ORACLE_POINTS,
                         ids=[point_id(*p) for p in ORACLE_POINTS])
def test_oracle_point_matches_golden(oracle_runs, point):
    bench, design, _, _ = point
    run = oracle_runs[(bench, design)]
    assert summarize(run.traced, run.recorder) == (
        _load_golden()[point_id(*point)])


@pytest.mark.parametrize("point", SCHEDULER_POINTS,
                         ids=[point_id(*p) for p in SCHEDULER_POINTS])
def test_scheduler_point_matches_golden(point):
    assert run_point(*point) == _load_golden()[point_id(*point)]


def _regenerate() -> None:
    from tests.observe.conftest import _run_point

    points = {}
    for point in ORACLE_POINTS:
        run = _run_point(point[0], point[1])
        points[point_id(*point)] = summarize(run.traced, run.recorder)
    for point in SCHEDULER_POINTS:
        points[point_id(*point)] = run_point(*point)
    GOLDEN_PATH.write_text(
        json.dumps({"points": points}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
