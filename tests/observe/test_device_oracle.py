"""Device-layer differential oracle: multi-SM runs stay bit-identical.

PR 3 established the single-SM differential oracle (every design vs the
functional reference).  This module extends it to the device layer: for
every design, at least one ``num_sms > 1`` configuration must produce
exactly the same architectural outcome as the single-SM run — register
image, memory image, instruction totals, and per-warp commit streams.
Only cycle counts may differ (the device merge takes ``max`` over SMs).

The launch is split into real multi-CTA work (``warps_per_cta=2`` over 4
warps -> 2 CTAs on 2 SMs), so the partitioning, placement-invariant
memory, and counter merge all get exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import pytest
from tests.conftest import SEED
from tests.observe.conftest import ALL_DESIGNS, CAPACITY, WINDOW, OraclePoint

from repro.gpu.device import DeviceResult, simulate_device
from repro.gpu.sm import SimulationResult
from repro.stats.trace import TraceRecorder

#: The benchmark the device sweep reuses from the single-SM oracle.
BENCHMARK = "NW"
NUM_SMS = 2
WARPS_PER_CTA = 2


@dataclass(frozen=True)
class DevicePoint:
    """One design's multi-SM observation next to its single-SM twin."""

    design: str
    single: OraclePoint
    device: DeviceResult
    merged: SimulationResult


@pytest.fixture(scope="session")
def device_runs(oracle_runs) -> Dict[str, DevicePoint]:
    """Every design once at ``num_sms=2`` over the oracle benchmark."""
    points: Dict[str, DevicePoint] = {}
    for design in ALL_DESIGNS:
        single = oracle_runs[(BENCHMARK, design)]
        device = simulate_device(
            design,
            single.trace,
            num_sms=NUM_SMS,
            window_size=WINDOW,
            memory_seed=SEED,
            warps_per_cta=WARPS_PER_CTA,
            jobs=1,
            recorder_factory=lambda sm_id: TraceRecorder(capacity=CAPACITY),
        )
        points[design] = DevicePoint(
            design=design,
            single=single,
            device=device,
            merged=device.to_simulation_result(),
        )
    return points


def _device_commits(point: DevicePoint) -> Dict[int, Tuple[Tuple[int, str], ...]]:
    """Per-warp committed (trace_index, opcode) streams across all SMs."""
    streams: Dict[int, list] = {}
    for recorder in point.device.recorders.values():
        assert recorder.dropped == 0
        for event in recorder.commits():
            streams.setdefault(event.warp, []).append(
                (event.trace_index, event.opcode)
            )
    return {
        warp: tuple(sorted(stream)) for warp, stream in streams.items()
    }


@pytest.mark.parametrize("design", ALL_DESIGNS)
class TestDeviceMatchesSingleSM:
    def test_launch_really_splits(self, device_runs, design):
        point = device_runs[design]
        assert point.device.partition.num_sms == NUM_SMS
        occupied = {
            sm.sm_id for sm in point.device.partition.sms
            if sm.trace.num_warps
        }
        assert len(occupied) == NUM_SMS

    def test_register_image_identical(self, device_runs, design):
        point = device_runs[design]
        assert point.merged.register_image == point.single.untraced.register_image

    def test_memory_image_identical(self, device_runs, design):
        point = device_runs[design]
        assert point.merged.memory_image == point.single.untraced.memory_image

    def test_instruction_totals_identical(self, device_runs, design):
        point = device_runs[design]
        assert (point.merged.counters.instructions
                == point.single.untraced.counters.instructions)
        assert (point.merged.counters.instructions
                == point.single.reference.instructions)

    def test_commit_streams_match_reference(self, device_runs, design):
        point = device_runs[design]
        reference = {
            warp: tuple(sorted(stream))
            for warp, stream in point.single.reference.commits_by_warp().items()
        }
        assert _device_commits(point) == reference
