"""Fixtures for the observability suite.

The differential-oracle and reconciliation tests sweep every design
over a small QUICK-style benchmark subset.  Runs are the expensive
part, so each (benchmark, design) point is simulated exactly once per
session — traced and untraced — and shared via the ``oracle_runs``
fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import pytest
from tests.conftest import SEED, small_spec

from repro.core.bow_sm import simulate_design
from repro.core.designs import design_names
from repro.gpu.reference import ReferenceResult, execute_reference
from repro.gpu.sm import SimulationResult
from repro.kernels.synthetic import generate_compiled_trace, generate_trace
from repro.kernels.trace import KernelTrace
from repro.stats.trace import TraceRecorder

#: The QUICK benchmark subset the oracle sweeps (shrunk specs so the
#: full designs x benchmarks matrix stays fast).
ORACLE_BENCHMARKS = ("NW", "BFS", "SAD")

#: Every runnable design in the registry (RFC included).
ALL_DESIGNS = design_names()

#: Designs that leave dead (compiler-transient) values out of the RF;
#: their final register file is a *subset* of the reference image.
HINTED_DESIGNS = frozenset({"bow-wr", "bow-wr-half"})

#: Ring capacity large enough to retain every event of these runs.
CAPACITY = 1 << 18

WINDOW = 3


@dataclass(frozen=True)
class OraclePoint:
    """One (benchmark, design) observation: traced + untraced runs
    against the ground-truth reference for the *same* trace."""

    benchmark: str
    design: str
    trace: KernelTrace
    reference: ReferenceResult
    traced: SimulationResult
    untraced: SimulationResult
    recorder: TraceRecorder


def _benchmark_trace(benchmark: str, hinted: bool) -> KernelTrace:
    spec = small_spec(benchmark, warps=4, iterations=4)
    if hinted:
        return generate_compiled_trace(spec, window_size=WINDOW)
    return generate_trace(spec)


def _run_point(benchmark: str, design: str) -> OraclePoint:
    trace = _benchmark_trace(benchmark, design in HINTED_DESIGNS)
    recorder = TraceRecorder(capacity=CAPACITY)
    traced = simulate_design(design, trace, window_size=WINDOW,
                             memory_seed=SEED, recorder=recorder)
    untraced = simulate_design(design, trace, window_size=WINDOW,
                               memory_seed=SEED)
    assert recorder.dropped == 0, (
        f"oracle ring too small: {recorder.emitted} events > {CAPACITY}"
    )
    return OraclePoint(
        benchmark=benchmark,
        design=design,
        trace=trace,
        reference=execute_reference(trace, memory_seed=SEED),
        traced=traced,
        untraced=untraced,
        recorder=recorder,
    )


@pytest.fixture(scope="session")
def oracle_runs() -> Dict[Tuple[str, str], OraclePoint]:
    """Every design x oracle-benchmark point, simulated once."""
    return {
        (benchmark, design): _run_point(benchmark, design)
        for benchmark in ORACLE_BENCHMARKS
        for design in ALL_DESIGNS
    }
