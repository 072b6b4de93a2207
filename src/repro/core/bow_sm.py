"""One-call simulation entry points for every design point.

``simulate_design`` runs a named design over a trace by resolving the
name through the declarative registry (:mod:`repro.core.designs`),
which covers the paper's configurations: the unmodified GPU, baseline
BOW (write-through), BOW-WB, BOW-WR, the half-size BOW-WR, and the RFC
comparison point.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import BOWConfig, GPUConfig
from ..errors import SimulationError
from ..gpu.sm import SimulationResult, SMEngine
from ..kernels.trace import KernelTrace
from .boc import BOWCollectors
from .designs import get_design, known_designs


def simulate_bow(
    trace: KernelTrace,
    bow: Optional[BOWConfig] = None,
    config: Optional[GPUConfig] = None,
    memory_seed: int = 0,
    preload: Optional[Dict[int, int]] = None,
    recorder=None,
    fast_forward: bool = True,
) -> SimulationResult:
    """Simulate ``trace`` on a BOW-enabled SM.

    Args:
        trace: per-warp dynamic instruction streams.  For the compiler
            policy, instructions should carry hints (see
            :func:`repro.compiler.compile_kernel`); unhinted instructions
            default to the BOTH behaviour, which is correct but saves
            fewer writes.
        bow: the design point; defaults to baseline BOW at IW=3.
        config: machine configuration (Table II defaults).
        memory_seed: seed of the deterministic memory-latency model.
        recorder: optional :class:`~repro.stats.trace.TraceRecorder`
            receiving cycle-level events (``None`` = no tracing work).
    """
    from ..config import bow_config

    bow = bow or bow_config()
    if not bow.enabled:
        engine = SMEngine(trace, config=config, memory_seed=memory_seed,
                          preload=preload, recorder=recorder,
                          fast_forward=fast_forward)
        return engine.run()
    engine = SMEngine(
        trace,
        config=config,
        provider_factory=lambda eng: BOWCollectors(eng, bow),
        memory_seed=memory_seed,
        preload=preload,
        recorder=recorder,
        fast_forward=fast_forward,
    )
    return engine.run()


def simulate_design(
    design: str,
    trace: KernelTrace,
    window_size: int = 3,
    config: Optional[GPUConfig] = None,
    memory_seed: int = 0,
    preload: Optional[Dict[int, int]] = None,
    recorder=None,
    fast_forward: bool = True,
) -> SimulationResult:
    """Run a named design (see :func:`repro.core.designs.design_names`)."""
    try:
        spec = get_design(design)
    except KeyError:
        raise SimulationError(
            f"unknown design {design!r}; known: {known_designs()}"
        ) from None
    engine = SMEngine(
        trace,
        config=config,
        provider_factory=lambda eng: spec.provider(eng, window_size),
        memory_seed=memory_seed,
        preload=preload,
        recorder=recorder,
        fast_forward=fast_forward,
    )
    return engine.run()
