"""Experiment drivers: one per table and figure of the paper.

Each driver returns a small result object with the series the paper
plots plus a ``format()`` text rendering; the benchmark harness under
``benchmarks/`` and the examples call these.  Timing runs are kept in
one run store per process (see :mod:`repro.experiments.runner`), so
drivers that share runs — Figures 10, 12 and 13 all need the same
baseline — pay for them once.  The drivers route their grids through
:func:`~repro.experiments.grid.run_grid`, which adds parallel fan-out
(``jobs=N``), a persistent on-disk run cache
(:class:`~repro.experiments.cache.RunCache`) shared across processes,
and fault-tolerant execution (:mod:`repro.experiments.resilience`):
failing points are retried, then recorded on ``GridResult.failures``
instead of killing the sweep.
"""

from .cache import MODEL_FINGERPRINT, CacheDegradedWarning, RunCache, run_key
from .figures import (
    fig10_device_ipc,
    fig10_ipc_improvement,
    fig11_halfsize_ipc,
    fig12_oc_residency,
    fig13_energy,
    fig1_onchip_memory,
    fig3_bypass_opportunity,
    fig4_oc_latency,
    fig7_write_destinations,
    fig8_ocu_occupancy,
    fig9_boc_occupancy,
    rfc_comparison,
)
from .grid import GridPoint, GridResult, RunRecord, run_grid
from .registry import EXPERIMENTS, run_experiment
from .resilience import (
    DEFAULT_POLICY,
    NO_RETRY,
    PERMANENT,
    TRANSIENT,
    PointFailure,
    RetryPolicy,
    classify_failure,
    fan_out,
)
from .runner import (
    FULL,
    QUICK,
    RunScale,
    cache_stats,
    clear_cache,
    get_cache,
    run_design,
    set_cache,
    simulations_run,
)
from .tables import table1_btree, table2_configuration, table4_overheads

__all__ = [
    "RunScale",
    "QUICK",
    "FULL",
    "run_design",
    "run_grid",
    "clear_cache",
    "cache_stats",
    "get_cache",
    "set_cache",
    "simulations_run",
    "MODEL_FINGERPRINT",
    "CacheDegradedWarning",
    "RunCache",
    "run_key",
    "GridPoint",
    "GridResult",
    "RunRecord",
    "RetryPolicy",
    "PointFailure",
    "DEFAULT_POLICY",
    "NO_RETRY",
    "TRANSIENT",
    "PERMANENT",
    "classify_failure",
    "fan_out",
    "fig1_onchip_memory",
    "fig3_bypass_opportunity",
    "fig4_oc_latency",
    "fig7_write_destinations",
    "fig8_ocu_occupancy",
    "fig9_boc_occupancy",
    "fig10_device_ipc",
    "fig10_ipc_improvement",
    "fig11_halfsize_ipc",
    "fig12_oc_residency",
    "fig13_energy",
    "rfc_comparison",
    "table1_btree",
    "table2_configuration",
    "table4_overheads",
    "EXPERIMENTS",
    "run_experiment",
]
