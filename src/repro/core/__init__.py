"""BOW: the paper's primary contribution.

* :mod:`repro.core.window` — sliding/extended instruction-window
  semantics and the trace-level bypass-opportunity analyses behind the
  motivation figures (Figure 3) and Table I.
* :mod:`repro.core.boc` — the Bypassing Operand Collector: a per-warp
  collector with forwarding logic, FIFO capacity management, and the
  three writeback policies (write-through BOW, write-back, and
  compiler-guided BOW-WR).
* :mod:`repro.core.designs` — the declarative design registry; every
  runnable design point is one :class:`~repro.core.designs.DesignSpec`.
* :mod:`repro.core.bow_sm` — one-call simulation entry points plugging
  the BOC into the baseline SM engine.
* :mod:`repro.core.rfc` — the register-file-cache comparison point.
* :mod:`repro.core.occupancy` — collector occupancy studies (Figures 8/9).
"""

from .boc import BOWCollectors
from .bow_sm import simulate_bow, simulate_design
from .designs import (
    DesignSpec,
    design_names,
    design_specs,
    get_design,
    known_designs,
    register_design,
    temporary_design,
    unregister_design,
)
from .occupancy import (
    OccupancySample,
    boc_occupancy_histogram,
    source_operand_histogram,
)
from .rfc import RFC_ENTRIES_PER_WARP, RFCCollectors, simulate_rfc
from .window import (
    WindowGaps,
    read_bypass_counts,
    table1_write_counts,
    window_gaps,
    write_bypass_opportunity_counts,
    writeback_eliminated_counts,
)

__all__ = [
    "WindowGaps",
    "window_gaps",
    "read_bypass_counts",
    "write_bypass_opportunity_counts",
    "writeback_eliminated_counts",
    "table1_write_counts",
    "BOWCollectors",
    "DesignSpec",
    "design_names",
    "design_specs",
    "get_design",
    "known_designs",
    "register_design",
    "temporary_design",
    "unregister_design",
    "simulate_bow",
    "simulate_design",
    "RFCCollectors",
    "simulate_rfc",
    "RFC_ENTRIES_PER_WARP",
    "source_operand_histogram",
    "boc_occupancy_histogram",
    "OccupancySample",
]
