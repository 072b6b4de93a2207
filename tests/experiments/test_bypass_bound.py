"""The engine against the static window bound (ROADMAP item 5).

A full-size BOW collector can only forward a read whose register was
accessed inside the window, so its bypassed reads never exceed what the
window analysis allows on the same trace.  The gap between the two is
the timing-dependent part of Figure 3's claim.
"""

import pytest

from repro.core.window import read_bypass_counts
from repro.experiments.runner import (
    QUICK,
    benchmark_trace,
    clear_cache,
    run_design,
    set_cache,
)

#: Static bound at QUICK and IW=3: the reads Figure 3 counts bypassable.
STATIC_BOUND = {"SAD": 12468, "NW": 5164, "BFS": 3156, "VECTORADD": 3896,
                "CIFARNET": 8677}


@pytest.fixture(scope="module", autouse=True)
def memory_only():
    previous = set_cache(None)
    clear_cache()
    yield
    clear_cache()
    set_cache(previous)


@pytest.mark.parametrize("bench", sorted(STATIC_BOUND))
def test_bow_bypasses_no_more_reads_than_the_window_allows(bench):
    bound = sum(read_bypass_counts(warp, 3)[0]
                for warp in benchmark_trace(bench, QUICK))
    assert bound == STATIC_BOUND[bench]
    counters = run_design(bench, "bow", 3, QUICK).counters
    assert 0 < counters.bypassed_reads <= bound
