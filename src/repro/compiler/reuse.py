"""Register reuse-distance analysis.

Distances are measured in *instructions*, matching the paper's window
definition (two accesses share a window when their indices differ by
less than ``IW``); :func:`repro.core.window.window_gaps` turns them into
the Figure 3 counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Sequence

from ..isa import Instruction
from ..isa.registers import SINK_REGISTER


@dataclass(frozen=True)
class ReuseEvent:
    """One register access annotated with its backward reuse distance.

    Attributes:
        index: dynamic instruction index of this access.
        register_id: the register accessed.
        is_write: write (destination) or read (source).
        distance: instructions since the previous access to the same
            register (read or write), or ``None`` for the first access.
    """

    index: int
    register_id: int
    is_write: bool
    distance: int | None


def reuse_distances(trace: Sequence[Instruction]) -> Iterator[ReuseEvent]:
    """Yield every register access with its backward reuse distance.

    Sink-register writes (predicate-only results) are skipped: they
    allocate no RF storage and generate no bank traffic.
    """
    last_access: Dict[int, int] = {}
    for index, inst in enumerate(trace):
        for src in inst.sources:
            previous = last_access.get(src.id)
            distance = index - previous if previous is not None else None
            yield ReuseEvent(index, src.id, is_write=False, distance=distance)
            last_access[src.id] = index
        if inst.dest is not None and inst.dest.id != SINK_REGISTER.id:
            previous = last_access.get(inst.dest.id)
            distance = index - previous if previous is not None else None
            yield ReuseEvent(index, inst.dest.id, is_write=True, distance=distance)
            last_access[inst.dest.id] = index


def read_bypass_fraction(trace: Sequence[Instruction], window_size: int) -> float:
    """Fraction of source reads a window of ``window_size`` can bypass.

    A view over :func:`repro.core.window.window_gaps`: a read hits the
    bypass buffer when its reuse distance is below the window size.
    """
    from ..core.window import window_gaps

    gaps = window_gaps(trace)
    hits = gaps.read_hits(window_size)
    return hits / gaps.reads if gaps.reads else 0.0


def distance_histogram(trace: Sequence[Instruction],
                       max_distance: int = 16) -> Dict[int, int]:
    """Histogram of read reuse distances, clamped at ``max_distance``.

    Key ``-1`` counts first accesses (no prior access to the register).
    """
    histogram: Dict[int, int] = {}
    for event in reuse_distances(trace):
        if event.is_write:
            continue
        key = -1 if event.distance is None else min(event.distance, max_distance)
        histogram[key] = histogram.get(key, 0) + 1
    return histogram
