"""Measurement helpers: percentiles, the host-speed gauge and the
process-tree memory sampler."""

from __future__ import annotations

import gc
import os
import resource
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` of the highest percentile with at least ten samples
    above it, or ``None`` when there are fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight


_NODES = [_Node(i, (i * 2654435761) % 1000) for i in range(512)]


def _reference_loop() -> int:
    """Fixed pure-Python work: attribute reads, dict updates, branches."""
    table = {}
    acc = 0
    for round_ in range(6):
        for node in _NODES:
            key = (node.key * 31 + round_) & 255
            table[key] = table.get(key, 0) + node.weight
            if node.weight > 500:
                acc += node.weight >> 2
            else:
                acc ^= key
    return acc + sum(table.values())


class HostSpeed:
    """How fast the host runs Python right now, from a fixed loop.

    A shared host switches between speeds that differ by up to 1.8x,
    often for longer than a whole run.  ``sample`` times the loop
    (which uses none of the program's code) a few times, with the
    collector off; the run calls it around set-up and between passes.
    ``scale`` is ``REFERENCE_SECONDS`` over the samples' 10th
    percentile: multiplying a host time by it gives the time on a host
    where the loop takes ``REFERENCE_SECONDS``, so a slow spell that
    covers the passes and the samples alike cancels out.
    """

    #: The loop's 10th percentile on the 2-vCPU Xeon VM (2.1 GHz,
    #: CPython 3) the bounds in ``BENCHMARK.json`` were set on.
    REFERENCE_SECONDS = 0.00044

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 20) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                started = time.perf_counter()
                _reference_loop()
                self.samples.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    def loop_seconds(self) -> float:
        return percentile(self.samples, 10.0)

    def scale(self) -> float:
        return self.REFERENCE_SECONDS / self.loop_seconds()


def _status_kib(pid: int, field: str) -> int:
    """One ``VmRSS``/``VmHWM``-style field of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _children(pid: int) -> List[int]:
    found: List[int] = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
            found.extend(int(item) for item in handle.read().split())
    return found


class TreeMemory:
    """Peak resident memory of this process plus its descendants.

    A daemon thread samples every ``interval`` seconds: each live
    descendant (pool worker, server) contributes its own high-water mark
    (``VmHWM``), summed over the descendants alive at that instant, and
    the largest such sum is added to this process's own high-water
    mark.  Where ``/proc`` is unavailable it falls back to
    ``getrusage``: own peak plus the largest reaped child's.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.children_peak_kib = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._proc = os.path.isdir(f"/proc/{os.getpid()}/task")

    def sample(self) -> None:
        if not self._proc:
            return
        pending = [os.getpid()]
        total = 0
        seen = set()
        while pending:
            pid = pending.pop()
            try:
                kids = _children(pid)
            except OSError:
                continue
            for kid in kids:
                if kid in seen:
                    continue
                seen.add(kid)
                pending.append(kid)
                try:
                    total += _status_kib(kid, "VmHWM")
                except (OSError, ValueError):
                    pass  # exited between listing and reading
        self.children_peak_kib = max(self.children_peak_kib, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, name="rss-sampler",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def peak_mib(self) -> float:
        if self._proc:
            own = _status_kib(os.getpid(), "VmHWM")
            return (own + self.children_peak_kib) / 1024.0
        scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + kids) / scale
