#!/usr/bin/env python3
"""Paired A/B timing of the engine: a base revision against the work tree.

Timing one side after the other on a shared host mixes the change with
whatever else the host did in between; sequential alternation of the
same runs spreads about ±8%, more than a typical engine change.  This
tool runs both sides *at the same time*, one process per side, so the
two runs of a pair see the same host load:

* the base revision (default ``HEAD``, i.e. the uncommitted change) is
  checked out into a temporary ``git worktree`` and removed afterwards;
* each process simulates a serial device subset — five benchmarks ×
  {baseline, bow, bow-wr, rfc} at ``DEVICE_QUICK`` (4 SMs × 16 warps),
  traces built before the clock starts — ``REPS`` times in-process
  and reports the fastest rep in CPU seconds;
* after ``--pairs`` pairs it prints each side's median and quartiles,
  the per-pair ratios (work tree / base) and the number of pairs the
  work tree won.

Both sides must also compute identical results (a digest of every
point's counters and images); the tool exits 1 when they do not, since
a timing comparison between different models means nothing.  It writes
only to its temporary directory.  Usage::

    PYTHONPATH=src python tools/ab_engine.py [--base REV] [--pairs N]

After committing the change, compare against ``--base HEAD~1``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The serial device subset both sides simulate.
BENCHMARKS = ("SAD", "BFS", "NW", "STO", "VECTORADD")
DESIGNS = ("baseline", "bow", "bow-wr", "rfc")
WINDOW = 3
#: In-process reps per run; the fastest counts.
REPS = 2


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(base: Sequence[float], change: Sequence[float]) -> Dict:
    """Paired statistics of two equally long series of run times.

    Returns each side's ``(q1, median, q3)``, the per-pair ratios
    ``change / base``, their median, and ``wins``: the pairs in which
    the change took strictly less time.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same non-zero number of runs per side")
    ratios = [c / b for b, c in zip(base, change)]
    return {
        "pairs": len(base),
        "base": tuple(percentile(base, q) for q in (25, 50, 75)),
        "change": tuple(percentile(change, q) for q in (25, 50, 75)),
        "ratios": ratios,
        "median_ratio": percentile(ratios, 50),
        "wins": sum(1 for b, c in zip(base, change) if c < b),
    }


def format_summary(summary: Dict) -> List[str]:
    """The report lines for :func:`summarize`'s result."""
    lines = []
    for side in ("base", "change"):
        q1, med, q3 = summary[side]
        lines.append(f"{side:>6}: median {med:.3f} s  "
                     f"[q1 {q1:.3f}, q3 {q3:.3f}]")
    ratios = " ".join(f"{ratio:.3f}" for ratio in summary["ratios"])
    lines.append(f"ratios (change/base): {ratios}")
    lines.append(f"median ratio {summary['median_ratio']:.3f}; change "
                 f"faster in {summary['wins']} of {summary['pairs']} pairs")
    return lines


def worker() -> None:
    """Time the subset against the ``repro`` on ``sys.path``; print JSON."""
    from repro.experiments.runner import (
        DEVICE_QUICK, benchmark_trace, design_spec, execute_run,
    )

    points = [(bench, design) for bench in BENCHMARKS for design in DESIGNS]
    for bench, design in points:
        hinted = design_spec(design).hinted
        benchmark_trace(bench, DEVICE_QUICK,
                        window_size=WINDOW if hinted else None)
    best = None
    digest = hashlib.sha256()
    for rep in range(REPS):
        started = time.process_time()
        results = [execute_run(bench, design, WINDOW, DEVICE_QUICK)
                   for bench, design in points]
        seconds = time.process_time() - started
        best = seconds if best is None else min(best, seconds)
        if rep == 0:
            for result in results:
                digest.update(json.dumps([
                    result.counters.as_dict(),
                    sorted(result.register_image.items()),
                    sorted(result.memory_image.items()),
                ]).encode("utf-8"))
    print(json.dumps({"cpu_s": best, "digest": digest.hexdigest()}))


@contextlib.contextmanager
def base_checkout(rev: str) -> Iterator[Path]:
    """A temporary ``git worktree`` of ``rev``, removed on exit."""
    scratch = Path(tempfile.mkdtemp(prefix="ab_engine-"))
    path = scratch / "base"
    subprocess.run(["git", "-C", str(REPO_ROOT), "worktree", "add",
                    "--detach", str(path), rev],
                   check=True, capture_output=True)
    try:
        yield path
    finally:
        subprocess.run(["git", "-C", str(REPO_ROOT), "worktree", "remove",
                        "--force", str(path)], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)


def start_side(src: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        env=env, stdout=subprocess.PIPE, text=True,
    )


def finish_side(process: subprocess.Popen) -> Dict:
    out, _ = process.communicate()
    if process.returncode != 0:
        raise SystemExit(f"a timing run failed (exit {process.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def compare(base_src: Path, pairs: int) -> int:
    change_src = REPO_ROOT / "src"
    base_times: List[float] = []
    change_times: List[float] = []
    digests = set()
    for pair in range(pairs):
        # Both sides run at once; the start order alternates.
        order = [(base_src, base_times), (change_src, change_times)]
        if pair % 2:
            order.reverse()
        running = [(start_side(src), times) for src, times in order]
        for process, times in running:
            run = finish_side(process)
            times.append(run["cpu_s"])
            digests.add(run["digest"])
        print(f"pair {pair + 1}: base {base_times[-1]:.3f} s, "
              f"change {change_times[-1]:.3f} s", flush=True)
    for line in format_summary(summarize(base_times, change_times)):
        print(line)
    if len(digests) != 1:
        print("results differ between the two sides", file=sys.stderr)
        return 1
    print("results identical on both sides")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="revision to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.worker:
        worker()
        return 0
    with base_checkout(args.base) as path:
        return compare(path / "src", args.pairs)


if __name__ == "__main__":
    sys.exit(main())
