"""Deterministic model counts from the scorecard grid, and the report
that sets them beside the paper's reference numbers.

These are simulated quantities, not host time: at one seed and one
commit they repeat exactly, so a simulator-only change must leave every
``model.*`` value identical, and a model change explains its IPC move
with them.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Dict, List, Mapping, Optional, Tuple

from repro.experiments import runner
from repro.experiments.summary import HeadlineSummary
from repro.kernels.suites import benchmark_names

#: The designs ``headline_summary`` simulates, in report order.
SCORECARD_DESIGNS = ("baseline", "bow", "bow-wr", "bow-wr-half", "rfc")
#: Claims ``headline_summary`` checks.
SCORECARD_CLAIMS = 11
_BOW = ("bow", "bow-wr", "bow-wr-half")
_EVICTING = ("bow-wr", "bow-wr-half")

#: model metric -> the ``experiments.summary`` claim holding the
#: paper's reference number for it.
PAPER_CLAIM = {
    "model.bow.ipc_gain": "IPC gain, BOW",
    "model.bow-wr.ipc_gain": "IPC gain, BOW-WR",
    "model.bow-wr-half.ipc_gain": "IPC gain, half-size",
    "model.rfc.ipc_gain": "RFC IPC gain",
    "model.bow.read_bypass_rate": "reads bypassed",
    "model.bow-wr.write_bypass_rate": "writes eliminable",
}

CAVEATS = (
    "The model is unvalidated against hardware: the paper's numbers come "
    "from GPGPU-Sim modelling a TITAN X Pascal on CUDA binaries, this "
    "model runs synthetic traces, so the errors below are against those "
    "published simulator results, not against silicon.",
    "Memory is a stateless hit-rate mix (gpu.memory.CacheMix): there are "
    "no modelled caches to warm, and every run starts from an empty "
    "pipeline.",
)


def model_metric_names() -> List[str]:
    names = []
    for design in SCORECARD_DESIGNS:
        names.append(f"model.{design}.ipc")
        if design != "baseline":
            names.append(f"model.{design}.ipc_gain")
        if design in _BOW:
            names.append(f"model.{design}.read_bypass_rate")
            names.append(f"model.{design}.write_bypass_rate")
        names.append(f"model.{design}.bank_conflicts_per_kinst")
        if design in _EVICTING:
            names.append(f"model.{design}.boc_evictions")
    return names


def scorecard_results(scale: runner.RunScale) -> Dict[Tuple[str, str], object]:
    """The scorecard grid's results from this process's memo."""
    found = {}
    for bench in benchmark_names():
        for design in SCORECARD_DESIGNS:
            result = runner.memo_lookup(bench, design, 3, scale)
            if result is not None:
                found[bench, design] = result
    return found


def model_counts(results: Mapping[Tuple[str, str], object]
                 ) -> Dict[str, float]:
    """Every ``model.*`` count over the 15 benchmarks of the scorecard.

    IPC and IPC gain are per-benchmark averages (as the paper's figures
    average them); rates and per-kilo-instruction counts are over the
    summed counters.
    """
    benches = benchmark_names()
    counts: Dict[str, float] = {}
    for design in SCORECARD_DESIGNS:
        runs = [results[bench, design] for bench in benches]
        counts[f"model.{design}.ipc"] = sum(r.ipc for r in runs) / len(runs)
        if design != "baseline":
            counts[f"model.{design}.ipc_gain"] = sum(
                results[bench, design].ipc / results[bench, "baseline"].ipc
                - 1.0 for bench in benches) / len(benches)
        summed = functools.reduce(operator.add, (r.counters for r in runs))
        if design in _BOW:
            counts[f"model.{design}.read_bypass_rate"] = summed.read_bypass_rate
            counts[f"model.{design}.write_bypass_rate"] = (
                summed.write_bypass_rate)
        counts[f"model.{design}.bank_conflicts_per_kinst"] = (
            1000.0 * summed.bank_conflicts / summed.instructions)
        if design in _EVICTING:
            counts[f"model.{design}.boc_evictions"] = summed.boc_evictions
    return counts


def _number(text: str) -> Optional[float]:
    match = re.search(r"[-+]?\d+(?:\.\d+)?", text)
    return float(match.group()) if match else None


def format_report(counts: Mapping[str, float],
                  scorecard: HeadlineSummary) -> str:
    """The claims and the model counts beside the paper, with errors."""
    claims = {claim.name: claim for claim in scorecard.claims}
    lines = ["Model vs paper (MICRO 2020, BOW)"]
    lines += [f"  note: {caveat}" for caveat in CAVEATS]
    lines.append(f"  {'claim (IW=3)':<26} {'paper':>17} {'measured':>9} "
                 f"{'error':>8}  holds")
    for claim in scorecard.claims:
        paper, measured = _number(claim.paper), _number(claim.measured)
        error = ("" if paper is None or measured is None
                 else f"{measured - paper:+.1f}")
        lines.append(f"  {claim.name:<26} {claim.paper:>17} "
                     f"{claim.measured:>9} {error:>8}  "
                     f"{'yes' if claim.holds else 'NO'}")
    lines.append(f"  {'model count':<44} {'value':>12} {'paper':>7} "
                 f"{'error (pts)':>11}")
    for name in model_metric_names():
        value = counts[name]
        claim = claims.get(PAPER_CLAIM.get(name, ""))
        if name.endswith(("_gain", "_rate")):
            shown = f"{100.0 * value:+.2f}%"
        else:
            shown = f"{value:.4f}"
        paper = error = ""
        if claim is not None:
            paper = claim.paper
            reference = _number(claim.paper)
            if reference is not None:
                error = f"{100.0 * value - reference:+.1f}"
        lines.append(f"  {name:<44} {shown:>12} {paper:>7} {error:>11}")
    lines.append("  (paper 'reads bypassed'/'writes eliminable' are the IW=3 "
                 "window opportunity of Fig. 3; the model rates are what the "
                 "simulated BOC achieved)")
    return "\n".join(lines)
