"""Per-layer attribution for the traced run.

The program has no spans of its own yet, so the traced run wraps each
layer's public entry points from here, in memory, for the duration of
the traced passes and restores them afterwards.  A span is
``[name, start, end, parent]``; spans stay in memory and are written
out once, when the run ends.  A layer's self time is its spans'
duration minus the duration of their child spans.

Only single-threaded, in-process work is visible: a pool worker runs
its own copy of the program, so the traced device-fanout pass resolves
its points in-process (``jobs=1``).

Inside ``SMEngine.run`` there is no per-stage public boundary, so the
engine's per-module self-time shares come from ``cProfile`` attached
around ``SMEngine.run`` in a separate pass.  The profiler inflates
small calls more than large ones, so those shares are comparable only
between traced runs.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import time
from typing import Callable, Dict, List, Optional

from repro.compiler import pipeline
from repro.experiments import cache as cache_module
from repro.experiments import figures, grid, runner, summary
from repro.experiments.cache import RunCache
from repro.gpu import decode, device, sm
from repro.gpu.sm import SMEngine

#: Engine modules whose self time the profiler pass splits out, as
#: ``(path suffix, metric)``.
ENGINE_MODULES = (
    ("repro/gpu/sm.py", "gpu.sm.self_share"),
    ("repro/gpu/stages.py", "gpu.stages.self_share"),
    ("repro/gpu/banks.py", "gpu.banks.self_share"),
    ("repro/gpu/collector.py", "gpu.collector.self_share"),
    ("repro/core/boc.py", "core.boc.self_share"),
    ("repro/core/rfc.py", "core.rfc.self_share"),
    ("repro/gpu/scheduler.py", "gpu.scheduler.self_share"),
    ("repro/gpu/scoreboard.py", "gpu.scoreboard.self_share"),
    ("repro/gpu/memory.py", "gpu.memory.self_share"),
    ("repro/gpu/execution.py", "gpu.execution.self_share"),
)


class Patches:
    """Attribute replacements that :meth:`undo` restores in reverse."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans around wrapped calls (single thread only)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, func: Callable,
             observe: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def totals(self) -> Dict[str, List[float]]:
        """``name -> [total seconds, self seconds, calls]``."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Dict[str, List[float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0.0, 0.0, 0])
            entry[0] += end - start
            entry[1] += end - start - children[index]
            entry[2] += 1
        return totals

    def child_seconds(self, parent_name: str, child_name: str) -> float:
        """Time in ``child_name`` spans directly under ``parent_name``."""
        return sum(
            end - start for name, start, end, parent in self.spans
            if name == child_name and parent >= 0
            and self.spans[parent][0] == parent_name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"name": name, "start": start, "end": end,
                        "parent": parent}
                       for name, start, end, parent in self.spans], handle)
            handle.write("\n")


class LayerProbe:
    """Spans and counts at every layer boundary the scorecard and the
    device fan-out cross, installed for the traced passes only."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.patches = Patches()
        self.engine = {"runs": 0, "cycles": 0, "instructions": 0,
                       "fast_forwarded": 0}
        self.ops_built = 0

    def _engine_result(self, result) -> None:
        counters = result.counters
        self.engine["runs"] += 1
        self.engine["cycles"] += counters.cycles
        self.engine["instructions"] += counters.instructions
        self.engine["fast_forwarded"] += counters.fast_forwarded_cycles

    def install(self) -> None:
        wrap, put = self.tracer.wrap, self.patches.set
        put(summary, "headline_summary",
            wrap("experiments.summary", summary.headline_summary))
        for owner in (summary, figures, grid):
            put(owner, "run_grid", wrap("experiments.grid", owner.run_grid))
        for attr in ("generate_trace", "generate_compiled_trace"):
            put(runner, attr, wrap("kernels", getattr(runner, attr)))
        put(pipeline, "compile_kernel",
            wrap("compiler", pipeline.compile_kernel))
        for attr in ("read_bypass_counts", "write_bypass_opportunity_counts"):
            put(figures, attr, wrap("core.window", getattr(figures, attr)))
        put(sm, "decode_warp_cached",
            wrap("gpu.decode", sm.decode_warp_cached))
        put(SMEngine, "__init__", wrap("gpu.sm.init", SMEngine.__init__))
        put(SMEngine, "run",
            wrap("gpu.sm.run", SMEngine.run, self._engine_result))
        put(device, "simulate_device",
            wrap("gpu.device", device.simulate_device))
        put(device, "partition_launch",
            wrap("gpu.device.partition", device.partition_launch))
        put(RunCache, "get", wrap("experiments.cache", RunCache.get))
        for owner in (grid, runner):
            put(owner, "run_key",
                wrap("experiments.cache.run_key", owner.run_key))
        put(cache_module, "result_from_dict",
            wrap("kernels.serialize", cache_module.result_from_dict))

        original_init = decode.DecodedOp.__init__

        @functools.wraps(original_init)
        def counted_init(op, *args, **kwargs):
            self.ops_built += 1
            original_init(op, *args, **kwargs)

        put(decode.DecodedOp, "__init__", counted_init)

    def uninstall(self) -> None:
        self.patches.undo()

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-pass layer metrics from the spans and counts collected."""
        totals = self.tracer.totals()

        def total(name: str) -> float:
            return totals.get(name, [0.0, 0.0, 0])[0] / passes

        def own(name: str) -> float:
            return totals.get(name, [0.0, 0.0, 0])[1] / passes

        run_s = total("gpu.sm.run")
        engine = self.engine
        claims = (total("experiments.summary")
                  - self.tracer.child_seconds("experiments.summary",
                                              "experiments.grid") / passes)
        return {
            "kernels.trace_gen_s": own("kernels"),
            "compiler.compile_s": total("compiler"),
            "core.window.analysis_s": total("core.window"),
            "experiments.summary.claims_s": claims,
            "gpu.decode.decode_s": total("gpu.decode"),
            "gpu.decode.ops_built": self.ops_built / passes,
            "gpu.sm.init_s": own("gpu.sm.init"),
            "gpu.sm.run_s": run_s,
            "gpu.sm.inst_per_s": (engine["instructions"] / passes / run_s
                                  if run_s else 0.0),
            "gpu.sm.cycles_per_s": (engine["cycles"] / passes / run_s
                                    if run_s else 0.0),
            "gpu.sm.fast_forward_share": (
                engine["fast_forwarded"] / engine["cycles"]
                if engine["cycles"] else 0.0),
            "gpu.device.partition_s": total("gpu.device.partition"),
            "gpu.device.merge_s": own("gpu.device"),
            "experiments.cache.get_s": own("experiments.cache"),
            "experiments.cache.run_key_s": total("experiments.cache.run_key"),
            "kernels.serialize.from_dict_s": total("kernels.serialize"),
        }

    def self_seconds(self) -> Dict[str, float]:
        """Self time of every layer over all traced passes."""
        return {name: entry[1] for name, entry in self.tracer.totals().items()}


class EngineProfiler:
    """``cProfile`` attached around every ``SMEngine.run`` call."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.patches = Patches()

    def install(self) -> None:
        run = SMEngine.run
        profile = self.profile

        @functools.wraps(run)
        def profiled(engine, *args, **kwargs):
            profile.enable()
            try:
                return run(engine, *args, **kwargs)
            finally:
                profile.disable()

        self.patches.set(SMEngine, "run", profiled)

    def uninstall(self) -> None:
        self.patches.undo()

    def shares(self) -> Dict[str, float]:
        """Each engine module's share of profiled engine self time."""
        shares = {metric: 0.0 for _, metric in ENGINE_MODULES}
        try:
            stats = pstats.Stats(self.profile).stats
        except TypeError:  # nothing was profiled
            return shares
        total = 0.0
        for (filename, _, _), (_, _, self_time, _, _) in stats.items():
            total += self_time
            path = filename.replace(os.sep, "/")
            for suffix, metric in ENGINE_MODULES:
                if path.endswith(suffix):
                    shares[metric] += self_time
                    break
        if total:
            shares = {metric: value / total for metric, value in shares.items()}
        return shares
