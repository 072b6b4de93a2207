#!/usr/bin/env python3
"""Engine parity gate: one benchmark, every design, fast vs reference loop.

CI runs this in the fuzz-smoke and perf jobs as a cheap end-to-end
check that the engine's fast loop is an optimization only.  The fast
loop skips stage calls the provider contract proves idle, charges
stable stall cycles from the issue stage's cached profile, and jumps
provably idle spans; the reference loop (``fast_forward=False``) runs
every stage and the full issue walk every cycle and never jumps.  For
the chosen benchmark trace, both loops must be bit-identical for every
registered design — same counters (``fast_forwarded_cycles`` aside,
the one field that measures the optimization itself), same register
image, same memory image — under three schedulers:

* GTO, the paper's policy, where the fast loop switches to the cached
  issue profile after the first fruitless cycle;
* LRR, which also runs on the profile; its rotating pointer checks that
  the idle spans each scheduler is owed land before it is consulted;
* two-level with an active set of two warps, whose non-empty pending
  queue keeps the fast loop on the full all-warps issue walk every
  cycle and forbids idle-span jumps.

Exit status: 0 when every point matches, 1 on any divergence (with
a per-field diff on stderr).  Usage:

    PYTHONPATH=src python tools/check_ff_parity.py [BENCHMARK]

The default benchmark is SAD at the experiment layer's QUICK scale;
pass any registered benchmark name to point the gate elsewhere.
"""

from __future__ import annotations

import dataclasses
import sys

from repro.config import GPUConfig, SchedulerPolicy
from repro.core.bow_sm import simulate_design
from repro.core.designs import design_names
from repro.experiments.runner import QUICK, benchmark_trace, design_spec

WINDOW = 3

#: Scheduler setups the gate covers (see the module docstring).
SCHEDULERS = {
    "gto": GPUConfig(),
    "lrr": GPUConfig(scheduler_policy=SchedulerPolicy.LRR),
    "two-level": GPUConfig(scheduler_policy=SchedulerPolicy.TWO_LEVEL,
                           two_level_active_warps=2),
}


def comparable(result) -> dict:
    counters = dataclasses.asdict(result.counters)
    counters.pop("fast_forwarded_cycles", None)
    return {
        "counters": counters,
        "registers": result.register_image,
        "memory": result.memory_image,
    }


def check(benchmark: str) -> int:
    failures = 0
    for design in design_names():
        spec = design_spec(design)
        trace = benchmark_trace(
            benchmark, QUICK, window_size=WINDOW if spec.hinted else None
        )
        for policy, config in SCHEDULERS.items():
            fast, slow = (
                simulate_design(
                    design, trace, window_size=WINDOW, config=config,
                    memory_seed=QUICK.memory_seed, fast_forward=loop,
                )
                for loop in (True, False)
            )
            label = f"{benchmark}/{design}/{policy}"
            a, b = comparable(fast), comparable(slow)
            jumped = fast.counters.fast_forwarded_cycles
            if a == b:
                pct = 100.0 * jumped / max(1, fast.counters.cycles)
                print(
                    f"{label}: OK ({fast.counters.cycles} cycles, "
                    f"{jumped} fast-forwarded, {pct:.0f}%)"
                )
                continue
            failures += 1
            print(f"{label}: MISMATCH", file=sys.stderr)
            for section in a:
                if a[section] == b[section]:
                    continue
                if section == "counters":
                    for key in a[section]:
                        if a[section][key] != b[section][key]:
                            print(
                                f"  counters.{key}: "
                                f"fast={a[section][key]} "
                                f"ref={b[section][key]}",
                                file=sys.stderr,
                            )
                else:
                    print(f"  {section} images differ", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(check(sys.argv[1] if len(sys.argv) > 1 else "SAD"))
