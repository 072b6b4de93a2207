"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                      — benchmarks and experiments available
  (``--designs`` adds the design registry).
* ``run BENCH [--design D]``    — simulate one benchmark, print metrics.
* ``sweep [BENCH ...]``         — run a benchmark x design x IW grid in
  parallel (``--jobs``) with a persistent on-disk run cache
  (``--cache-dir`` / ``--no-cache``) and fault-tolerant execution
  (``--keep-going`` / ``--retries`` / ``--timeout``); a partial sweep
  under ``--keep-going`` exits with status 3.
* ``trace BENCH [--design D]``  — simulate one benchmark with a
  cycle-level :class:`~repro.stats.trace.TraceRecorder` attached,
  print the per-stage event rollup, and optionally export the events
  (``--out`` + ``--format chrome|jsonl|csv``) for ``chrome://tracing``
  or downstream tooling.
* ``serve [--port P]``          — run the asyncio sweep service: an
  always-on server that accepts sweep jobs over newline-delimited
  JSON, deduplicates identical in-flight points across clients
  (single-flight on the run-cache key), and batches new work into
  the cached, fault-tolerant grid engine.  Production knobs:
  ``--max-queued`` / ``--max-inflight`` shed load with ``overloaded``
  responses, ``--journal`` enables crash-safe recovery of in-flight
  jobs, and SIGTERM (or a drain-mode shutdown request) drains
  gracefully within ``--drain-timeout`` seconds.
* ``loadgen [--clients N]``     — drive a running ``serve`` with N
  concurrent clients requesting an identical grid (cold pass + warm
  pass), print throughput/latency, and optionally write the
  ``BENCH_service.json`` report (``--bench-out``); ``--expect-dedup``
  turns the single-flight claims into exit-code assertions for CI.
* ``fuzz``                      — differential fuzzing: seed-driven
  random kernels (``repro.fuzz``) run through every registered design
  — single-SM and, with ``--sms N``, device-scale — and diffed
  against the functional reference; the first mismatch is shrunk to a
  minimal repro, written to ``--corpus-dir`` as a JSONL trace-case,
  and exits with status 4.  ``--inject-bug KIND`` fuzzes a
  deliberately broken design alongside (the harness's self-test).
* ``trace-import FILE``         — run an external JSONL trace-case
  (the documented corpus format, see
  :data:`repro.observe.schema.TRACE_CASE_SCHEMA`) through the normal
  launch path and print its counters; ``--verify`` additionally diffs
  the run against the reference (mismatch exits 4).
* ``experiment ID``             — regenerate a paper table/figure.
* ``ablation NAME``             — run one of the ablation studies.
* ``compile FILE``              — assemble + classify a kernel file,
  printing the BOW-WR hints (like ``examples/compiler_walkthrough.py``
  but for your own code).
* ``chaos-serve``               — service-layer chaos drill: SIGKILL a
  serving process mid-sweep, restart it over the same cache/journal,
  and assert the recovery invariants (zero duplicated simulations,
  dedup still holds), plus overload-shedding and graceful-drain
  checks (see :mod:`repro.testing.chaos_service`).
* ``figures``                   — render the registered publication
  figures (:mod:`repro.analysis`) from sweep telemetry
  (``--telemetry``, repeatable), a trace export (``--trace``), and/or
  bench reports (``--bench``, repeatable) into ``--out`` as
  Vega-Lite ``<name>.vl.json`` specs plus backing ``<name>.csv``
  tables; ``--list`` prints the registry, ``--only`` picks figures.

``sweep --telemetry FILE`` additionally streams one JSONL record per
resolved grid point (wall time, attempts, cache provenance) plus a
summary — the schema is checked in at
:data:`repro.observe.schema.TELEMETRY_SCHEMA`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BOW (MICRO 2020) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list benchmarks and experiments")
    list_cmd.add_argument("--designs", action="store_true",
                          help="also list the registered designs")

    run = sub.add_parser("run", help="simulate one benchmark")
    run.add_argument("benchmark")
    run.add_argument("--design", default="bow",
                     help="a registered design name "
                          "(see `repro list --designs`; default: bow)")
    run.add_argument("--window", type=int, default=3)
    run.add_argument("--warps", type=int, default=16)
    run.add_argument("--scale", type=float, default=0.25)
    run.add_argument("--seed", type=int, default=7,
                     help="memory-latency seed (default matches the "
                          "experiment drivers)")
    run.add_argument("--sms", type=int, default=None, metavar="N",
                     help="simulate the launch across N SMs and report "
                          "device-level numbers (default: the design's "
                          "registry default, see `repro list --designs`)")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes running the per-SM engines "
                          "for --sms (results are identical at any job "
                          "count; default: 1)")
    run.add_argument("--no-fast-forward", action="store_true",
                     help="tick the engine cycle-by-cycle instead of "
                          "jumping provably idle spans (results are "
                          "bit-identical; this is the diagnostic kill "
                          "switch, and it bypasses the run caches)")

    sweep = sub.add_parser(
        "sweep", help="run a benchmark x design x IW grid, cached")
    sweep.add_argument("benchmarks", nargs="*", metavar="BENCH",
                       help="benchmarks to sweep (default: the full suite)")
    sweep.add_argument("--designs", default="baseline,bow,bow-wr",
                       help="comma-separated design list")
    sweep.add_argument("--windows", default="3",
                       help="comma-separated instruction windows")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial)")
    sweep.add_argument("--warps", type=int, default=16)
    sweep.add_argument("--scale", type=float, default=0.25)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--sms", type=int, default=None, metavar="N",
                       help="partition every grid point across N SMs "
                            "(device-scale sweep; default: 1 SM)")
    sweep.add_argument("--cache-dir", default=None,
                       help="run-cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-bow/runs)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk run cache")
    sweep.add_argument("--expect-warm", action="store_true",
                       help="fail unless every run is a cache/memo hit "
                            "(CI warm-cache check)")
    sweep.add_argument("--expect-sims", type=int, default=None,
                       metavar="N",
                       help="fail unless exactly N run(s) had to be "
                            "simulated (CI healing check)")
    sweep.add_argument("--keep-going", action="store_true",
                       help="report failed grid points and continue "
                            "instead of aborting the sweep (partial "
                            "results exit with status 3)")
    sweep.add_argument("--retries", type=int, default=None, metavar="N",
                       help="attempts per point before it is recorded "
                            "as failed (default: 3 for transient "
                            "errors, 1 for permanent ones)")
    sweep.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-point wall-clock budget; over-budget "
                            "points are retried, then recorded as "
                            "failed")
    sweep.add_argument("--telemetry", default=None, metavar="FILE",
                       help="stream per-point telemetry (JSONL) to FILE "
                            "while the sweep runs")

    trace = sub.add_parser(
        "trace", help="simulate one benchmark with cycle-level tracing")
    trace.add_argument("benchmark")
    trace.add_argument("--design", default="bow",
                       help="a registered design name "
                            "(see `repro list --designs`; default: bow)")
    trace.add_argument("--window", type=int, default=3)
    trace.add_argument("--warps", type=int, default=16)
    trace.add_argument("--scale", type=float, default=0.25)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--capacity", type=int, default=65536,
                       help="ring-buffer size; the oldest events beyond "
                            "it are dropped (aggregates still cover them)")
    trace.add_argument("--kinds", default=None,
                       help="comma-separated event kinds to record "
                            "(default: all; see repro.stats.trace."
                            "EventKind)")
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="export the retained events to FILE")
    trace.add_argument("--format", default="chrome",
                       choices=["chrome", "jsonl", "csv"],
                       help="export format for --out (default: chrome "
                            "trace-event JSON for chrome://tracing)")

    serve = sub.add_parser(
        "serve", help="run the single-flight sweep service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8337,
                       help="TCP port to listen on (0 picks an "
                            "ephemeral port; default: 8337)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes inside each batched grid "
                            "call (default: 1)")
    serve.add_argument("--batch-window", type=float, default=None,
                       metavar="SECONDS",
                       help="how long the dispatcher lingers after new "
                            "work arrives so concurrent submissions "
                            "share one batch (default: 0.02)")
    serve.add_argument("--max-batch", type=int, default=None, metavar="N",
                       help="largest number of points dispatched as one "
                            "grid call (default: 64)")
    serve.add_argument("--cache-dir", default=None,
                       help="run-cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-bow/runs)")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without an on-disk run cache")
    serve.add_argument("--retries", type=int, default=None, metavar="N",
                       help="attempts per point before its waiters see "
                            "a failure (default: the sweep policy)")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-point wall-clock budget inside batches")
    serve.add_argument("--telemetry-dir", default=None, metavar="DIR",
                       help="stream per-job telemetry to DIR/job-NNNN"
                            ".jsonl plus a service-wide service.jsonl "
                            "(appended across restarts)")
    serve.add_argument("--journal", default=None, metavar="FILE",
                       help="crash-safe write-ahead job journal; on "
                            "restart, scheduled-but-unresolved points "
                            "are recovered against the warm cache")
    serve.add_argument("--max-queued", type=int, default=None, metavar="N",
                       help="admission bound on queued points; jobs "
                            "that would exceed it are shed with an "
                            "'overloaded' response (default: unbounded)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       metavar="N",
                       help="admission bound on concurrently active "
                            "jobs (default: unbounded)")
    serve.add_argument("--drain-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="hard bound on graceful drain (SIGTERM or "
                            "drain-mode shutdown; default: 30)")

    loadgen = sub.add_parser(
        "loadgen", help="benchmark a running sweep service")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8337)
    loadgen.add_argument("--clients", type=int, default=8,
                         help="concurrent client connections per pass "
                              "(default: 8)")
    loadgen.add_argument("--points", type=int, default=None, metavar="M",
                         help="cap each client's request at the first M "
                              "points of the expanded grid")
    loadgen.add_argument("--benchmarks", default="BFS,NW",
                         help="comma-separated benchmark list")
    loadgen.add_argument("--designs", default="baseline,bow",
                         help="comma-separated design list")
    loadgen.add_argument("--windows", default="3",
                         help="comma-separated instruction windows")
    loadgen.add_argument("--warps", type=int, default=4)
    loadgen.add_argument("--scale", type=float, default=0.1)
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument("--sms", type=int, default=None, metavar="N",
                         help="request device-scale points across N SMs")
    loadgen.add_argument("--priority", type=int, default=0)
    loadgen.add_argument("--bench-out", default=None, metavar="FILE",
                         help="write the JSON throughput/latency report "
                              "to FILE (the BENCH_service.json artifact)")
    loadgen.add_argument("--expect-dedup", action="store_true",
                         help="exit 1 unless the cold pass executed each "
                              "unique point exactly once and the warm "
                              "pass simulated nothing")
    loadgen.add_argument("--shutdown", action="store_true",
                         help="ask the server to shut down after the "
                              "final pass (CI cleanup)")

    fuzz = sub.add_parser(
        "fuzz", help="differential-fuzz every design vs the reference")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first case seed; case i uses seed+i "
                           "(default: 0)")
    fuzz.add_argument("--cases", type=int, default=50,
                      help="generated cases per campaign (default: 50)")
    fuzz.add_argument("--designs", default=None,
                      help="comma-separated design list (default: every "
                           "registered design)")
    fuzz.add_argument("--sms", type=int, default=1, metavar="N",
                      help="additionally run every design at device "
                           "scale across N SMs (default: 1 = single-SM "
                           "only)")
    fuzz.add_argument("--corpus-dir", default=None, metavar="DIR",
                      help="write the minimized repro of a mismatch to "
                           "DIR as a JSONL trace-case")
    fuzz.add_argument("--max-shrink", type=int, default=500, metavar="N",
                      help="shrinker budget in predicate evaluations "
                           "(default: 500)")
    fuzz.add_argument("--inject-bug", default=None, metavar="KIND",
                      help="register a deliberately broken design and "
                           "fuzz it alongside (see repro.testing.bugs."
                           "BUG_KINDS); the campaign must catch it")

    trace_import = sub.add_parser(
        "trace-import",
        help="run an external JSONL trace-case through the launch path")
    trace_import.add_argument("file", help="a JSONL trace-case (the "
                                           "corpus / ingestion format)")
    trace_import.add_argument("--design", default=None,
                              help="design to run (default: the case's "
                                   "recorded designs, else baseline)")
    trace_import.add_argument("--sms", type=int, default=None, metavar="N",
                              help="override the case's SM count")
    trace_import.add_argument("--window", type=int, default=None,
                              help="override the case's instruction "
                                   "window")
    trace_import.add_argument("--verify", action="store_true",
                              help="also diff the run against the "
                                   "functional reference; a mismatch "
                                   "exits with status 4")

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("artifact")
    experiment.add_argument("--full", action="store_true",
                            help="32-warp configuration")
    experiment.add_argument("--jobs", type=int, default=None,
                            help="worker processes for the timing grids")

    ablation = sub.add_parser("ablation", help="run an ablation study")
    ablation.add_argument(
        "name",
        choices=["scheduler", "eviction", "capacity", "window", "rf-size"],
    )
    ablation.add_argument("--benchmark", default="SAD")

    compile_cmd = sub.add_parser("compile",
                                 help="assemble + classify a kernel file")
    compile_cmd.add_argument("file")
    compile_cmd.add_argument("--window", type=int, default=3)

    chaos_serve = sub.add_parser(
        "chaos-serve",
        help="service-layer chaos drill: kill/restart recovery, "
             "overload shedding, graceful drain")
    chaos_serve.add_argument("--keep", action="store_true",
                             help="keep the scratch directory (journal, "
                                  "cache, telemetry) for inspection")
    chaos_serve.add_argument("--scenario", default="all",
                             choices=["all", "recovery", "overload"],
                             help="which drill to run (default: all)")
    chaos_serve.add_argument("--root", default=None, metavar="DIR",
                             help="pin the scratch directory (implies "
                                  "--keep; CI points this at the "
                                  "artifact path)")

    figures = sub.add_parser(
        "figures",
        help="render publication figures from telemetry/trace/bench files")
    figures.add_argument("--telemetry", action="append", default=[],
                         metavar="FILE",
                         help="sweep telemetry JSONL stream (repeat to "
                              "combine sweeps, e.g. one per --sms "
                              "setting); feeds the points/failures "
                              "figures")
    figures.add_argument("--trace", default=None, metavar="FILE",
                         help="trace event export from `repro trace "
                              "--out` (JSONL or CSV; inferred from the "
                              "extension); feeds the stall/BOC figures")
    figures.add_argument("--bench", action="append", default=[],
                         metavar="FILE",
                         help="BENCH_*.json report (repeatable); feeds "
                              "the throughput figures")
    figures.add_argument("--out", default="reports/figures", metavar="DIR",
                         help="output directory (default: reports/"
                              "figures)")
    figures.add_argument("--only", default=None,
                         help="comma-separated figure names to render "
                              "(default: every figure the inputs can "
                              "feed); missing inputs become errors")
    figures.add_argument("--list", action="store_true", dest="list_figures",
                         help="print the figure registry and exit")
    figures.add_argument("--format", default="both",
                         choices=["both", "spec", "csv"],
                         help="emit the Vega-Lite spec, the backing CSV, "
                              "or both (default: both)")
    return parser


def _cmd_list(args) -> int:
    from .experiments.registry import EXPERIMENTS
    from .kernels.suites import BENCHMARKS

    print("Benchmarks (paper Table III):")
    for name, profile in BENCHMARKS.items():
        print(f"  {name:12s} {profile.suite:10s} {profile.description}")
    print("\nExperiments (paper artifacts):")
    for key, (description, _) in EXPERIMENTS.items():
        print(f"  {key:8s} {description}")
    if args.designs:
        from .core.designs import design_specs

        print("\nDesigns (registry):")
        for spec in design_specs():
            flags = ",".join(
                flag for flag, on in
                (("hinted", spec.hinted), ("windowless", spec.windowless))
                if on
            ) or "-"
            print(f"  {spec.name:12s} {flags:18s} sms={spec.num_sms:<3d} "
                  f"{spec.description}")
        print("  (sms=N is the design's default SM count; override with "
              "`repro run --sms`)")
    return 0


def _cmd_run(args) -> int:
    from .energy import EnergyModel
    from .experiments.runner import (RunScale, resolve_num_sms, run_design,
                                     using_device_dispatch,
                                     using_fast_forward, validate_design)
    from .stats.report import format_percent

    validate_design(args.design)
    num_sms = resolve_num_sms(args.sms, args.design)
    scale = RunScale(num_warps=args.warps, trace_scale=args.scale,
                     memory_seed=args.seed, num_sms=num_sms)
    with using_device_dispatch(args.jobs), \
            using_fast_forward(not args.no_fast_forward):
        base = run_design(args.benchmark, "baseline", scale=scale)
        result = run_design(args.benchmark, args.design,
                            window_size=args.window, scale=scale)
    counters = result.counters
    device = f", {num_sms} SMs" if num_sms > 1 else ""
    print(f"{args.benchmark.upper()} on {args.design} "
          f"(IW={args.window}{device}):")
    print(f"  cycles            {counters.cycles}")
    if num_sms > 1 or not counters.cycles:
        # Device rollups sum the counter across SMs while cycles is the
        # slowest SM's finish time, so a fraction would mislead.
        print(f"  fast-forwarded    {counters.fast_forwarded_cycles} cycles")
    else:
        print(f"  fast-forwarded    {counters.fast_forwarded_cycles} cycles "
              f"({format_percent(counters.fast_forwarded_cycles / counters.cycles)})")
    ipc_label = "device IPC" if num_sms > 1 else "IPC"
    print(f"  {ipc_label:17s} {result.ipc:.3f} "
          f"({format_percent(result.ipc / base.ipc - 1.0)} vs baseline)")
    print(f"  RF reads/writes   {counters.rf_reads} / {counters.rf_writes}")
    print(f"  reads bypassed    {format_percent(counters.read_bypass_rate)}")
    print(f"  writes bypassed   {format_percent(counters.write_bypass_rate)}")
    savings = EnergyModel().savings(counters, base.counters)
    print(f"  RF dynamic energy {format_percent(savings)} saved")
    return 0


def _cmd_sweep(args) -> int:
    from .experiments.cache import RunCache, default_cache_dir
    from .experiments.grid import run_grid
    from .experiments.resilience import DEFAULT_POLICY, RetryPolicy
    from .experiments.runner import RunScale, resolve_num_sms
    from .kernels.suites import benchmark_names

    benchmarks = tuple(args.benchmarks) or benchmark_names()
    designs = tuple(
        name.strip() for name in args.designs.split(",") if name.strip()
    )
    try:
        windows = tuple(
            int(item) for item in args.windows.split(",") if item.strip()
        )
    except ValueError:
        print(f"error: --windows expects comma-separated integers, "
              f"got {args.windows!r}", file=sys.stderr)
        return 2
    if args.retries is not None and args.retries < 1:
        print("error: --retries must be >= 1", file=sys.stderr)
        return 2
    scale = RunScale(num_warps=args.warps, trace_scale=args.scale,
                     memory_seed=args.seed,
                     num_sms=resolve_num_sms(args.sms))
    if args.no_cache:
        cache = None
    else:
        cache = RunCache(args.cache_dir or default_cache_dir())
    retry = RetryPolicy(
        max_attempts=(DEFAULT_POLICY.max_attempts if args.retries is None
                      else args.retries),
        timeout=args.timeout,
    )
    telemetry = None
    if args.telemetry:
        from .observe.telemetry import TelemetryWriter
        telemetry = TelemetryWriter(args.telemetry)
    try:
        grid = run_grid(
            benchmarks, designs, windows, scale=scale, jobs=args.jobs,
            cache=cache, retry=retry, strict=not args.keep_going,
            progress=lambda line: print(line, file=sys.stderr),
            telemetry=telemetry,
        )
    finally:
        if telemetry is not None:
            telemetry.close()
    if args.telemetry:
        print(f"telemetry: {telemetry.records} record(s) -> "
              f"{args.telemetry}", file=sys.stderr)
        print(f"(render charts from it: python -m repro figures "
              f"--telemetry {args.telemetry})", file=sys.stderr)
    print(grid.format())
    # Report every diagnostic before deciding the exit code: a partial
    # grid always exits 3 (the documented --keep-going contract), even
    # when an --expect-warm/--expect-sims expectation also failed —
    # failed points are the more fundamental problem, and CI scripts
    # key on the documented code.
    expectation_failed = False
    if args.expect_warm and grid.simulated:
        print(f"error: expected a warm cache but {grid.simulated} run(s) "
              f"had to be simulated", file=sys.stderr)
        expectation_failed = True
    if args.expect_sims is not None and grid.simulated != args.expect_sims:
        print(f"error: expected exactly {args.expect_sims} simulated "
              f"run(s) but {grid.simulated} were", file=sys.stderr)
        expectation_failed = True
    if grid.failures:
        print(f"warning: {len(grid.failures)} grid point(s) failed; "
              f"see the failure table above", file=sys.stderr)
        return 3
    return 1 if expectation_failed else 0


def _cmd_trace(args) -> int:
    from .core.bow_sm import simulate_design
    from .experiments.runner import (RunScale, benchmark_trace,
                                     design_spec)
    from .observe.export import (write_chrome_trace, write_events_csv,
                                 write_events_jsonl)
    from .stats.trace import EventKind, TraceRecorder

    spec = design_spec(args.design)
    if args.capacity < 1:
        print("error: --capacity must be >= 1", file=sys.stderr)
        return 2
    kinds = None
    if args.kinds:
        try:
            kinds = frozenset(
                EventKind(item.strip())
                for item in args.kinds.split(",") if item.strip()
            )
        except ValueError:
            known = ", ".join(kind.value for kind in EventKind)
            print(f"error: --kinds expects a comma-separated subset of: "
                  f"{known}", file=sys.stderr)
            return 2
    scale = RunScale(num_warps=args.warps, trace_scale=args.scale,
                     memory_seed=args.seed)
    trace = benchmark_trace(
        args.benchmark, scale,
        window_size=args.window if spec.hinted else None,
    )
    recorder = TraceRecorder(capacity=args.capacity, kinds=kinds)
    result = simulate_design(
        args.design, trace, window_size=args.window,
        memory_seed=args.seed, recorder=recorder,
    )
    title = (f"{args.benchmark.upper()} on {args.design} "
             f"(IW={args.window}): {result.counters.cycles} cycles, "
             f"IPC {result.ipc:.3f}")
    print(title)
    print(recorder.format())
    if args.out:
        if args.format == "chrome":
            write_chrome_trace(
                recorder, args.out,
                process_name=f"{args.benchmark.upper()}/{args.design}")
        elif args.format == "jsonl":
            write_events_jsonl(recorder, args.out)
        else:
            write_events_csv(recorder, args.out)
        print(f"wrote {len(recorder.events)} of {recorder.emitted} "
              f"event(s) ({args.format}) -> {args.out}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .experiments.cache import RunCache, default_cache_dir
    from .experiments.resilience import DEFAULT_POLICY, RetryPolicy
    from .observe.telemetry import TelemetryWriter
    from .service import SweepService, serve

    if args.retries is not None and args.retries < 1:
        print("error: --retries must be >= 1", file=sys.stderr)
        return 2
    if args.no_cache:
        cache = None
    else:
        cache = RunCache(args.cache_dir or default_cache_dir())
    retry = RetryPolicy(
        max_attempts=(DEFAULT_POLICY.max_attempts if args.retries is None
                      else args.retries),
        timeout=args.timeout,
    )
    telemetry = None
    if args.telemetry_dir:
        import os

        os.makedirs(args.telemetry_dir, exist_ok=True)
        # append=True keeps the service-wide stream continuous across
        # restarts (a recovered incarnation must not erase the history
        # the post-mortem needs).
        telemetry = TelemetryWriter(
            os.path.join(args.telemetry_dir, "service.jsonl"), append=True)
    kwargs = {}
    if args.batch_window is not None:
        kwargs["batch_window"] = args.batch_window
    if args.max_batch is not None:
        kwargs["max_batch"] = args.max_batch
    service = SweepService(
        cache=cache, jobs=args.jobs, retry=retry, telemetry=telemetry,
        telemetry_dir=args.telemetry_dir, journal=args.journal or None,
        max_queued_points=args.max_queued,
        max_inflight_jobs=args.max_inflight, **kwargs,
    )
    serve_kwargs = {}
    if args.drain_timeout is not None:
        serve_kwargs["drain_timeout"] = args.drain_timeout
    try:
        asyncio.run(serve(
            args.host, args.port, service=service,
            announce=lambda line: print(line, file=sys.stderr, flush=True),
            **serve_kwargs,
        ))
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        if telemetry is not None:
            telemetry.close()
    return 0


def _cmd_loadgen(args) -> int:
    from .experiments.runner import RunScale, resolve_num_sms
    from .service import format_report, run_loadgen

    benchmarks = tuple(
        name.strip() for name in args.benchmarks.split(",") if name.strip()
    )
    designs = tuple(
        name.strip() for name in args.designs.split(",") if name.strip()
    )
    try:
        windows = tuple(
            int(item) for item in args.windows.split(",") if item.strip()
        )
    except ValueError:
        print(f"error: --windows expects comma-separated integers, "
              f"got {args.windows!r}", file=sys.stderr)
        return 2
    if args.clients < 1:
        print("error: --clients must be >= 1", file=sys.stderr)
        return 2
    if args.points is not None and args.points < 1:
        print("error: --points must be >= 1", file=sys.stderr)
        return 2
    scale = RunScale(num_warps=args.warps, trace_scale=args.scale,
                     memory_seed=args.seed,
                     num_sms=resolve_num_sms(args.sms))
    report = run_loadgen(
        args.host, args.port, clients=args.clients, benchmarks=benchmarks,
        designs=designs, windows=windows, scale=scale,
        max_points=args.points, priority=args.priority,
        shutdown=args.shutdown, report_path=args.bench_out,
    )
    print(format_report(report))
    if args.bench_out:
        print(f"report -> {args.bench_out}", file=sys.stderr)
    if args.expect_dedup and not report["single_flight"]["dedup_ok"]:
        flight = report["single_flight"]
        print(f"error: single-flight dedup violated: cold executed "
              f"{flight['cold_resolved_once']} of "
              f"{report['unique_points']} unique point(s) "
              f"({flight['cold_simulated']} simulated), warm simulated "
              f"{flight['warm_simulated']}", file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import run_fuzz
    from .testing.bugs import BUG_KINDS

    if args.cases < 1:
        print("error: --cases must be >= 1", file=sys.stderr)
        return 2
    if args.sms < 1:
        print("error: --sms must be >= 1", file=sys.stderr)
        return 2
    if args.max_shrink < 0:
        print("error: --max-shrink must be >= 0", file=sys.stderr)
        return 2
    if args.inject_bug is not None and args.inject_bug not in BUG_KINDS:
        print(f"error: --inject-bug expects one of: "
              f"{', '.join(BUG_KINDS)}", file=sys.stderr)
        return 2
    designs = None
    if args.designs:
        designs = tuple(
            name.strip() for name in args.designs.split(",") if name.strip()
        )
        if not designs:
            print("error: --designs expects a comma-separated design "
                  "list", file=sys.stderr)
            return 2
    report = run_fuzz(
        seed=args.seed, cases=args.cases, designs=designs, sms=args.sms,
        corpus_dir=args.corpus_dir, max_shrink=args.max_shrink,
        inject_bug=args.inject_bug,
        log=lambda line: print(line, file=sys.stderr),
    )
    if report.ok:
        print(f"fuzz: {report.cases} case(s) x "
              f"{len(report.designs)} design(s) = {report.runs} run(s), "
              f"no mismatches (seeds {args.seed}.."
              f"{args.seed + report.cases - 1})")
        return 0
    failure = report.failure
    print(f"fuzz: MISMATCH at seed {failure.seed} on "
          f"{failure.design!r} (num_sms={failure.num_sms}) after "
          f"{report.runs} run(s):", file=sys.stderr)
    if failure.fast_forward_only:
        print("  per-cycle re-run matches the reference: the divergence "
              "is in the fast-forward machinery, not the design model",
              file=sys.stderr)
    for mismatch in failure.mismatches:
        print(f"  {mismatch}", file=sys.stderr)
    shrink = failure.shrink
    print(f"  minimized to {shrink.case.trace.total_instructions} "
          f"instruction(s) / {shrink.case.trace.num_warps} warp(s) "
          f"in {shrink.attempts} attempt(s) "
          f"(-{shrink.removed_instructions} insts, "
          f"-{shrink.removed_warps} warps)", file=sys.stderr)
    if failure.corpus_path is not None:
        print(f"  repro -> {failure.corpus_path}", file=sys.stderr)
    else:
        print("  (pass --corpus-dir to save the minimized repro)",
              file=sys.stderr)
    return 4


def _cmd_trace_import(args) -> int:
    from dataclasses import replace

    from .core.bow_sm import simulate_design
    from .fuzz.differential import compare_case
    from .gpu.device import simulate_device
    from .kernels.external import load_case

    if args.sms is not None and args.sms < 1:
        print("error: --sms must be >= 1", file=sys.stderr)
        return 2
    if args.window is not None and args.window < 0:
        print("error: --window must be >= 0", file=sys.stderr)
        return 2
    case = load_case(args.file)
    if args.sms is not None:
        case = replace(case, num_sms=args.sms)
    if args.window is not None:
        case = replace(case, window=args.window)
    if args.design:
        designs = (args.design,)
    else:
        designs = case.designs or ("baseline",)

    failed = False
    for design in designs:
        if case.num_sms == 1:
            result = simulate_design(
                design, case.trace, window_size=case.window,
                memory_seed=case.memory_seed)
        else:
            result = simulate_device(
                design, case.trace, num_sms=case.num_sms,
                window_size=case.window, memory_seed=case.memory_seed,
                jobs=1,
            ).to_simulation_result()
        print(f"{case.name} on {design} (IW={case.window}, "
              f"{case.num_sms} SM(s), {case.trace.num_warps} warp(s)):")
        print(f"  cycles       {result.counters.cycles}")
        print(f"  instructions {result.counters.instructions}")
        print(f"  IPC          {result.ipc:.3f}")
        if args.verify:
            mismatches = compare_case(case, design)
            if mismatches:
                failed = True
                for mismatch in mismatches:
                    print(f"  MISMATCH {mismatch}", file=sys.stderr)
            else:
                print("  verified against the functional reference")
    return 4 if failed else 0


def _cmd_figures(args) -> int:
    from .analysis import FIGURES, build_inputs, render_figures

    if args.list_figures:
        print("Figures (repro.analysis registry):")
        for name, entry in FIGURES.items():
            requires = "+".join(entry.requires)
            paper = f"  [{entry.paper}]" if entry.paper else ""
            print(f"  {name:20s} {requires:14s} {entry.title}{paper}")
        return 0
    if not args.telemetry and not args.trace and not args.bench:
        print("error: give at least one input (--telemetry/--trace/"
              "--bench), or --list to see the registry", file=sys.stderr)
        return 2
    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = [name for name in only if name not in FIGURES]
        if unknown:
            print(f"error: unknown figure(s): {', '.join(unknown)} "
                  f"(see `repro figures --list`)", file=sys.stderr)
            return 2
    inputs = build_inputs(
        telemetry=args.telemetry, trace=args.trace, bench=args.bench,
    )
    for kind in ("points", "trace"):
        frame = inputs.get(kind)
        if frame is None or not frame.meta:
            continue
        salvaged = (frame.meta.get("corrupt_lines", 0)
                    + frame.meta.get("invalid_records", 0))
        if salvaged:
            print(f"warning: {kind}: skipped {salvaged} corrupt/invalid "
                  f"record(s)", file=sys.stderr)
    report = render_figures(
        inputs, args.out, only=only, format=args.format,
        log=lambda line: print(line, file=sys.stderr),
    )
    print(f"rendered {len(report.rendered)} figure(s) -> {args.out}"
          + (f" ({len(report.skipped)} skipped for missing inputs)"
             if report.skipped else ""))
    return 0 if report.rendered else 1


def _cmd_experiment(args) -> int:
    from .experiments import summary
    from .experiments.grid import using_jobs
    from .experiments.registry import run_experiment
    from .experiments.runner import FULL, QUICK

    scale = FULL if args.full else QUICK
    if args.artifact.lower() != "summary":
        print(run_experiment(args.artifact, scale=scale, jobs=args.jobs))
        return 0
    # The scorecard is a gate: any claim outside its band fails the run.
    with using_jobs(args.jobs):
        card = summary.headline_summary(scale=scale)
    print(card.format())
    return 0 if card.all_hold else 1


def _cmd_ablation(args) -> int:
    from .experiments import ablations

    if args.name == "scheduler":
        print(ablations.scheduler_ablation().format())
    elif args.name == "eviction":
        print(ablations.eviction_ablation().format())
    elif args.name == "capacity":
        print(ablations.capacity_sweep(args.benchmark).format())
    elif args.name == "window":
        print(ablations.window_sweep(args.benchmark).format())
    else:
        print(ablations.effective_rf_study().format())
    return 0


def _cmd_compile(args) -> int:
    from .compiler.writeback import classify_linear_writes
    from .isa import parse_program
    from .stats.report import format_table

    with open(args.file, encoding="utf-8") as handle:
        program = parse_program(handle.read())
    decisions = {
        item.index: item for item in
        classify_linear_writes(program, args.window)
    }
    rows = []
    for index, inst in enumerate(program):
        item = decisions.get(index)
        rows.append([
            index,
            str(inst),
            item.writeback.value if item else "",
            "yes" if item and item.needs_rf else "",
        ])
    print(format_table(["#", "instruction", "destination", "RF write"],
                       rows, title=f"{args.file} (IW={args.window})"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "loadgen":
            return _cmd_loadgen(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "trace-import":
            return _cmd_trace_import(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "ablation":
            return _cmd_ablation(args)
        if args.command == "compile":
            return _cmd_compile(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "chaos-serve":
            from .testing import chaos_service

            return chaos_service.run(scenario=args.scenario,
                                     keep=args.keep, root=args.root)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
