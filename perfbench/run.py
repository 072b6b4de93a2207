"""The repository's benchmark: one command, three gated workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py`` for why each exists): ``scorecard-warm``,
``device-fanout``, ``service-mixed``, plus ``scorecard-cold``, which runs
by hand but is not in ``BENCHMARK.json``: one pass outlasts a run.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
once, then timed passes until ``--seconds`` have elapsed (at least one).
``--trace 1`` is the separate traced run: untraced passes for half the
time, traced passes for the other half, then (where the engine runs) one
profiled pass; it reports the per-layer metrics.  Both check every
output and count failed operations against those attempted.

Human-readable results go to standard output; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` whose metric
names and units are those declared in ``BENCHMARK.json``.  Scratch files
live under ``.perfbench-work/`` in the checkout; the traced run leaves
its spans there as ``spans-<workload>-seed<N>.json``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
IMPORT_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import_seconds(modules, host):
    """Time a fresh interpreter importing ``modules``, several times,
    sampling ``host`` (a ``HostSpeed``) before each."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    samples = []
    for _ in range(IMPORT_REPEATS):
        host.sample()
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import " + ", ".join(modules)],
                       env=env, cwd=str(ROOT), check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return samples


def measure(workload, seconds, in_process=False, host=None):
    """Timed passes until ``seconds`` have elapsed (at least one).

    Each pass starts from a collected heap, so the previous pass's
    garbage does not trigger a full collection inside the next one.
    ``host``, a ``HostSpeed``, is sampled before every pass and after
    the last, once the previous pass's pool workers have exited, so
    that they do not compete with the samples.
    """
    def sample_host():
        if host is not None:
            for child in multiprocessing.active_children():
                child.join()
            host.sample()

    passes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        sample_host()
        passes.append(workload.run_pass(in_process))
        if time.perf_counter() - started >= seconds:
            sample_host()
            return passes


def reap_children(timeout=30.0):
    """Wait for every child process this run started to end."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()


def end_to_end(passes, setup_samples, peak_mib, scale, setup_scale):
    """``metric -> (value, raw value, samples)`` for the untraced run.

    Host-time figures are the best over the run's repetitions: the
    fastest pass, and each grid point at its fastest.  A shared host
    switches between speeds that differ by up to 1.8x for seconds at a
    time, so a median over passes lands in whichever speed held most
    of the run, while the best pass is the program's own cost.  Each is
    then multiplied by ``scale`` (``HostSpeed.scale`` over the passes)
    for a spell that covers the whole run; ``setup_s`` by
    ``setup_scale``, the same taken around set-up.
    """
    from measure import median, percentile

    wall = [p.seconds for p in passes]
    rate = [p.points / p.seconds for p in passes]
    by_job = {}
    for p in passes:
        for job, ms in p.job_ms.items():
            by_job.setdefault(job, []).append(ms)
    if len(by_job) < sum(len(p.job_ms) for p in passes):
        # Jobs that recur in every pass (grid points): each at its best.
        jobs = [min(values) for values in by_job.values()]
        p50, p99 = percentile(jobs, 50.0), percentile(jobs, 99.0)
    else:
        # Jobs that never recur (service requests): the best pass's
        # percentiles.
        jobs = [ms for p in passes for ms in p.job_ms.values()]
        p50 = min(percentile(list(p.job_ms.values()), 50.0) for p in passes)
        p99 = min(percentile(list(p.job_ms.values()), 99.0) for p in passes)
    raw = {
        "setup_s": (median(setup_samples), setup_samples),
        "wall_s": (min(wall), wall),
        "points_per_s": (max(rate), rate),
        "job_p50_ms": (p50, jobs),
        "job_p99_ms": (p99, jobs),
    }
    scales = {"setup_s": setup_scale, "points_per_s": 1.0 / scale}
    computed = {name: (value * scales.get(name, scale), value, samples)
                for name, (value, samples) in raw.items()}
    computed["peak_rss_mb"] = (peak_mib, peak_mib, [peak_mib])
    return computed


def scorecard_model(seed):
    """Run the scorecard at ``seed`` (jobs=2, no disk cache) for the
    model counts of a workload that does not run it itself."""
    import model
    from repro.experiments import grid, runner, summary
    from repro.experiments.runner import QUICK

    scale = replace(QUICK, memory_seed=seed)
    previous = runner.set_cache(None)
    runner.clear_cache()
    try:
        with grid.using_jobs(2):
            card = summary.headline_summary(scale)
        return model.scorecard_results(scale), card
    finally:
        runner.set_cache(previous)


def traced(workload, seconds, report):
    """The traced run: per-layer metrics plus the passes it made."""
    import model
    from layers import EngineProfiler, LayerProbe
    from measure import median
    from repro.experiments import runner
    from workloads import ScorecardCold, pool_metrics

    half = seconds / 2.0
    timed = measure(workload, half)
    in_process = (measure(workload, half, in_process=True)
                  if workload.in_process_trace else [])
    reference = in_process or timed
    cache = runner.get_cache()
    hits = bytes_read = 0
    if cache is not None:
        hits, bytes_read = cache.stats.hits, cache.stats.bytes_read
    before = workload.snapshot()
    probe = LayerProbe()
    probe.install()
    try:
        traced_passes = measure(workload, half, in_process=True)
    finally:
        probe.uninstall()
    count = len(traced_passes)
    metrics = probe.metrics(count)
    metrics.update(workload.layer_metrics(traced_passes, before))
    if cache is not None:
        hits = (cache.stats.hits - hits) / count
        bytes_read = (cache.stats.bytes_read - bytes_read) / count
    metrics["experiments.cache.hits"] = hits
    metrics["experiments.cache.bytes_read"] = bytes_read
    metrics.update(timed[-1].pool or pool_metrics(None))

    profiler = EngineProfiler()
    passes = timed + in_process + traced_passes
    if workload.profiles_engine:
        profiler.install()
        try:
            passes.append(workload.run_pass(in_process=True))
        finally:
            profiler.uninstall()
    metrics.update(profiler.shares())

    traced_wall = sum(p.seconds for p in traced_passes)
    attributed = sum(probe.self_seconds().values())
    metrics["trace.overhead_s"] = (
        median([p.seconds for p in traced_passes])
        - median([p.seconds for p in reference]))
    metrics["trace.unattributed_share"] = max(
        0.0, 1.0 - attributed / traced_wall)

    if isinstance(workload, ScorecardCold) and passes[-1].scorecard:
        results = model.scorecard_results(workload.scale)
        card = passes[-1].scorecard
    else:
        results, card = scorecard_model(workload.seed)
    counts = model.model_counts(results)
    metrics.update(counts)

    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{workload.name}-seed{workload.seed}.json"
    probe.tracer.write(str(spans))

    report.append(f"traced: {len(timed)} untraced pass(es), "
                  f"{len(in_process)} untraced in-process, {count} traced, "
                  f"{1 if workload.profiles_engine else 0} profiled; "
                  f"{len(probe.tracer.spans)} spans -> "
                  f"{spans.relative_to(ROOT)}")
    report.append("self time by layer (traced passes, s per pass):")
    for name, self_s in sorted(probe.self_seconds().items(),
                               key=lambda item: -item[1]):
        report.append(f"  {name:<28} {self_s / count:10.4f}  "
                      f"{100.0 * self_s / traced_wall:6.2f}%")
    report.append(f"  {'unattributed':<28} "
                  f"{(traced_wall - attributed) / count:10.4f}  "
                  f"{100.0 * (1.0 - attributed / traced_wall):6.2f}%")
    engine = probe.engine
    if engine["runs"]:
        report.append(
            f"fast-forward share per SM: {engine['fast_forwarded']} of "
            f"{engine['cycles']} cycles over {engine['runs']} SMEngine.run "
            f"results = {metrics['gpu.sm.fast_forward_share']:.4f}")
    if timed[-1].merged_ff_share is not None:
        report.append(
            f"  (merged device counters sum fast_forwarded_cycles but take "
            f"the max of cycles, so they would read "
            f"{timed[-1].merged_ff_share:.4f})")
    report.append(model.format_report(counts, card))
    return metrics, passes


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    for name in ("REPRO_JOBS", "REPRO_CACHE_DIR"):
        os.environ.pop(name, None)
    # Every process compiles from source, as in a fresh checkout, so
    # set-up time does not depend on bytecode left by an earlier run.
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    from measure import HostSpeed, TreeMemory, median, tail
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(run_dir / "tmp")

    workload = WORKLOADS[args.workload](seed, run_dir)
    host = HostSpeed()
    setup_host = HostSpeed()
    imports = fresh_import_seconds(workload.modules, setup_host)
    memory = TreeMemory()
    memory.start()
    report = []
    try:
        one_time = workload.setup()
        first_op = time.perf_counter() - STARTED
        setup_host.sample()
        setup_samples = [seconds + one_time for seconds in imports]
        if args.trace:
            metrics, passes = traced(workload, args.seconds, report)
        else:
            passes = measure(workload, args.seconds, host=host)
        errors = [error for p in passes for error in p.errors]
        errors += workload.finish()
        memory.sample()
    finally:
        try:
            workload.close()
        finally:
            memory.stop()
            reap_children()
            shutil.rmtree(run_dir, ignore_errors=True)
    samples = {}
    raw = {}
    if not args.trace:
        computed = end_to_end(passes, setup_samples, memory.peak_mib(),
                              host.scale(), setup_host.scale())
        metrics = {name: value for name, (value, _, _) in computed.items()}
        raw = {name: value for name, (_, value, _) in computed.items()}
        samples = {name: values for name, (_, _, values) in computed.items()}

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in wanted})
    if missing or extra:
        errors.append(f"metrics differ from BENCHMARK.json: missing "
                      f"{missing}, undeclared {extra}")

    print(f"perfbench {args.workload}: seed {seed} (default {DEFAULT_SEED}, "
          f"held-out {HELD_OUT_SEED}), {len(passes)} pass(es), "
          f"trace={args.trace}")
    print(f"process start -> first timed operation: {first_op:.3f}s "
          f"(fresh-interpreter imports {', '.join(f'{s:.3f}' for s in imports)}"
          f"s; one-time set-up {one_time:.3f}s)")
    for line in report:
        print(line)
    if passes and passes[-1].scorecard is not None and not args.trace:
        print(passes[-1].scorecard.format())
    if not args.trace:
        print(f"host speed: reference loop p10 "
              f"{host.loop_seconds() * 1e6:.1f} us over {len(host.samples)} "
              f"samples between passes, scale {host.scale():.4f}; "
              f"{setup_host.loop_seconds() * 1e6:.1f} us over "
              f"{len(setup_host.samples)} around set-up, scale "
              f"{setup_host.scale():.4f} (nominal "
              f"{HostSpeed.REFERENCE_SECONDS * 1e6:.1f} us); 'raw' is before "
              f"scaling, 'median' and 'tail' are over the raw samples")
    print(f"{'metric':<44} {'unit':>11} {'value':>14} {'raw':>12} "
          f"{'median':>12} {'tail':>20} {'n':>6}")
    for entry in wanted:
        name = entry["name"]
        value = metrics.get(name)
        if value is None:
            continue
        if name in samples:
            values = samples[name]
            high = tail(values)
            shown = "-" if high is None else f"p{high[0]:.1f}={high[1]:.4g}"
            print(f"{name:<44} {entry['unit']:>11} {value:>14.6g} "
                  f"{raw[name]:>12.6g} {median(values):>12.6g} {shown:>20} "
                  f"{len(values):>6}")
        else:
            print(f"{name:<44} {entry['unit']:>11} {value:>14.6g}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"operations: {attempted} attempted, {failed} failed; "
          f"checks: {'all passed' if not errors else f'{len(errors)} failed'}")
    for error in errors[:20]:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in wanted if entry["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
