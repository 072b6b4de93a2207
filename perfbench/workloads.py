"""The benchmark's four workloads, and why each one exists.

``BENCHMARK.json`` gates three of them.  ``scorecard-cold`` runs by hand
only: one pass takes 16-28 s, too few passes fit in a run for a steady
figure, and its layers are measured by the other three.

Every workload pins its own worker count and disk cache; nothing is
inherited from ``REPRO_JOBS`` or ``REPRO_CACHE_DIR``.  The seed sets
the grid's ``memory_seed`` and the service job stream; the program only
ever sees the generated inputs.

=================  ==============================  =======================  ========
workload           does most of the work           does (almost) nothing    ROADMAP
=================  ==============================  =======================  ========
scorecard-cold     gpu.sm engine (~88%),           experiments.cache,       1, 3
                   core.window analysis (~10%)     grid pool, service
scorecard-warm     core.window (75-87%), kernels +   gpu.* engine, decode     4, 1
                   compiler, cache reads, decode
                   of cached results
device-fanout      grid process pool, pickling,    experiments.cache,       2, 3
                   gpu.device partition/merge,     core.window, service
                   engine on idle spans
service-mixed      service admission, queue,       experiments.cache,       5
                   batch window, JSONL wire,       gpu.device
                   warm dict; engine in the tail
=================  ==============================  =======================  ========
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import model
from repro.errors import ReproError, ServiceError
from repro.experiments import grid, runner, summary
from repro.experiments.cache import RunCache
from repro.experiments.runner import DEVICE_QUICK, QUICK, RunScale
from repro.kernels.suites import benchmark_names
from repro.service.client import ServiceClient

#: The seed the benchmark runs at unless told otherwise (QUICK's own
#: memory seed, so the default run reproduces the committed reports).
DEFAULT_SEED = 7

#: A seed never used while tuning: a performance claim made at the
#: default seed must also hold here.
HELD_OUT_SEED = 2027

SERVICE_METRICS = (
    "service.server_job_ms", "service.wire_ms", "service.warm_hit_ratio",
    "service.coalesced_ratio", "service.batch_size",
    "service.sim_s_per_point", "service.simulated",
)


@dataclass
class PassResult:
    """One timed pass of a workload and what its checks found.

    ``job_ms`` maps each job to its latency: a grid point on the grid
    workloads (its simulation, or its cache fetch on scorecard-warm),
    a ``sweep`` request on service-mixed.  A grid point is the same job
    in every pass; a service request is a job of its own.
    """

    seconds: float
    points: int
    attempted: int
    failed: int
    job_ms: Dict[object, float]
    errors: List[str] = field(default_factory=list)
    pool: Optional[Dict[str, float]] = None
    merged_ff_share: Optional[float] = None
    scorecard: Optional[summary.HeadlineSummary] = None
    service: Optional[dict] = None


def digest(result) -> str:
    """Counters plus register/memory images, hashed."""
    payload = json.dumps([
        result.counters.as_dict(),
        sorted(result.register_image.items()),
        sorted(result.memory_image.items()),
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def point_ms(result: grid.GridResult) -> Dict[str, float]:
    """Milliseconds each resolved point took (simulation or fetch)."""
    return {record.point.label(): record.seconds * 1000.0
            for record in result.records}


def pool_metrics(result: Optional[grid.GridResult]) -> Dict[str, float]:
    """Pool-layer numbers of one ``run_grid`` call (zeros without one)."""
    if result is None:
        return {"experiments.grid.worker_busy_s": 0.0,
                "experiments.grid.parallel_efficiency": 0.0,
                "experiments.grid.overhead_s": 0.0}
    busy = sum(record.seconds for record in result.records
               if record.source == "sim")
    wall = result.wall_seconds
    return {
        "experiments.grid.worker_busy_s": busy,
        "experiments.grid.parallel_efficiency": (
            busy / (wall * result.jobs) if wall else 0.0),
        "experiments.grid.overhead_s": wall - busy / result.jobs,
    }


def designs_agree(results, designs) -> List[str]:
    """Every design of a benchmark must commit the same instructions and
    leave the same memory image: bypassing never changes results."""
    errors = []
    for bench in benchmark_names():
        runs = [results[bench, design] for design in designs
                if (bench, design) in results]
        if len({run.counters.instructions for run in runs}) > 1:
            errors.append(f"{bench}: instruction counts differ across designs")
        if any(run.memory_image != runs[0].memory_image for run in runs[1:]):
            errors.append(f"{bench}: memory images differ across designs")
    return errors


class Workload:
    """A workload: one-time set-up, then repeatable timed passes."""

    name = ""
    #: Modules a user's process imports for this workload.
    modules: Tuple[str, ...] = ()
    #: Traced passes resolve every point in this process.
    in_process_trace = False
    #: The traced run attaches the engine profiler.
    profiles_engine = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> float:
        """Prepare the first pass; returns its set-up seconds."""
        runner.set_cache(None)
        grid.set_default_jobs(1)
        return 0.0

    def run_pass(self, in_process: bool = False) -> PassResult:
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Checks over the whole run; returns error messages."""
        return []

    def snapshot(self):
        return None

    def layer_metrics(self, passes: List[PassResult], before) -> Dict:
        """Service-layer metrics; zero where no service runs."""
        return {name: 0.0 for name in SERVICE_METRICS}

    def close(self) -> None:
        pass


class ScorecardCold(Workload):
    """``headline_summary(QUICK)`` from an empty memo and trace cache,
    disk cache off, grid at jobs=1: 75 simulations plus 11 claims.

    What someone regenerating the paper's numbers pays.  The engine is
    ~88% of a pass and the claim analysis ~10%; cache, fan-out and
    service do nothing.  At 16 warps per SM busy cycles dominate
    (fast-forward covers ~47% of cycles).  Serves ROADMAP items 1
    (decode) and 3 (engine special cases).
    """

    name = "scorecard-cold"
    modules = ("repro.experiments.summary",)
    profiles_engine = True

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.scale = replace(QUICK, memory_seed=seed)
        self.reference: Optional[Dict] = None

    def _expected_simulations(self) -> int:
        return len(benchmark_names()) * len(model.SCORECARD_DESIGNS)

    def run_pass(self, in_process: bool = False) -> PassResult:
        points = len(benchmark_names()) * len(model.SCORECARD_DESIGNS)
        runner.clear_cache()
        simulated = runner.simulations_run()
        started = time.perf_counter()
        try:
            # The scorecard's own grid, resolved first so that each
            # point's time is visible; headline_summary then finds every
            # point in the memo.
            resolved = grid.run_grid(benchmark_names(),
                                     model.SCORECARD_DESIGNS, (3,),
                                     scale=self.scale)
            card = summary.headline_summary(self.scale)
        except ReproError as error:
            seconds = time.perf_counter() - started
            attempted = points + model.SCORECARD_CLAIMS
            return PassResult(seconds, points, attempted, attempted,
                              {"scorecard": seconds * 1000.0},
                              errors=[f"scorecard failed: {error}"])
        seconds = time.perf_counter() - started
        simulated = runner.simulations_run() - simulated
        results = model.scorecard_results(self.scale)
        missing = points - len(results)
        broken = [claim.name for claim in card.claims if not claim.holds]
        errors = [f"claim out of band: {name}" for name in broken]
        if missing:
            errors.append(f"{missing} grid point(s) unresolved")
        if simulated != self._expected_simulations():
            errors.append(f"{simulated} simulation(s), expected "
                          f"{self._expected_simulations()}")
        errors += designs_agree(results, model.SCORECARD_DESIGNS)
        digests = {key: digest(result) for key, result in results.items()}
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            errors.append("results differ from the reference run")
        return PassResult(seconds, points, points + len(card.claims),
                          missing + len(broken), point_ms(resolved),
                          errors=errors, pool=pool_metrics(resolved),
                          scorecard=card)


class ScorecardWarm(ScorecardCold):
    """The same scorecard served from a ``RunCache`` filled during
    set-up; memo and trace cache are cleared before every pass.

    The engine does nothing here.  75-87% of a pass is the Figure 3
    window analysis (``core.window`` calling
    ``compiler.writeback.classify_linear_writes``); the rest is trace
    generation, hint compilation, cache reads and result decoding.  An
    engine gain must show no change here; a cache-key change (ROADMAP
    item 4) or an analysis change shows only here.
    """

    name = "scorecard-warm"
    profiles_engine = False

    def setup(self) -> float:
        super().setup()
        self.cache = RunCache(self.work_dir / "runs")
        runner.set_cache(self.cache)
        runner.clear_cache()
        started = time.perf_counter()
        fill = grid.run_grid(benchmark_names(), model.SCORECARD_DESIGNS,
                             (3,), scale=self.scale, jobs=2,
                             cache=self.cache)
        self.reference = {(bench, design): digest(fill.get(bench, design))
                          for bench in benchmark_names()
                          for design in model.SCORECARD_DESIGNS}
        # The fill's pool workers exit in the background; let them go
        # and run one untimed pass, so every timed pass starts alike.
        for child in multiprocessing.active_children():
            child.join()
        self.warmup_errors = self.run_pass().errors
        return time.perf_counter() - started

    def finish(self) -> List[str]:
        return self.warmup_errors

    def _expected_simulations(self) -> int:
        return 0

    def run_pass(self, in_process: bool = False) -> PassResult:
        hits = self.cache.stats.hits
        result = super().run_pass(in_process)
        served = self.cache.stats.hits - hits
        if served != result.points:
            result.errors.append(f"{served} cache hit(s), expected "
                                 f"{result.points}")
        return result


class DeviceFanout(Workload):
    """``run_grid`` over 15 benchmarks x {baseline, bow, bow-wr, rfc} at
    ``DEVICE_QUICK`` (4 SMs x 4 warps), disk cache off, jobs=2.

    The only workload through the grid's process pool, result pickling
    and ``gpu.device`` partition/merge: the paths ROADMAP item 2
    rewrites.  With 4 warps per SM idle spans dominate, so an engine
    change trading per-busy-cycle cost against fast-forward coverage
    (item 3) shows opposite signs here and on scorecard-cold.
    """

    name = "device-fanout"
    modules = ("repro.experiments.grid",)
    in_process_trace = True
    profiles_engine = True
    DESIGNS = ("baseline", "bow", "bow-wr", "rfc")
    JOBS = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.scale = replace(DEVICE_QUICK, memory_seed=seed)
        self.reference: Optional[Dict] = None

    def run_pass(self, in_process: bool = False) -> PassResult:
        points = len(benchmark_names()) * len(self.DESIGNS)
        runner.clear_cache()
        started = time.perf_counter()
        result = grid.run_grid(benchmark_names(), self.DESIGNS, (3,),
                               scale=self.scale,
                               jobs=1 if in_process else self.JOBS,
                               cache=None, strict=False)
        seconds = time.perf_counter() - started
        results = {}
        for bench in benchmark_names():
            for design in self.DESIGNS:
                try:
                    results[bench, design] = result.get(bench, design)
                except ReproError:
                    pass  # counted below; the failure names the cause
        errors = [f"{failure.label}: {failure.error_type}"
                  for failure in result.failures]
        if len(results) != points:
            errors.append(f"{points - len(results)} grid point(s) unresolved")
        errors += designs_agree(results, self.DESIGNS)
        digests = {key: digest(run) for key, run in results.items()}
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            errors.append("results differ from the reference run")
        merged = results.values()
        merged_ff_share = (
            sum(run.counters.fast_forwarded_cycles for run in merged)
            / max(1, sum(run.counters.cycles for run in merged)))
        return PassResult(seconds, points, points, points - len(results),
                          point_ms(result), errors=errors,
                          pool=pool_metrics(result),
                          merged_ff_share=merged_ff_share)


class ServiceMixed(Workload):
    """A ``repro serve --no-cache`` subprocess driven as a closed loop
    over two connections with a seeded stream of 4-point jobs at 4 warps
    and ``trace_scale`` 0.1.

    Per pass each client sends 16 jobs: 14 draw their points from a hot
    set (15 benchmarks x 4 designs at the seed's scale, warmed during
    set-up) and 2 ask for never-seen points (a fresh memory seed).  The
    first fresh job is the same for both clients, so simulation,
    single-flight coalescing, batching and warm hits happen at a steady
    rate, not only in a cold head.  The service's admission, queue,
    batch window, JSONL wire and warm dict do most of the work; p50 is
    the wire plus the warm dict, p99 is queued simulation.  Serves
    ROADMAP item 5 (spans across layers).

    The clients go step by step: both send their fresh jobs at once,
    so those meet in one flight or one batch, and take turns on hot
    jobs.  Sent at once, one of two hot jobs always waited for the
    other, which split hot latency into two equal modes with p50 on the
    edge between them.
    """

    name = "service-mixed"
    modules = ("repro.service.client",)
    CLIENTS = 2
    JOBS_PER_PASS = 16
    NEW_PER_PASS = 2
    POINTS_PER_JOB = 4
    DESIGNS = ("baseline", "bow", "bow-wr", "rfc")
    SERVER_STARTS = 3
    START_TIMEOUT = 60.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.hot_scale = RunScale(num_warps=4, trace_scale=0.1,
                                  memory_seed=seed)
        self.hot = [(bench, design, 3) for bench in benchmark_names()
                    for design in self.DESIGNS]
        self.loop = asyncio.new_event_loop()
        self.proc: Optional[subprocess.Popen] = None
        self.control: Optional[ServiceClient] = None
        self.clients: List[ServiceClient] = []
        self.pass_index = 0
        self.new_keys = set()
        self.seen: Dict[tuple, Tuple[int, int]] = {}
        self.simulated_keys: Dict[tuple, int] = {}
        self.instructions: Dict[tuple, set] = {}
        self.baseline_stats: Optional[dict] = None
        self.starts = 0

    # -- server lifecycle ---------------------------------------------

    def _start_server(self) -> None:
        self.starts += 1
        log_path = self.work_dir / f"server-{self.starts}.log"
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(grid.__file__).resolve().parents[2])
        env["TMPDIR"] = str(self.work_dir)
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--no-cache",
                 "--port", "0", "--jobs", "1"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, env=env, cwd=str(self.work_dir))
        deadline = time.monotonic() + self.START_TIMEOUT
        port = None
        while port is None:
            text = log_path.read_text(encoding="utf-8", errors="replace")
            match = re.search(r"listening on [^:\s]+:(\d+)", text)
            if match:
                port = int(match.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start:\n{text[-2000:]}")
            else:
                time.sleep(0.005)
        self.control = ServiceClient("127.0.0.1", port)
        self.clients = [ServiceClient("127.0.0.1", port)
                        for _ in range(self.CLIENTS)]

        async def connect() -> None:
            await self.control.connect(retry_seconds=10.0)
            response = await self.control.ping()
            if not response.get("ok"):
                raise RuntimeError(f"ping failed: {response}")

        self.loop.run_until_complete(connect())

    def _stop_server(self) -> None:
        if self.proc is None:
            return

        async def stop() -> None:
            for client in self.clients:
                await client.close()
            if self.control is not None:
                try:
                    await self.control.shutdown()
                except (ServiceError, OSError, ValueError):
                    pass
                await self.control.close()

        try:
            self.loop.run_until_complete(stop())
        finally:
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None
            self.control = None
            self.clients = []

    def setup(self) -> float:
        starts = []
        for attempt in range(self.SERVER_STARTS):
            started = time.perf_counter()
            self._start_server()
            starts.append(time.perf_counter() - started)
            if attempt + 1 < self.SERVER_STARTS:
                self._stop_server()

        async def warm() -> dict:
            for client in self.clients:
                await client.connect()
            return await self.control.sweep(points=self.hot,
                                            scale=self.hot_scale)

        started = time.perf_counter()
        response = self.loop.run_until_complete(warm())
        warmed = time.perf_counter() - started
        if not response.get("ok"):
            raise RuntimeError(f"warming the hot set failed: {response}")
        self.baseline_stats = self.snapshot()
        return statistics.median(starts) + warmed

    def snapshot(self) -> dict:
        return self.loop.run_until_complete(self.control.stats())["stats"]

    def close(self) -> None:
        try:
            self._stop_server()
        finally:
            self.loop.close()

    # -- the job stream -----------------------------------------------

    def _new_job(self, slot: int):
        memory_seed = self.seed + 1 + 3 * self.pass_index + slot
        rng = random.Random(f"{self.seed}:{self.pass_index}:new:{slot}")
        points = rng.sample(self.hot, self.POINTS_PER_JOB)
        for bench, design, window in points:
            self.new_keys.add((bench, design, window, memory_seed))
        return points, replace(self.hot_scale, memory_seed=memory_seed)

    def _client_jobs(self, client: int):
        """This pass's jobs for one client.

        Both clients meet their fresh jobs at the same positions, so the
        first (slot 0, shared) coalesces into one flight and the second
        (slot ``1 + client``, each client's own) lands in one batch.
        Keeping the clients in step this way makes each pass the same
        shape, which is what keeps the figures steady between runs.
        """
        positions = sorted(random.Random(
            f"{self.seed}:{self.pass_index}:positions").sample(
                range(self.JOBS_PER_PASS), self.NEW_PER_PASS))
        fresh = dict(zip(positions, [0, 1 + client]))
        rng = random.Random(f"{self.seed}:{self.pass_index}:{client}")
        return [self._new_job(fresh[index]) if index in fresh
                else (rng.sample(self.hot, self.POINTS_PER_JOB),
                      self.hot_scale)
                for index in range(self.JOBS_PER_PASS)]

    @staticmethod
    async def _send(client: ServiceClient, points, scale) -> tuple:
        started = time.perf_counter()
        try:
            response = await client.sweep(points=points, scale=scale)
        except (ServiceError, OSError, ValueError) as error:
            response = {"ok": False, "error": str(error)}
        return time.perf_counter() - started, scale, response

    def run_pass(self, in_process: bool = False) -> PassResult:
        jobs = [self._client_jobs(client) for client in range(self.CLIENTS)]
        self.pass_index += 1

        async def drive_all() -> List[tuple]:
            outcomes = []
            for step in zip(*jobs):
                sends = [self._send(client, points, scale)
                         for client, (points, scale) in zip(self.clients, step)]
                if step[0][1] is self.hot_scale:
                    for send in sends:
                        outcomes.append(await send)
                else:
                    outcomes += await asyncio.gather(*sends)
            return outcomes

        started = time.perf_counter()
        flat = self.loop.run_until_complete(drive_all())
        seconds = time.perf_counter() - started
        errors: List[str] = []
        failed = 0
        points = 0
        layer = {"server_ms": [], "wire_ms": [], "sim_s": [], "sources": {}}
        for latency, scale, response in flat:
            if not response.get("ok") or response.get("failed"):
                failed += 1
                errors.append(f"job failed: {response.get('error')}")
                continue
            layer["server_ms"].append(response["seconds"] * 1000.0)
            layer["wire_ms"].append((latency - response["seconds"]) * 1000.0)
            for entry in response["points"]:
                points += 1
                errors += self._check_point(entry, scale.memory_seed)
                source = entry["source"]
                layer["sources"][source] = layer["sources"].get(source, 0) + 1
                if source == "sim":
                    layer["sim_s"].append(entry["seconds"])
        return PassResult(seconds, points, len(flat), failed,
                          {(self.pass_index, index): latency * 1000.0
                           for index, (latency, _, _) in enumerate(flat)},
                          errors=errors, service=layer)

    def _check_point(self, entry: dict, memory_seed: int) -> List[str]:
        key = (entry["benchmark"], entry["design"], entry["window"],
               memory_seed)
        outcome = (entry["cycles"], entry["instructions"])
        errors = []
        if self.seen.setdefault(key, outcome) != outcome:
            errors.append(f"{key}: result changed between responses")
        if entry["source"] == "sim":
            self.simulated_keys[key] = self.simulated_keys.get(key, 0) + 1
            if self.simulated_keys[key] > 1:
                errors.append(f"{key}: simulated more than once")
        counts = self.instructions.setdefault(
            (entry["benchmark"], memory_seed), set())
        counts.add(entry["instructions"])
        if len(counts) > 1:
            errors.append(f"{key}: instruction counts differ across designs")
        return errors

    def finish(self) -> List[str]:
        after = self.snapshot()
        simulated = after["simulated"] - self.baseline_stats["simulated"]
        if simulated > len(self.new_keys):
            return [f"{simulated} simulation(s) for {len(self.new_keys)} "
                    "distinct never-seen point(s)"]
        return []

    def layer_metrics(self, passes: List[PassResult], before) -> Dict:
        after = self.snapshot()
        delta = {key: after[key] - before[key] for key in after}
        requested = delta["points_requested"] or 1
        resolved = delta["simulated"] + delta["from_cache"] + delta["from_memo"]
        server_ms = [ms for p in passes for ms in p.service["server_ms"]]
        wire_ms = [ms for p in passes for ms in p.service["wire_ms"]]
        sim_s = [s for p in passes for s in p.service["sim_s"]]
        return {
            "service.server_job_ms": statistics.median(server_ms),
            "service.wire_ms": statistics.median(wire_ms),
            "service.warm_hit_ratio": delta["warm_hits"] / requested,
            "service.coalesced_ratio": delta["coalesced"] / requested,
            "service.batch_size": (resolved / delta["batches"]
                                   if delta["batches"] else 0.0),
            "service.sim_s_per_point": (sum(sim_s) / len(sim_s)
                                        if sim_s else 0.0),
            "service.simulated": delta["simulated"] / len(passes),
        }


WORKLOADS = {workload.name: workload for workload in (
    ScorecardCold, ScorecardWarm, DeviceFanout, ServiceMixed)}
