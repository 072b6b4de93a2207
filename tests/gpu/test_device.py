"""Tests for the full-device simulation layer (:mod:`repro.gpu.device`).

The two load-bearing guarantees:

* ``num_sms=1`` is an exact identity — bit-identical counters and
  state images versus :func:`simulate_design`, for every registered
  design;
* multi-SM results are deterministic across job counts (serial and
  process pool).
"""

from __future__ import annotations

import os
import time

import pytest

import repro.gpu.device as device_module
from repro.core.bow_sm import simulate_design
from repro.core.designs import design_names
from repro.errors import ExperimentError, SimulationError
from repro.experiments.resilience import RetryPolicy
from repro.gpu.device import merge_counters, partition_launch, simulate_device
from repro.isa import parse_program
from repro.kernels.synthetic import generate_compiled_trace, generate_trace
from repro.kernels.trace import KernelTrace, WarpTrace
from repro.stats.counters import Counters
from repro.stats.trace import TraceRecorder

from ..conftest import SEED, small_spec

PROGRAM = """
    mov.u32 $r1, 0x5
    add.u32 $r2, $r1, $r1
    st.global.u32 [$r1], $r2
"""


def launch_trace(num_warps=16):
    return KernelTrace(name="device-launch", warps=[
        WarpTrace(warp_id=w, instructions=parse_program(PROGRAM))
        for w in range(num_warps)
    ])


def state_key(result):
    """Everything that must be bit-identical between two runs."""
    return (
        result.counters.as_dict(),
        sorted(result.register_image.items()),
        sorted(result.memory_image.items()),
    )


#: Environment variable naming the directory :func:`crash_once_run_sm`
#: coordinates through (pool workers inherit the environment).
CRASH_DIR_ENV = "REPRO_TEST_CRASH_DIR"

#: The SM whose first worker :func:`crash_once_run_sm` kills.
CRASH_SM = 1

#: The engine-backed ``_run_sm`` the stand-ins below delegate to.
REAL_RUN_SM = device_module._run_sm


def _claim(path):
    """Create ``path`` exclusively; whether this caller created it."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _wait_until(ready, limit=30.0):
    deadline = time.monotonic() + limit
    while not ready() and time.monotonic() < deadline:
        time.sleep(0.01)


def crash_once_run_sm(args):
    """A picklable ``_run_sm`` stand-in whose ``CRASH_SM`` worker dies once.

    Each SM's first attempt claims a ``started-<sm>`` marker.  The
    crashing SM's first attempt waits until every SM has started, then
    hard-exits its worker; the other first attempts wait for that and
    linger, so they are in flight when the pool breaks.  Every later
    attempt runs the real engine.
    """
    state = os.environ[CRASH_DIR_ENV]
    sm_id = int(args[1].name.rsplit("@sm", 1)[1])
    if _claim(os.path.join(state, f"started-{sm_id}")):
        crashed = os.path.join(state, "crashed")
        if sm_id == CRASH_SM:
            _wait_until(lambda: len(os.listdir(state)) >= 4)
            _claim(crashed)
            os._exit(1)
        _wait_until(lambda: os.path.exists(crashed))
        time.sleep(2.0)
    return REAL_RUN_SM(args)


@pytest.fixture(scope="module")
def device_trace():
    """A realistic multi-warp trace (NW profile, 16 warps)."""
    return generate_trace(small_spec(warps=16))


class TestPartition:
    def test_deterministic(self):
        trace = launch_trace(16)
        first = partition_launch(trace, num_sms=4, seed=3)
        second = partition_launch(trace, num_sms=4, seed=3)
        assert first == second

    def test_every_warp_exactly_once(self):
        trace = launch_trace(13)  # not a multiple of the CTA size
        partition = partition_launch(trace, num_sms=4)
        seen = [w for sm in partition.sms for w in sm.warp_ids]
        assert sorted(seen) == list(range(13))
        assert len(seen) == len(set(seen))
        # Four 2-warp CTAs round-robin over 2 SMs: an even split.
        even = partition_launch(launch_trace(8), num_sms=2, warps_per_cta=2)
        assert [len(sm.warp_ids) for sm in even.sms] == [4, 4]

    def test_warps_keep_global_ids(self):
        partition = partition_launch(launch_trace(16), num_sms=4)
        for sm in partition.sms:
            assert tuple(w.warp_id for w in sm.trace.warps) == sm.warp_ids

    def test_cta_stays_together(self):
        # With 4 warps per CTA, warps 0-3 must land on one SM.
        partition = partition_launch(launch_trace(16), num_sms=4, seed=0)
        home = {sm.sm_id for sm in partition.sms if 0 in sm.warp_ids}
        assert len(home) == 1
        (sm_id,) = home
        sm = next(s for s in partition.sms if s.sm_id == sm_id)
        assert {0, 1, 2, 3} <= set(sm.warp_ids)

    def test_seed_rotates_assignment(self):
        trace = launch_trace(16)
        base = partition_launch(trace, num_sms=4, seed=0)
        rotated = partition_launch(trace, num_sms=4, seed=1)
        by_id = {sm.sm_id: sm.warp_ids for sm in rotated.sms}
        # CTA i moves from SM i to SM (i+1) % 4.
        for sm in base.sms:
            assert by_id[(sm.sm_id + 1) % 4] == sm.warp_ids

    def test_idle_sms_counted(self):
        # 8 warps = 2 CTAs over 6 SMs leaves 4 slots empty.
        partition = partition_launch(launch_trace(8), num_sms=6)
        assert len(partition.sms) == 2
        assert partition.idle_sms == 4
        assert partition.num_ctas == 2

    def test_single_sm_single_partition(self):
        trace = launch_trace(16)
        partition = partition_launch(trace, num_sms=1, seed=9)
        assert len(partition.sms) == 1
        assert partition.sms[0].warp_ids == tuple(range(16))

    def test_validation(self):
        with pytest.raises(SimulationError):
            partition_launch(launch_trace(4), num_sms=0)
        with pytest.raises(SimulationError):
            partition_launch(launch_trace(4), num_sms=2, warps_per_cta=0)


class TestMergeCounters:
    def test_sums_except_cycles(self):
        first = Counters()
        first.cycles, first.instructions, first.rf_reads = 100, 40, 7
        second = Counters()
        second.cycles, second.instructions, second.rf_reads = 250, 60, 5
        merged = merge_counters([first, second])
        assert merged.instructions == 100
        assert merged.rf_reads == 12
        assert merged.cycles == 250  # max, not sum
        assert merged.ipc == pytest.approx(100 / 250)

    def test_empty(self):
        assert merge_counters([]).cycles == 0

    def test_single_is_identity(self):
        counters = Counters()
        counters.cycles, counters.instructions = 10, 5
        assert merge_counters([counters]).as_dict() == counters.as_dict()


class TestSingleSMIdentity:
    @pytest.mark.parametrize("design", design_names())
    def test_bit_identical_to_simulate_design(self, design, device_trace):
        trace = device_trace
        if "wr" in design or "hinted" in design:
            trace = generate_compiled_trace(small_spec(warps=16),
                                            window_size=3)
        single = simulate_design(design, trace, window_size=3,
                                 memory_seed=SEED)
        device = simulate_device(design, trace, num_sms=1, window_size=3,
                                 memory_seed=SEED)
        assert state_key(device.to_simulation_result()) == state_key(single)


class TestMultiSMDeterminism:
    @pytest.fixture(scope="class")
    def reference(self, device_trace):
        return simulate_device("bow", device_trace, num_sms=4, window_size=3,
                               memory_seed=SEED, jobs=1)

    @pytest.mark.parametrize("jobs", [
        pytest.param(1, id="serial-1"),
        pytest.param(4, id="process-4"),
    ])
    def test_identical_across_dispatchers(self, reference, device_trace,
                                          jobs):
        run = simulate_device("bow", device_trace, num_sms=4, window_size=3,
                              memory_seed=SEED, jobs=jobs)
        assert state_key(run.to_simulation_result()) == \
            state_key(reference.to_simulation_result())
        for sm_id, result in reference.per_sm.items():
            assert state_key(run.per_sm[sm_id]) == state_key(result)

    def test_memory_placement_invariant(self, device_trace):
        # The same launch on 2 vs 4 SMs puts warps on different SMs,
        # but global warp ids + a shared memory seed mean the final
        # architectural state cannot change.
        two = simulate_device("bow", device_trace, num_sms=2, window_size=3,
                              memory_seed=SEED)
        four = simulate_device("bow", device_trace, num_sms=4, window_size=3,
                               memory_seed=SEED)
        assert sorted(two.register_image.items()) == \
            sorted(four.register_image.items())
        assert sorted(two.memory_image.items()) == \
            sorted(four.memory_image.items())


class TestAggregation:
    @pytest.fixture(scope="class")
    def device_run(self, device_trace):
        return simulate_device("bow", device_trace, num_sms=4, window_size=3,
                               memory_seed=SEED)

    def test_instructions_sum_over_sms(self, device_run, device_trace):
        total = sum(r.counters.instructions
                    for r in device_run.per_sm.values())
        assert device_run.counters.instructions == total
        assert total == device_trace.total_instructions
        # Same work on the baseline, but BOW bypasses register reads.
        baseline = simulate_device("baseline", device_trace, num_sms=4,
                                   window_size=3, memory_seed=SEED)
        assert baseline.counters.instructions == total
        assert device_run.counters.rf_reads < baseline.counters.rf_reads

    def test_cycles_is_slowest_sm(self, device_run):
        slowest = max(r.counters.cycles for r in device_run.per_sm.values())
        assert device_run.counters.cycles == slowest

    def test_device_ipc(self, device_run):
        expected = (device_run.counters.instructions
                    / device_run.counters.cycles)
        assert device_run.ipc == pytest.approx(expected)
        assert device_run.ipc_per_sm == pytest.approx(expected / 4)

    def test_images_merge_disjoint(self, device_run):
        merged = {}
        for result in device_run.per_sm.values():
            for key, value in result.register_image.items():
                assert key not in merged  # global warp ids: no overlap
                merged[key] = value
        assert merged == device_run.register_image

    def test_load_imbalance_at_least_one(self, device_run):
        assert device_run.load_imbalance() >= 1.0
        # Identical CTAs long enough for memory latencies to average
        # out: close to perfectly balanced.
        program = parse_program(PROGRAM) * 40
        balanced = KernelTrace(name="balanced", warps=[
            WarpTrace(warp_id=w, instructions=list(program))
            for w in range(8)
        ])
        run = simulate_device("baseline", balanced, num_sms=2)
        assert run.load_imbalance() == pytest.approx(1.0, abs=0.25)

    def test_load_imbalance_all_zero_cycles_is_balanced(self, device_run):
        """Degenerate-but-balanced: every SM at zero cycles means every
        SM did exactly the mean amount of work, so the ratio is 1.0 —
        not the old 0.0, which read as "better than balanced"."""
        import dataclasses

        zeroed = {
            sm_id: dataclasses.replace(
                result,
                counters=dataclasses.replace(result.counters, cycles=0))
            for sm_id, result in device_run.per_sm.items()
        }
        degenerate = dataclasses.replace(device_run, per_sm=zeroed)
        assert degenerate.load_imbalance() == 1.0

    def test_load_imbalance_empty_device_is_zero(self, device_run):
        import dataclasses

        empty = dataclasses.replace(device_run, per_sm={})
        assert empty.load_imbalance() == 0.0

    def test_format_mentions_every_sm(self, device_run):
        text = device_run.format()
        assert "device IPC" in text
        for sm_id in device_run.per_sm:
            assert f"\n{sm_id} " in text or text.startswith(f"{sm_id} ")

    def test_attempts_recorded(self, device_run):
        assert device_run.attempts == {sm_id: 1
                                       for sm_id in device_run.per_sm}


class TestValidation:
    def test_zero_sms(self):
        with pytest.raises(SimulationError, match="num_sms"):
            simulate_device("bow", launch_trace(4), num_sms=0)

    def test_empty_launch(self):
        with pytest.raises(SimulationError, match="empty"):
            simulate_device("bow", KernelTrace(name="empty", warps=[]),
                            num_sms=2)

    def test_recorders_refuse_process_pool(self):
        # Recorders need jobs=1: they cannot cross processes.
        with pytest.raises(SimulationError, match="recorder"):
            simulate_device("bow", launch_trace(8), num_sms=2, jobs=2,
                            recorder_factory=lambda sm: TraceRecorder())

    def test_config_default_sms(self):
        # num_sms=None falls back to config.num_sms.
        from dataclasses import replace

        from repro.config import GPUConfig

        config = replace(GPUConfig(), num_sms=2)
        run = simulate_device("bow", launch_trace(16), config=config)
        assert run.num_sms == 2


class TestRecorders:
    def test_per_sm_recorders(self, device_trace):
        run = simulate_device(
            "bow", device_trace, num_sms=2, window_size=3, memory_seed=SEED,
            recorder_factory=lambda sm_id: TraceRecorder(capacity=1024),
        )
        assert set(run.recorders) == set(run.per_sm)
        for recorder in run.recorders.values():
            assert recorder.emitted > 0


class TestRetrySemantics:
    def _flaky_run_sm(self, fail_once_for):
        """A ``_run_sm`` stand-in that fails each listed SM once."""
        remaining = set(fail_once_for)

        def run(args):
            sm_trace = args[1]
            sm_id = int(sm_trace.name.rsplit("@sm", 1)[1])
            if sm_id in remaining:
                remaining.discard(sm_id)
                raise OSError(f"injected transient failure on SM {sm_id}")
            return REAL_RUN_SM(args)

        return run

    def test_serial_retries_transient(self, monkeypatch, device_trace):
        monkeypatch.setattr(device_module, "_run_sm",
                            self._flaky_run_sm({0, 2}))
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
        run = simulate_device("bow", device_trace, num_sms=4, window_size=3,
                              memory_seed=SEED, retry=policy)
        assert run.attempts == {0: 2, 1: 1, 2: 2, 3: 1}
        # Retried runs still produce the canonical result.
        monkeypatch.undo()
        clean = simulate_device("bow", device_trace, num_sms=4, window_size=3,
                                memory_seed=SEED)
        assert state_key(run.to_simulation_result()) == \
            state_key(clean.to_simulation_result())

    def test_no_retry_surfaces_failure(self, monkeypatch, device_trace):
        monkeypatch.setattr(device_module, "_run_sm",
                            self._flaky_run_sm({1}))
        with pytest.raises(SimulationError, match="SM 1"):
            simulate_device("bow", device_trace, num_sms=4, window_size=3,
                            memory_seed=SEED)

    def test_timeout_fails_device(self, device_trace):
        # In-process, the budget is checked after each SM returns; no
        # engine finishes inside a microsecond.
        policy = RetryPolicy(max_attempts=1, timeout=1e-6)
        with pytest.raises(SimulationError, match="timeout"):
            simulate_device("bow", device_trace, num_sms=2, window_size=3,
                            memory_seed=SEED, jobs=1, retry=policy)

    def test_pool_crash_blames_only_its_sm(self, monkeypatch, tmp_path,
                                           device_trace):
        monkeypatch.setenv(CRASH_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(device_module, "_run_sm", crash_once_run_sm)
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0)
        run = simulate_device("bow", device_trace, num_sms=4, window_size=3,
                              memory_seed=SEED, jobs=4, retry=policy)
        # Only the SM whose worker died is charged; its in-flight
        # siblings were resubmitted for free.
        assert run.attempts == {0: 1, 1: 2, 2: 1, 3: 1}
        monkeypatch.undo()
        clean = simulate_device("bow", device_trace, num_sms=4, window_size=3,
                                memory_seed=SEED)
        assert state_key(run.to_simulation_result()) == \
            state_key(clean.to_simulation_result())
        for sm_id, result in clean.per_sm.items():
            assert state_key(run.per_sm[sm_id]) == state_key(result)

    def test_progress_callback(self, device_trace):
        lines = []
        simulate_device("bow", device_trace, num_sms=2, window_size=3,
                        memory_seed=SEED, progress=lines.append)
        assert len(lines) == 2
        assert all("SM" in line for line in lines)


class TestRunnerIntegration:
    def test_runscale_validates_num_sms(self):
        from repro.experiments.runner import RunScale

        with pytest.raises(ExperimentError, match="num_sms"):
            RunScale(num_sms=0)

    def test_resolve_num_sms(self):
        from repro.experiments.runner import resolve_num_sms

        assert resolve_num_sms(None) == 1
        assert resolve_num_sms(None, "bow") == 1  # registry default
        assert resolve_num_sms(4) == 4
        with pytest.raises(ExperimentError, match="num_sms"):
            resolve_num_sms(0)
        with pytest.raises(ExperimentError, match="num_sms"):
            resolve_num_sms(-3)

    def test_device_scale_helper(self):
        from repro.experiments.runner import QUICK, device_scale

        scaled = device_scale(QUICK, 4)
        assert scaled.num_sms == 4
        assert scaled.num_warps == QUICK.num_warps

    def test_run_keys_distinct_per_sms(self):
        from dataclasses import replace

        from repro.experiments.cache import run_key
        from repro.experiments.runner import QUICK

        single = run_key("BTREE", "bow", 3, QUICK)
        device = run_key("BTREE", "bow", 3, replace(QUICK, num_sms=4))
        assert single != device

    def test_run_design_routes_through_device(self):
        from dataclasses import replace

        from repro.experiments.runner import (
            QUICK,
            clear_cache,
            run_design,
            set_cache,
            simulations_run,
        )

        previous = set_cache(None)
        clear_cache()
        try:
            scale = replace(QUICK, num_warps=8, trace_scale=0.1, num_sms=2)
            before = simulations_run()
            first = run_design("BTREE", "bow", scale=scale)
            assert simulations_run() == before + 1
            again = run_design("BTREE", "bow", scale=scale)
            assert again is first  # memoized
            single = run_design("BTREE", "bow",
                                scale=replace(scale, num_sms=1))
            assert single is not first
            # Device cycles reflect the slowest SM, never the sum.
            assert first.counters.cycles <= single.counters.cycles
            assert (first.counters.instructions
                    == single.counters.instructions)
        finally:
            clear_cache()
            set_cache(previous)

    def test_disk_cache_round_trip(self, tmp_path):
        from dataclasses import replace

        from repro.experiments.cache import RunCache
        from repro.experiments.runner import (
            QUICK,
            clear_cache,
            run_design,
            set_cache,
        )

        previous = set_cache(RunCache(tmp_path))
        try:
            scale = replace(QUICK, num_warps=8, trace_scale=0.1, num_sms=2)
            first = run_design("BTREE", "bow", scale=scale)
            clear_cache()  # drop the memo; force the disk path
            second = run_design("BTREE", "bow", scale=scale)
            assert state_key(second) == state_key(first)
        finally:
            clear_cache()
            set_cache(previous)
