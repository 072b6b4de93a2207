"""Tests for the decode cache: one shared record per static instruction."""

import gc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import GPUConfig
from repro.experiments import runner
from repro.experiments.runner import QUICK
from repro.fuzz.generator import generate_case
from repro.gpu import sm
from repro.gpu.decode import DecodedOp, decode_warp, decode_warp_cached
from repro.gpu.sm import SMEngine
from repro.kernels.suites import benchmark_names, get_profile
from repro.kernels.synthetic import generate_trace

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: Every per-instruction fact a record carries (``__weakref__`` is
#: bookkeeping, not a fact).
FIELDS = tuple(name for name in DecodedOp.__slots__ if name != "__weakref__")

#: The default SM and one with a different bank count (bank ids differ).
CONFIGS = (GPUConfig(), GPUConfig(num_banks=16, entries_per_bank=128))


def assert_matches_fresh(trace, config):
    """Every position's record equals a fresh decode of its instruction."""
    for warp in trace:
        decoded = decode_warp_cached(trace, warp.warp_id, warp.instructions,
                                     config)
        assert len(decoded) == len(warp.instructions)
        for position, (dec, inst) in enumerate(zip(decoded,
                                                   warp.instructions)):
            assert dec.inst is inst, (warp.warp_id, position)
            fresh = DecodedOp(warp.warp_id, inst, config)
            for name in FIELDS:
                assert getattr(dec, name) == getattr(fresh, name), (
                    warp.warp_id, position, name)


def assert_one_record_per_instruction(trace, config):
    """One record object per distinct instruction object of each warp."""
    positions = records = 0
    for warp in trace:
        decoded = decode_warp(warp.warp_id, warp.instructions, config)
        distinct = len({id(dec) for dec in decoded})
        assert distinct == len({id(inst) for inst in warp.instructions}), (
            warp.warp_id)
        positions += len(decoded)
        records += distinct
    return positions, records


@pytest.mark.parametrize("bench", benchmark_names())
def test_quick_traces_decode_like_fresh_records(bench):
    plain = runner.benchmark_trace(bench, QUICK)
    hinted = runner.benchmark_trace(bench, QUICK, window_size=3)
    for trace, config in ((plain, CONFIGS[0]), (hinted, CONFIGS[1])):
        assert_matches_fresh(trace, config)
        positions, records = assert_one_record_per_instruction(trace, config)
        # The benchmarks loop, so sharing cuts the record count.
        assert records < positions


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fuzz_traces_decode_like_fresh_records(seed):
    case = generate_case(seed)
    for trace in (case.plain, case.hinted):
        for config in CONFIGS:
            assert_matches_fresh(trace, config)
            assert_one_record_per_instruction(trace, config)


def test_records_are_shared_per_warp_not_across_warps():
    trace = runner.benchmark_trace("SAD", QUICK)
    first, second = trace.warps[0], trace.warps[1]
    shared = {id(inst) for inst in first} & {id(inst) for inst in second}
    assert shared  # warps of one kernel run the same static instructions
    config = GPUConfig()
    records_a = decode_warp(first.warp_id, first.instructions, config)
    records_b = decode_warp(second.warp_id, second.instructions, config)
    # Bank ids depend on the warp, so no record crosses a warp.
    assert not {id(dec) for dec in records_a} & {id(dec) for dec in records_b}


def test_engine_warps_index_the_shared_records():
    trace = runner.benchmark_trace("NW", QUICK)
    engine = SMEngine(trace)
    for warp_state, warp in zip(engine.warps, trace):
        assert warp_state.decoded is decode_warp_cached(
            trace, warp.warp_id, warp.instructions, engine.config)
        assert warp_state.end == len(warp.instructions)


def test_records_die_with_their_trace():
    runner.clear_cache()
    trace = runner.benchmark_trace("BFS", QUICK)
    engine = SMEngine(trace)
    engine.run()
    record = weakref.ref(engine.warps[0].decoded[0])
    assert record() is not None
    del engine, trace
    runner.clear_cache()
    gc.collect()
    assert record() is None


def test_layer_probe_counts_one_op_per_static_instruction(monkeypatch):
    """The benchmark's traced run still sees decode and counts records.

    ``perfbench/layers.py`` attributes time by patching entry points by
    name; a rename here would silently zero its ``gpu.decode`` figures.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    spec = replace(get_profile("NW").spec, num_warps=4, loop_iterations=3)
    trace = generate_trace(spec)
    probe = layers.LayerProbe()
    probe.install()
    patched = list(probe.patches._saved)
    try:
        SMEngine(trace).run()
    finally:
        probe.uninstall()

    assert any(span[0] == "gpu.decode" for span in probe.tracer.spans)
    pairs = sum(len({id(inst) for inst in warp}) for warp in trace)
    assert probe.ops_built == pairs
    assert (sm, "decode_warp_cached") in [(o, a) for o, a, _ in patched]
    assert (DecodedOp, "__init__") in [(o, a) for o, a, _ in patched]
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
