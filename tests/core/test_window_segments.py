"""The segmented reuse-gap pass against the flat per-register sweep.

``window_gaps`` reads a trace as run-length block segments; the sweep it
replaced walked the fully expanded trace once per register.  That sweep
is kept here verbatim as the oracle: for every trace, both must give the
same read and write totals and the same read-gap and write-gap
multisets, so every window's counts agree.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import FrozenSet, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st
from tests.compiler.test_writeback_oracle import chain_instruction

from repro.compiler.writeback import READ, register_accesses, write_chains
from repro.core.window import stream_window_gaps, window_gaps
from repro.experiments.runner import (
    DEVICE_QUICK,
    FULL,
    QUICK,
    RunScale,
    benchmark_trace,
)
from repro.isa import Instruction
from repro.isa.opcodes import opcode_by_name
from repro.isa.registers import Predicate, Register
from repro.kernels.cfg import loop_kernel
from repro.kernels.serialize import trace_from_dict, trace_to_dict
from repro.kernels.suites import benchmark_names
from repro.kernels.trace import KernelTrace, WarpTrace

Multisets = Tuple[int, int, Counter, Counter]


def flat_window_gaps(trace: Sequence[Instruction],
                     live_out: FrozenSet[int] = frozenset()) -> Multisets:
    """The flat sweep: one pass per register over the expanded trace."""
    reads = writes = 0
    read_gaps: List[int] = []
    write_gaps: List[int] = []
    for reg_id, accesses in register_accesses(trace).items():
        previous = None
        for index, kind in accesses:
            if kind == READ:
                reads += 1
                if previous is not None:
                    read_gaps.append(index - previous)
            previous = index
        chains = write_chains(accesses, reg_id in live_out, 1)
        for _, _, _, max_gap, live_after in chains:
            writes += 1
            if not live_after:
                write_gaps.append(max_gap)
    return reads, writes, Counter(read_gaps), Counter(write_gaps)


def multisets(gaps) -> Multisets:
    return (gaps.reads, gaps.writes, Counter(dict(gaps.read_gaps)),
            Counter(dict(gaps.write_gaps)))


def test_oracle_sees_a_run_as_its_copies():
    mov, add = opcode_by_name("mov"), opcode_by_name("add")
    r1, r2 = Register(1), Register(2)
    body = (Instruction(opcode=add, dest=r1, sources=(r1, r2)),
            Instruction(opcode=mov, dest=r2, sources=(r1,)))
    warp = WarpTrace.from_segments(0, [(body, 5)])
    assert warp.instructions == list(body) * 5
    assert multisets(window_gaps(warp)) == flat_window_gaps(warp.instructions)


@pytest.mark.parametrize("scale", [QUICK, FULL, DEVICE_QUICK,
                                   RunScale(4, 0.1)],
                         ids=["QUICK", "FULL", "DEVICE_QUICK", "4x0.1"])
def test_every_benchmark_warp_matches_the_flat_sweep(scale):
    longest = 0
    for bench in benchmark_names():
        warps = benchmark_trace(bench, scale).warps
        longest = max([longest] + [repeats for warp in warps
                                   for _, repeats in warp.segments])
        total = [0, 0, Counter(), Counter()]
        for warp in warps:
            flat = flat_window_gaps(warp.instructions)
            assert multisets(window_gaps(warp)) == flat, (bench, warp.warp_id)
            total = [a + b for a, b in zip(total, flat)]
        assert multisets(stream_window_gaps(warps)) == tuple(total), bench
    assert longest >= 4


# ---------------------------------------------------------------------------
# random block paths and loop kernels
# ---------------------------------------------------------------------------

_BODY = st.lists(chain_instruction(), min_size=1, max_size=10)
_LIVE_OUT = st.frozensets(st.integers(0, 5), max_size=6)


@st.composite
def block_paths(draw):
    """Segments over a small pool of bodies, so a body recurs after
    others and most registers are missing from some body."""
    bodies = [tuple(body) for body in
              draw(st.lists(_BODY, min_size=1, max_size=3))]
    path = draw(st.lists(
        st.tuples(st.integers(0, len(bodies) - 1), st.integers(1, 10)),
        min_size=1, max_size=5))
    return [(bodies[index], repeats) for index, repeats in path]


def predicated_writes_only(register: int) -> Tuple[Instruction, ...]:
    """A body whose only access to ``register`` is a predicated write."""
    return (Instruction(opcode=opcode_by_name("mov"), dest=Register(register),
                        immediate=1, predicate=Predicate(0)),
            Instruction(opcode=opcode_by_name("add"), dest=Register(4),
                        sources=(Register(5), Register(5))))


class TestRandomPaths:
    @given(block_paths(), _LIVE_OUT)
    @settings(max_examples=300, deadline=None)
    def test_segments_equal_flat(self, segments, live_out):
        warp = WarpTrace.from_segments(0, segments)
        assert (multisets(window_gaps(warp, live_out))
                == flat_window_gaps(warp.instructions, live_out))

    @given(_BODY, _BODY, st.integers(1, 10), st.integers(0, 3), _LIVE_OUT)
    @settings(max_examples=200, deadline=None)
    def test_chains_across_a_run_of_predicated_writes(
            self, before, after, repeats, register, live_out):
        # Every copy's write chain skips the rest of the run to a read
        # after it, so no two copies share a gap.
        segments = [(tuple(before), 1), (predicated_writes_only(register),
                                         repeats), (tuple(after), 1)]
        warp = WarpTrace.from_segments(0, segments)
        assert (multisets(window_gaps(warp, live_out))
                == flat_window_gaps(warp.instructions, live_out))

    @given(st.lists(block_paths(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_streams_sum_their_warps(self, paths):
        warps = [WarpTrace.from_segments(w, segments)
                 for w, segments in enumerate(paths + paths[:1])]
        total = [0, 0, Counter(), Counter()]
        for warp in warps:
            total = [a + b for a, b in
                     zip(total, flat_window_gaps(warp.instructions))]
        assert multisets(stream_window_gaps(warps)) == tuple(total)


class TestLoopKernels:
    @given(_BODY, _BODY, _BODY, st.integers(1, 10), st.integers(0, 2**16),
           st.integers(1, 120), _LIVE_OUT)
    @settings(max_examples=300, deadline=None)
    def test_expansion_analysis_and_round_trip(
            self, preamble, body, epilogue, iterations, seed, limit,
            live_out):
        cfg = loop_kernel("prop", preamble, body, epilogue, iterations)
        warp = cfg.expand_warp(0, random.Random(seed), limit)
        # The segments are the path expand_trace resolves, cut at the
        # same limit, mid-block included.
        assert warp.instructions == cfg.expand_trace(random.Random(seed),
                                                     limit)
        assert len(warp) <= limit
        flat = flat_window_gaps(warp.instructions, live_out)
        assert multisets(window_gaps(warp, live_out)) == flat
        # A round trip stores the flat stream: one segment, same gaps.
        loaded = trace_from_dict(trace_to_dict(
            KernelTrace(name="prop", warps=[warp]))).warps[0]
        assert loaded.segments == ((loaded.instructions, 1),)
        assert multisets(window_gaps(loaded, live_out)) == flat

    def test_runs_are_merged_and_bodies_shared(self):
        mov = opcode_by_name("mov")
        body = [Instruction(opcode=mov, dest=Register(1), immediate=1)]
        cfg = loop_kernel("loop", body, body * 3, body, 40)
        warps = [cfg.expand_warp(w, random.Random(w), 10_000)
                 for w in range(8)]
        for warp in warps:
            assert [len(b) for b, _ in warp.segments][:2] == [1, 3]
            assert len(warp.segments) <= 3
        assert max(warp.segments[1][1] for warp in warps) > 1
        assert len({id(warp.segments[1][0]) for warp in warps}) == 1

    def test_rewritten_block_gets_a_new_body(self):
        mov = opcode_by_name("mov")
        body = [Instruction(opcode=mov, dest=Register(1), immediate=1)]
        cfg = loop_kernel("loop", body, body * 2, body, 3)
        before = cfg.expand_warp(0, random.Random(0)).segments[1][0]
        cfg.blocks["body"].instructions[0] = body[0].with_hint(
            body[0].hint)
        after = cfg.expand_warp(0, random.Random(0)).segments[1][0]
        assert after is not before
        assert after[0] is cfg.blocks["body"].instructions[0]
        assert before[0] is body[0]
