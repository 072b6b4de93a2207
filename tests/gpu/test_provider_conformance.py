"""OperandProvider conformance suite.

Every provider — the baseline OCU pool, the BOW bypassing collectors,
and the RFC comparison point — implements the one protocol the engine
speaks (:class:`repro.gpu.collector.OperandProvider`).  These tests run
the identical scenarios against all three implementations:

* read-request routing (requests target the owning warp's banks, one
  port per entry, slots served in order);
* delivery discipline (unknown tags and out-of-order deliveries are
  simulation errors, never silent corruption);
* capacity round-trip (a full provider rejects issue; dispatch frees
  the slot);
* write routing end-to-end (every design converges to the reference
  executor's architectural state);
* FIFO eviction order under capacity pressure (bow, rfc);
* recorder-emit parity (instruction-lifecycle event counts are a
  property of the trace, not of the provider).

The tick-guard contract the engine's fast loop relies on is checked
directly: every provider family (and the pass-through below) is stepped
on both loops, and after each simulated cycle ``ready_entries()`` is
still the same list object, ``heads_pending`` covers every entry whose
head slot awaits data, and no ``read_requests()`` result repeats a
granted in-flight tag.

A final hypothesis property pins the protocol itself: a from-scratch
pass-through provider — written against nothing but the protocol
docstring — is cycle-for-cycle identical to the baseline engine on
both the fast and the reference loop.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from tests.conftest import small_spec

from repro.config import BOWConfig, WritebackPolicy, bow_config
from repro.core.boc import BOWCollectors
from repro.core.rfc import RFC_ENTRIES_PER_WARP, RFCCollectors
from repro.errors import SimulationError
from repro.gpu.banks import AccessRequest
from repro.gpu.collector import (
    BaselineCollectorPool,
    InflightInstruction,
    OperandProvider,
    ensure_decoded,
)
from repro.gpu.reference import execute_reference
from repro.gpu.sm import SMEngine
from repro.isa import Instruction, parse_program
from repro.isa.opcodes import opcode_by_name
from repro.isa.registers import Register
from repro.kernels.synthetic import generate_trace
from repro.kernels.trace import KernelTrace, WarpTrace
from repro.stats.trace import EventKind, TraceRecorder

PROVIDERS = {
    "baseline": lambda eng: BaselineCollectorPool(
        eng, eng.config.num_operand_collectors),
    "bow": lambda eng: BOWCollectors(eng, bow_config(3)),
    "rfc": lambda eng: RFCCollectors(
        eng, eng.config.num_operand_collectors, RFC_ENTRIES_PER_WARP),
}

ALL = sorted(PROVIDERS)


def single_warp(text):
    return KernelTrace(name="t", warps=[
        WarpTrace(warp_id=0, instructions=parse_program(text))
    ])


def fresh_provider(name):
    """A provider of ``name``'s family attached to an idle engine."""
    engine = SMEngine(single_warp("nop"),
                      provider_factory=PROVIDERS[name])
    return engine, engine.provider


def make_entry(trace_index, text="add.u32 $r3, $r1, $r2"):
    return InflightInstruction(0, trace_index, parse_program(text)[0],
                               issue_cycle=trace_index)


class TestReadRequestRouting:
    """Issue / read-request path of the protocol."""

    @pytest.mark.parametrize("name", ALL)
    def test_requests_route_to_register_banks(self, name):
        engine, provider = fresh_provider(name)
        entry = make_entry(0)
        provider.insert(entry)
        requests = provider.read_requests(0)
        assert len(requests) == 1  # one port per entry slot
        request = requests[0]
        assert isinstance(request, AccessRequest)
        assert request.warp_id == 0
        assert request.register_id == 1  # first pending source, in order
        assert request.bank == engine.config.bank_of(0, request.register_id)

    @pytest.mark.parametrize("name", ALL)
    def test_slots_served_in_order_then_ready(self, name):
        engine, provider = fresh_provider(name)
        entry = make_entry(0)
        provider.insert(entry)
        served = []
        for _ in range(8):
            requests = provider.read_requests(0)
            if not requests:
                break
            provider.deliver(requests[0].tag, 40 + requests[0].register_id)
            served.append(requests[0].register_id)
        assert served == [1, 2]
        assert entry in provider.ready_entries()
        assert entry.operand_values == {0: 41, 1: 42}

    @pytest.mark.parametrize("name", ALL)
    def test_unknown_tag_rejected(self, name):
        _, provider = fresh_provider(name)
        provider.insert(make_entry(0))
        with pytest.raises(SimulationError):
            provider.deliver(((0, 99), 0), 7)

    @pytest.mark.parametrize("name", ALL)
    def test_out_of_order_delivery_rejected(self, name):
        _, provider = fresh_provider(name)
        entry = make_entry(0)
        provider.insert(entry)
        tag = (entry.key, 1)  # slot 1 before slot 0
        with pytest.raises(SimulationError):
            provider.deliver(tag, 7)


class TestCapacity:
    """can_accept / insert / on_dispatch round-trip."""

    @pytest.mark.parametrize("name", ALL)
    def test_dispatch_frees_a_slot(self, name):
        _, provider = fresh_provider(name)
        entries = []
        while provider.can_accept(0) and len(entries) < 64:
            entry = make_entry(len(entries))
            provider.insert(entry)
            entries.append(entry)
        assert not provider.can_accept(0)  # capacity is finite
        first = entries[0]
        for _ in range(8):
            requests = [r for r in provider.read_requests(0)
                        if r.tag[0] == first.key]
            if not requests:
                break
            provider.deliver(requests[0].tag, 7)
        assert first in provider.ready_entries()
        provider.on_dispatch(first)
        assert provider.can_accept(0)


class TestWriteRouting:
    """on_complete / drain: every design converges to reference state."""

    PROGRAM = """
        mov.u32 $r1, 0x5
        add.u32 $r2, $r1, $r1
        mul.u32 $r3, $r2, $r1
        st.global.u32 [$r4], $r3
        add.u32 $r1, $r3, $r2
    """

    @pytest.mark.parametrize("name", ALL)
    def test_final_state_matches_reference(self, name):
        trace = single_warp(self.PROGRAM)
        result = SMEngine(trace, provider_factory=PROVIDERS[name],
                          memory_seed=3).run()
        reference = execute_reference(trace, memory_seed=3)
        assert result.memory_image == reference.memory, name
        assert result.register_image == reference.registers, name


class TestFifoEviction:
    """Capacity pressure evicts the oldest resident value first."""

    PROGRAM = """
        mov.u32 $r1, 0x1
        mov.u32 $r2, 0x2
        mov.u32 $r3, 0x3
        mov.u32 $r4, 0x4
    """

    def _capacity_two(self, name):
        if name == "bow":
            bow = BOWConfig(window_size=6, capacity_entries=2,
                            writeback=WritebackPolicy.WRITE_BACK)
            return lambda eng: BOWCollectors(eng, bow)
        return lambda eng: RFCCollectors(
            eng, eng.config.num_operand_collectors, 2)

    @pytest.mark.parametrize("name", ["bow", "rfc"])
    def test_eviction_order_is_fifo(self, name):
        recorder = TraceRecorder()
        SMEngine(single_warp(self.PROGRAM),
                 provider_factory=self._capacity_two(name),
                 recorder=recorder).run()
        evicted = [event.register for event in recorder.events
                   if event.kind is EventKind.BOC_EVICT
                   and event.reason == "capacity"]
        # r1 and r2 fill the two entries; r3 evicts r1, r4 evicts r2.
        assert evicted == [1, 2], name


class TestRecorderParity:
    """Instruction-lifecycle emits depend on the trace, not the provider."""

    PROGRAM = """
        mov.u32 $r1, 0x2
        add.u32 $r2, $r1, $r1
        ld.global.u32 $r3, [$r2]
        add.u32 $r4, $r3, $r1
        st.global.u32 [$r2], $r4
    """

    def test_lifecycle_counts_equal_across_providers(self):
        counts = {}
        for name in ALL:
            recorder = TraceRecorder()
            SMEngine(single_warp(self.PROGRAM),
                     provider_factory=PROVIDERS[name],
                     recorder=recorder).run()
            counts[name] = {
                kind: recorder.count(kind)
                for kind in (EventKind.ISSUE, EventKind.DISPATCH,
                             EventKind.COMMIT)
            }
        instructions = len(parse_program(self.PROGRAM))
        for name, per_kind in counts.items():
            assert per_kind[EventKind.ISSUE] == instructions, name
            assert per_kind[EventKind.DISPATCH] == instructions, name
            assert per_kind[EventKind.COMMIT] == instructions, name


# ---------------------------------------------------------------------------
# pass-through provider: the protocol docstring, implemented from scratch
# ---------------------------------------------------------------------------

class PassThroughProvider(OperandProvider):
    """A minimal conforming provider: every operand from the RF.

    Deliberately written from the protocol description alone (no code
    shared with :class:`BaselineCollectorPool`), tick-guard contract
    included: if the protocol is complete, this must reproduce the
    baseline engine exactly on both engine loops.
    """

    def __init__(self, engine, num_units):
        self.engine = engine
        self.num_units = num_units
        self.entries = []
        self.ready = []  # the stable ready_entries() list
        self.heads_pending = 0

    def can_accept(self, warp_id):
        return len(self.entries) < self.num_units

    def insert(self, entry):
        dec = ensure_decoded(entry, self.engine)
        entry.pending_slots = list(range(dec.num_sources))
        self.entries.append(entry)
        if entry.pending_slots:
            self.heads_pending += 1
        else:
            self.ready.append(entry)

    def read_requests(self, cycle):
        granted = self.engine.state.inflight_read_tags
        requests = []
        for entry in self.entries:
            if not entry.pending_slots:
                continue
            slot = entry.pending_slots[0]
            tag = (entry.key, slot)
            if tag in granted:
                continue
            requests.append(AccessRequest(
                bank=entry.dec.source_banks[slot],
                warp_id=entry.warp_id,
                register_id=entry.dec.source_ids[slot],
                tag=tag,
                age=entry.issue_cycle,
            ))
        return requests

    def deliver(self, tag, value):
        key, slot = tag
        for entry in self.entries:
            if entry.key == key and entry.pending_slots \
                    and entry.pending_slots[0] == slot:
                entry.pending_slots.pop(0)
                entry.operand_values[slot] = value
                if not entry.pending_slots:
                    self.heads_pending -= 1
                    self.ready.append(entry)
                return
        raise SimulationError(f"unexpected operand delivery {tag!r}")

    def ready_entries(self):
        return self.ready

    def on_dispatch(self, entry):
        self.entries.remove(entry)
        self.ready.remove(entry)

    def on_complete(self, entry, value):
        if value is None or entry.dec.rf_dest_id is None:
            self.engine.release_scoreboard(entry)
            return
        self.engine.enqueue_rf_write(entry, value, release_on_grant=True)


CONTRACT_PROVIDERS = dict(
    PROVIDERS,
    passthrough=lambda eng: PassThroughProvider(
        eng, eng.config.num_operand_collectors),
)


class _ContractProbe:
    """Checks the tick-guard contract after every simulated cycle.

    Attached as the engine's timeline, whose ``maybe_sample`` the run
    loop calls once per simulated cycle; ``insert`` and
    ``read_requests`` are wrapped on the provider instance before the
    stages bind them.
    """

    def __init__(self, engine, provider):
        self.engine = engine
        self.provider = provider
        self.ready = provider.ready_entries()
        self.entries = []
        self.cycles = 0  # cycles probed
        self.last_cycle = 0
        self.requests = 0
        insert, read_requests = provider.insert, provider.read_requests

        def tracked_insert(entry):
            self.entries.append(entry)
            insert(entry)

        def checked_read_requests(cycle):
            requests = read_requests(cycle)
            granted = engine.state.inflight_read_tags
            for request in requests:
                assert request.tag not in granted, (cycle, request)
            self.requests += len(requests)
            return requests

        provider.insert = tracked_insert
        provider.read_requests = checked_read_requests

    def maybe_sample(self, cycle, counters, reads, writes):
        self.cycles += 1
        self.last_cycle = cycle
        provider = self.provider
        assert provider.ready_entries() is self.ready, cycle
        awaiting = sum(1 for entry in self.entries if entry.pending_slots)
        assert provider.heads_pending >= awaiting, cycle

    def advance(self, start, end, counters, reads, writes):
        pass

    def finalize(self, cycle, counters, reads, writes):
        pass


class TestTickGuardContract:
    """Every provider family honors the contract, cycle by cycle."""

    @pytest.mark.parametrize("fast_forward", [False, True],
                             ids=["reference", "fast"])
    @pytest.mark.parametrize("name", sorted(CONTRACT_PROVIDERS))
    def test_contract_holds_every_cycle(self, name, fast_forward):
        probes = []

        def factory(engine):
            provider = CONTRACT_PROVIDERS[name](engine)
            probes.append(_ContractProbe(engine, provider))
            return provider

        trace = generate_trace(small_spec("SAD", warps=4, iterations=2))
        engine = SMEngine(trace, provider_factory=factory, memory_seed=5,
                          fast_forward=fast_forward)
        engine.timeline = probes[0]
        result = engine.run()
        probe = probes[0]
        assert probe.requests > 0 and probe.entries
        if fast_forward:
            assert probe.cycles < probe.last_cycle
        else:
            # The reference loop simulates (and probes) every cycle.
            assert probe.cycles == probe.last_cycle
            assert result.counters.fast_forwarded_cycles == 0


_ALU_OPS = ["mov", "add", "sub", "mul", "and", "or", "xor", "min", "max"]
_REG = st.integers(min_value=0, max_value=9)


@st.composite
def _instruction(draw):
    kind = draw(st.integers(min_value=0, max_value=9))
    if kind <= 6:
        opcode = opcode_by_name(draw(st.sampled_from(_ALU_OPS)))
        sources = tuple(
            Register(draw(_REG)) for _ in range(opcode.num_sources))
        return Instruction(
            opcode=opcode, dest=Register(draw(_REG)), sources=sources,
            immediate=draw(st.integers(min_value=0, max_value=0xFFFF)))
    if kind <= 7:
        return Instruction(opcode=opcode_by_name("ld.global"),
                           dest=Register(draw(_REG)),
                           sources=(Register(draw(_REG)),))
    if kind == 8:
        return Instruction(opcode=opcode_by_name("st.global"),
                           sources=(Register(draw(_REG)),
                                    Register(draw(_REG))))
    return Instruction(opcode=opcode_by_name("nop"))


@st.composite
def _traces(draw):
    num_warps = draw(st.integers(min_value=1, max_value=2))
    warps = []
    for warp_id in range(num_warps):
        instructions = draw(st.lists(_instruction(), min_size=1,
                                     max_size=24))
        warps.append(WarpTrace(warp_id=warp_id, instructions=instructions))
    return KernelTrace(name="prop", warps=warps)


def _assert_passthrough_matches_baseline(trace, fast_forward):
    baseline = SMEngine(trace, provider_factory=PROVIDERS["baseline"],
                        memory_seed=5, fast_forward=fast_forward).run()
    passthrough = SMEngine(
        trace,
        provider_factory=CONTRACT_PROVIDERS["passthrough"],
        memory_seed=5, fast_forward=fast_forward,
    ).run()
    assert passthrough.counters.cycles == baseline.counters.cycles
    assert passthrough.counters.as_dict() == baseline.counters.as_dict()
    assert passthrough.register_image == baseline.register_image
    assert passthrough.memory_image == baseline.memory_image


class TestPassThroughEqualsBaseline:
    @given(_traces())
    @settings(max_examples=40, deadline=None)
    def test_cycle_identical_to_baseline(self, trace):
        _assert_passthrough_matches_baseline(trace, fast_forward=True)

    @given(_traces())
    @settings(max_examples=40, deadline=None)
    def test_cycle_identical_to_baseline_on_reference_loop(self, trace):
        _assert_passthrough_matches_baseline(trace, fast_forward=False)
