"""Tests for the Instruction value type."""

from dataclasses import fields, replace

import pytest

from repro.errors import IsaError
from repro.isa import Instruction, MemSpace, WritebackHint
from repro.isa.opcodes import opcode_by_name
from repro.isa.registers import Predicate, Register
from repro.kernels.suites import benchmark_names, get_profile
from repro.kernels.synthetic import generate_kernel


def make(name, dest=None, sources=(), imm=None, pred=None):
    return Instruction(
        opcode=opcode_by_name(name),
        dest=Register(dest) if dest is not None else None,
        sources=tuple(Register(s) for s in sources),
        immediate=imm,
        predicate=pred,
    )


class TestValidation:
    def test_requires_dest_when_opcode_writes(self):
        with pytest.raises(IsaError):
            make("add", dest=None, sources=(1, 2))

    def test_rejects_dest_on_store(self):
        with pytest.raises(IsaError):
            make("st.global", dest=1, sources=(2, 3))

    def test_rejects_too_many_sources(self):
        with pytest.raises(IsaError):
            make("mov", dest=1, sources=(2, 3))

    def test_accepts_fewer_sources_than_max(self):
        # An immediate can substitute for a register source.
        inst = make("add", dest=1, sources=(2,), imm=4)
        assert inst.num_register_operands == 1


class TestClassification:
    def test_memory_flags(self):
        load = make("ld.global", dest=1, sources=(2,))
        store = make("st.shared", sources=(1, 2))
        assert load.is_memory and load.is_load and not load.is_store
        assert store.is_memory and store.is_store and not store.is_load

    def test_mem_space(self):
        assert make("ld.global", dest=1, sources=(2,)).mem_space is MemSpace.GLOBAL
        assert make("st.shared", sources=(1, 2)).mem_space is MemSpace.SHARED
        assert make("add", dest=1, sources=(2, 3)).mem_space is None

    def test_branch_flags(self):
        assert make("bra", imm=0).is_branch
        assert make("bra", imm=0).is_control
        assert not make("ret").is_branch
        assert make("ret").is_control

    def test_uses_and_defs(self):
        inst = make("mad", dest=1, sources=(2, 3, 4))
        assert [r.id for r in inst.uses] == [2, 3, 4]
        assert [r.id for r in inst.defs] == [1]
        assert [r.id for r in inst.accessed_registers()] == [2, 3, 4, 1]

    def test_store_has_no_defs(self):
        assert make("st.global", sources=(1, 2)).defs == ()


class TestHints:
    def test_default_hint_is_both(self):
        assert make("add", dest=1, sources=(2, 3)).hint is WritebackHint.BOTH

    def test_with_hint_preserves_uid(self):
        inst = make("add", dest=1, sources=(2, 3))
        hinted = inst.with_hint(WritebackHint.OC_ONLY)
        assert hinted.uid == inst.uid
        assert hinted.hint is WritebackHint.OC_ONLY
        assert inst.hint is WritebackHint.BOTH  # original untouched

    def test_with_hint_equals_replace_on_every_kernel_instruction(self):
        # with_hint copies the validated fields instead of constructing
        # anew; the copy must be what dataclasses.replace builds.
        for bench in benchmark_names():
            cfg = generate_kernel(get_profile(bench).spec)
            for inst in cfg.static_instructions:
                for hint in WritebackHint:
                    copied = inst.with_hint(hint)
                    expected = replace(inst, hint=hint)
                    assert type(copied) is Instruction
                    for item in fields(Instruction):
                        assert (getattr(copied, item.name)
                                == getattr(expected, item.name)), item.name
                    assert copied == expected
                    assert hash(copied) == hash(expected)
                    assert copied.__dict__ == expected.__dict__

    def test_renumbered_gets_fresh_uid(self):
        inst = make("add", dest=1, sources=(2, 3))
        assert inst.renumbered().uid != inst.uid

    def test_uids_unique(self):
        a = make("add", dest=1, sources=(2, 3))
        b = make("add", dest=1, sources=(2, 3))
        assert a.uid != b.uid

    def test_hint_bits_roundtrip(self):
        for hint in WritebackHint:
            assert WritebackHint.from_bits(*hint.bits) is hint

    def test_invalid_hint_bits(self):
        with pytest.raises(IsaError):
            WritebackHint.from_bits(False, False)

    def test_hint_bit_meanings(self):
        assert WritebackHint.OC_ONLY.to_oc and not WritebackHint.OC_ONLY.to_rf
        assert WritebackHint.RF_ONLY.to_rf and not WritebackHint.RF_ONLY.to_oc
        assert WritebackHint.BOTH.to_oc and WritebackHint.BOTH.to_rf


class TestRendering:
    def test_str_with_operands(self):
        inst = make("add", dest=1, sources=(2, 3))
        assert str(inst) == "add $r1, $r2, $r3"

    def test_str_with_immediate(self):
        inst = make("mov", dest=1, sources=(2,), imm=0x10)
        assert "0x00000010" in str(inst)

    def test_str_with_predicate(self):
        inst = Instruction(
            opcode=opcode_by_name("add"),
            dest=Register(1),
            sources=(Register(2), Register(3)),
            predicate=Predicate(0, negated=True),
        )
        assert str(inst).startswith("@!$p0 add")
