"""Per-instruction decode cache: static facts computed once per trace.

Every cycle the engine and the operand providers need the same small
facts about an instruction — which registers it reads, which banks they
live in, whether it writes the RF, its execution-unit bucket, its fixed
latency, its writeback hint.  All of that is static per (warp,
instruction): deriving it per cycle through ``Instruction``'s property
chain (`inst.opcode.op_class`, `Register.id`, ...) is pure hot-loop
overhead.

:func:`decode_warp` precomputes it into :class:`DecodedOp` records,
indexable by trace position, that the pipeline stages and providers
read directly.  A warp's trace repeats its static instructions once per
loop iteration, and every position of one static instruction shares a
single record, so a warp holds one record per distinct instruction, not
one per position.  Bank ids are warp-dependent (``bank_of(warp, reg)``),
which is why the sharing stops at the warp boundary.  The records live
as long as the trace that stashes them (:func:`decode_warp_cached`);
there is no process-global table.

Decoding is a pure read of the instruction; it never changes what the
engine simulates, only where the facts are looked up.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..config import GPUConfig
from ..isa import Instruction, OpClass, WritebackHint
from ..isa.registers import SINK_REGISTER
from .execution import BUCKET_ALU, BUCKET_MEM, BUCKET_SFU, latency_for


class DecodedOp:
    """Static metadata of one instruction of one warp.

    Every trace position holding the same instruction object shares one
    record, so a record carries no per-position state and is never
    written after construction.

    Attributes:
        inst: the decoded :class:`~repro.isa.Instruction`.
        opcode_name: ``inst.opcode.name`` (trace-event payloads).
        op_class: the instruction's :class:`~repro.isa.OpClass`.
        bucket: execution-unit dispatch bucket index (one of the
            ``BUCKET_*`` constants in :mod:`repro.gpu.execution`;
            memory ops share the memory unit, control/NOP the ALU
            ports).
        is_memory / is_load / is_store / is_control: class tests.
        num_sources: register source-operand count.
        source_ids: source register ids, in operand-slot order.
        source_banks: bank of each source for the owning warp.
        dest_id: destination register id (``None`` when the opcode
            writes nothing; the sink register keeps its raw id here).
        rf_dest_id: destination id when it is a *real* RF register —
            ``None`` for no-dest opcodes and for the ``$o127`` sink.
            This is the id the scoreboard and the writeback path track.
        dest_bank: bank of ``rf_dest_id`` for the owning warp.
        imm_pad: the operand-slot padding value (``immediate or 0``).
        semantic: the opcode's semantic callable (may be ``None``).
        latency: fixed execution latency; ``None`` for memory ops,
            whose latency the memory model samples per access.
        guard_id / guard_negated: guarding predicate, when present.
        pred_dest_id: predicate register written, when present.
        hint: the BOW-WR writeback hint.
        hint_rf_only / hint_oc_only: hint identity tests, precomputed.
    """

    __slots__ = (
        "inst", "opcode_name", "op_class", "bucket",
        "is_memory", "is_load", "is_store", "is_control", "is_nop",
        "num_sources", "source_ids", "source_banks",
        "dest_id", "rf_dest_id", "dest_bank",
        "imm_pad", "semantic", "latency",
        "guard_id", "guard_negated", "pred_dest_id",
        "hint", "hint_rf_only", "hint_oc_only",
        "__weakref__",
    )

    def __init__(self, warp_id: int, inst: Instruction, config: GPUConfig):
        opcode = inst.opcode
        op_class = opcode.op_class
        self.inst = inst
        self.opcode_name = opcode.name
        self.op_class = op_class
        self.is_memory = op_class.is_memory
        self.is_load = op_class is OpClass.MEM_LOAD
        self.is_store = op_class is OpClass.MEM_STORE
        self.is_control = op_class.is_control
        self.is_nop = op_class is OpClass.NOP
        if self.is_memory:
            self.bucket = BUCKET_MEM
            self.latency = None
        else:
            self.bucket = (
                BUCKET_SFU if op_class is OpClass.SFU else BUCKET_ALU
            )
            self.latency = latency_for(inst, config)
        self.num_sources = len(inst.sources)
        self.source_ids = tuple(src.id for src in inst.sources)
        self.source_banks = tuple(
            config.bank_of(warp_id, reg_id) for reg_id in self.source_ids
        )
        dest = inst.dest
        self.dest_id = None if dest is None else dest.id
        if dest is None or dest == SINK_REGISTER:
            self.rf_dest_id = None
            self.dest_bank = None
        else:
            self.rf_dest_id = dest.id
            self.dest_bank = config.bank_of(warp_id, dest.id)
        self.imm_pad = inst.immediate or 0
        self.semantic = opcode.semantic
        guard = inst.predicate
        self.guard_id = None if guard is None else guard.id
        self.guard_negated = guard is not None and guard.negated
        self.pred_dest_id = (
            None if inst.pred_dest is None else inst.pred_dest.id
        )
        self.hint = inst.hint
        self.hint_rf_only = inst.hint is WritebackHint.RF_ONLY
        self.hint_oc_only = inst.hint is WritebackHint.OC_ONLY

    def __repr__(self) -> str:
        return f"DecodedOp({self.opcode_name}, sources={self.source_ids})"


def decode_warp(warp_id: int, instructions: Sequence[Instruction],
                config: GPUConfig) -> List[DecodedOp]:
    """Decode a warp's whole trace, indexable by trace position.

    Positions holding the same instruction object (the iterations of a
    loop) share one record; the memo lives only for this call.
    """
    memo: Dict[int, DecodedOp] = {}
    decoded = []
    for inst in instructions:
        dec = memo.get(id(inst))
        if dec is None:
            dec = memo[id(inst)] = DecodedOp(warp_id, inst, config)
        decoded.append(dec)
    return decoded


#: Attribute used to stash per-(config, warp) decode results on a
#: KernelTrace.  Decoding is a pure function of (warp_id, instructions,
#: config) and traces are treated as immutable once built, so repeated
#: engines over the same trace object (benchmark rounds, design sweeps,
#: fast-forward parity runs) can share one decode.
_CACHE_ATTR = "_decoded_ops_cache"


def decode_warp_cached(trace, warp_id: int,
                       instructions: Sequence[Instruction],
                       config: GPUConfig) -> List[DecodedOp]:
    """Like :func:`decode_warp`, memoized on the owning trace object.

    The cache key is ``(config, warp_id)`` — :class:`GPUConfig` is a
    frozen (hashable) dataclass, and bank mapping is warp-dependent.
    Falls back to plain decoding when the trace object refuses
    attribute assignment (e.g. a slotted stand-in in tests).
    """
    cache = getattr(trace, _CACHE_ATTR, None)
    if cache is None:
        cache = {}
        try:
            setattr(trace, _CACHE_ATTR, cache)
        except (AttributeError, TypeError):
            return decode_warp(warp_id, instructions, config)
    key = (config, warp_id)
    decoded = cache.get(key)
    if decoded is None:
        decoded = cache[key] = decode_warp(warp_id, instructions, config)
    return decoded
