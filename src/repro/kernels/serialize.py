"""Trace and kernel serialization.

Traces are the interchange format of this library — the analyses, the
timing model, and the SIMT layer all consume them — so they can be
saved and reloaded: exact reproduction of a run without regenerating
workloads, sharing of inputs between machines, and regression pinning
of interesting traces.

The format is plain JSON: one object per instruction, ``uid``-preserving
within a file (shared static instructions across loop iterations stay
shared after a round trip, which the compiler-hint machinery relies on).

Simulation results, the run-cache payload, are JSON objects as well,
with the register and memory images packed as base64 uint32 words (see
:func:`result_to_dict`).
"""

from __future__ import annotations

import base64
import json
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

from ..errors import KernelError
from ..isa import Instruction, WritebackHint
from ..isa.opcodes import opcode_by_name
from ..isa.registers import Predicate, Register
from ..stats.counters import Counters
from .trace import KernelTrace, WarpTrace

if TYPE_CHECKING:  # avoid the kernels -> gpu import cycle at runtime
    from ..gpu.sm import SimulationResult

#: Format version written into every file.
FORMAT_VERSION = 1

#: Format version of serialized simulation results.
RESULT_FORMAT_VERSION = 2


def _instruction_to_dict(inst: Instruction) -> Dict:
    data: Dict = {"op": inst.opcode.name}
    if inst.dest is not None:
        data["dest"] = inst.dest.id
    if inst.sources:
        data["src"] = [src.id for src in inst.sources]
    if inst.immediate is not None:
        data["imm"] = inst.immediate
    if inst.predicate is not None:
        data["guard"] = [inst.predicate.id, inst.predicate.negated]
    if inst.pred_dest is not None:
        data["pdest"] = inst.pred_dest.id
    if inst.hint is not WritebackHint.BOTH:
        data["hint"] = inst.hint.name
    return data


def _instruction_from_dict(data: Dict) -> Instruction:
    try:
        opcode = opcode_by_name(data["op"])
    except KeyError:
        raise KernelError("instruction record missing 'op'") from None
    guard = None
    if "guard" in data:
        pred_id, negated = data["guard"]
        guard = Predicate(pred_id, negated=bool(negated))
    hint = WritebackHint[data["hint"]] if "hint" in data else WritebackHint.BOTH
    return Instruction(
        opcode=opcode,
        dest=Register(data["dest"]) if "dest" in data else None,
        sources=tuple(Register(s) for s in data.get("src", ())),
        immediate=data.get("imm"),
        predicate=guard,
        pred_dest=Predicate(data["pdest"]) if "pdest" in data else None,
        hint=hint,
    )


#: Public names for the per-instruction record codec: the external
#: trace-case format (:mod:`repro.kernels.external`) shares it, so one
#: instruction encodes identically in both formats.
instruction_to_dict = _instruction_to_dict
instruction_from_dict = _instruction_from_dict


def trace_to_dict(trace: KernelTrace) -> Dict:
    """Serialize a kernel trace to a JSON-compatible dict.

    Instructions shared between dynamic positions (loop bodies) are
    stored once in an instruction pool and referenced by index.
    """
    pool: List[Dict] = []
    pool_index: Dict[int, int] = {}
    warps = []
    for warp in trace:
        indices = []
        for inst in warp:
            if inst.uid not in pool_index:
                pool_index[inst.uid] = len(pool)
                pool.append(_instruction_to_dict(inst))
            indices.append(pool_index[inst.uid])
        warps.append({"warp_id": warp.warp_id, "instructions": indices})
    return {
        "version": FORMAT_VERSION,
        "name": trace.name,
        "pool": pool,
        "warps": warps,
    }


def trace_from_dict(data: Dict) -> KernelTrace:
    """Rebuild a kernel trace from :func:`trace_to_dict` output."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise KernelError(
            f"unsupported trace format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        pool = [_instruction_from_dict(item) for item in data["pool"]]
        warps = [
            WarpTrace(
                warp_id=entry["warp_id"],
                instructions=[pool[index] for index in entry["instructions"]],
            )
            for entry in data["warps"]
        ]
        return KernelTrace(name=data["name"], warps=warps)
    except (KeyError, IndexError, TypeError) as error:
        raise KernelError(f"malformed trace record: {error}") from None


def save_trace(trace: KernelTrace, path: Union[str, Path]) -> None:
    """Write a trace to a JSON file."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: Union[str, Path]) -> KernelTrace:
    """Read a trace written by :func:`save_trace`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise KernelError(f"not a trace file: {error}") from None
    return trace_from_dict(data)


# ---------------------------------------------------------------------------
# SimulationResult round-trip (the run-cache payload format)
# ---------------------------------------------------------------------------

def _pack_words(words: List[int]) -> str:
    """Base64 of ``words`` as little-endian uint32, one per word."""
    try:
        raw = struct.pack(f"<{len(words)}I", *words)
    except struct.error as error:
        raise KernelError(f"image word is not a uint32: {error}") from None
    return base64.b64encode(raw).decode("ascii")


def _unpack_words(text: str, width: int) -> Tuple[int, ...]:
    """The uint32 words of :func:`_pack_words` text; ``width`` is the
    record size in words, and a partial record is rejected."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) % (4 * width):
        raise KernelError(
            f"image payload of {len(raw)} bytes is not a whole number "
            f"of {4 * width}-byte records"
        )
    return struct.unpack(f"<{len(raw) // 4}I", raw)


def result_to_dict(result: "SimulationResult") -> Dict:
    """Serialize a simulation result to a JSON-compatible dict.

    ``"counters"`` is a plain JSON object.  The register and memory
    images are each one base64 string of little-endian uint32 words:
    ``warp, register, value`` triples and ``address, value`` pairs, in
    sorted key order, so equal results serialize to equal JSON.  The
    engine masks every register and memory value to 32 bits, so a word
    outside ``0 .. 2**32 - 1`` is a bug and raises :class:`KernelError`
    instead of being truncated.
    """
    return {
        "version": RESULT_FORMAT_VERSION,
        "counters": result.counters.as_dict(),
        "registers": _pack_words([
            word
            for (warp_id, register_id), value
            in sorted(result.register_image.items())
            for word in (warp_id, register_id, value)
        ]),
        "memory": _pack_words([
            word
            for item in sorted(result.memory_image.items())
            for word in item
        ]),
    }


def result_from_dict(data: Dict) -> "SimulationResult":
    """Rebuild a simulation result from :func:`result_to_dict` output.

    Any malformed field (a missing key, an unknown counter, non-base64
    text, an image that is not whole records) raises
    :class:`KernelError`.
    """
    from ..gpu.sm import SimulationResult

    version = data.get("version") if isinstance(data, dict) else None
    if version != RESULT_FORMAT_VERSION:
        raise KernelError(
            f"unsupported result format version {version!r} "
            f"(expected {RESULT_FORMAT_VERSION})"
        )
    try:
        counters = Counters(**data["counters"])
        regs = _unpack_words(data["registers"], 3)
        mem = _unpack_words(data["memory"], 2)
    except (KeyError, TypeError, ValueError) as error:
        raise KernelError(f"malformed result record: {error}") from None
    return SimulationResult(
        counters=counters,
        register_image=dict(zip(zip(regs[0::3], regs[1::3]), regs[2::3])),
        memory_image=dict(zip(mem[0::2], mem[1::2])),
    )


def save_result(result: "SimulationResult", path: Union[str, Path]) -> None:
    """Write a simulation result to a JSON file."""
    Path(path).write_text(json.dumps(result_to_dict(result)))


def load_result(path: Union[str, Path]) -> "SimulationResult":
    """Read a result written by :func:`save_result`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise KernelError(f"not a result file: {error}") from None
    return result_from_dict(data)
