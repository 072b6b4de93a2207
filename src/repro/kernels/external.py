"""External traces: the JSONL case format and its importer.

This is the scenario-ingestion frontend: a documented, line-oriented
format for complete simulation cases — instruction stream, warp
structure, and launch parameters — that feeds the normal launch path.
Two producers share it:

* the kernel fuzzer (:mod:`repro.fuzz`) writes minimized differential
  failures to a corpus directory, replayed forever as ordinary
  regressions (``tests/fuzz/test_corpus.py``);
* third-party tooling can translate real GPU traces into the same
  format and run them as first-class benchmarks through
  ``repro trace-import``.

Format (one JSON object per line, schema checked in at
:data:`repro.observe.schema.TRACE_CASE_SCHEMA`):

* line 1 — a ``header`` record: case name, format version, the launch
  parameters (``window``, ``memory_seed``, ``num_sms``, ``num_warps``)
  plus optional ``designs`` (what the case was failing/checked
  against) and free-form ``meta`` provenance;
* one ``warp`` record per warp, declaring ``warp_id`` and its
  instruction count (warp structure is explicit, so zero-instruction
  warps are representable);
* one ``inst`` record per *dynamic* instruction, carrying its warp id
  and the same instruction encoding :mod:`repro.kernels.serialize`
  uses (``op``/``dest``/``src``/``imm``/``guard``/``pdest``/``hint``).

Instruction records are flat — one per dynamic slot, no static pool —
because that is what an external tracer naturally emits.  Hints ride
along per record, so a hint-compiled fuzz trace replays with its
writeback behaviour intact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from ..errors import KernelError
from .serialize import instruction_from_dict, instruction_to_dict
from .trace import KernelTrace, WarpTrace

#: Format version written into every header.
CASE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TraceCase:
    """One complete, replayable simulation case.

    Attributes:
        trace: the dynamic per-warp instruction streams.
        window: instruction window the case runs at (hinted traces were
            compiled for exactly this window).
        memory_seed: the memory-latency model's seed.
        num_sms: SMs the launch is partitioned across on replay (1 =
            single-SM, the default launch path).
        designs: design names this case is meant to check (empty =
            caller's choice; the corpus replay test runs these).
        meta: free-form provenance (fuzz seed, mismatch kinds, ...).
    """

    trace: KernelTrace
    window: int = 3
    memory_seed: int = 7
    num_sms: int = 1
    designs: Tuple[str, ...] = ()
    meta: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window < 0:
            raise KernelError(f"window must be >= 0, got {self.window}")
        if self.num_sms < 1:
            raise KernelError(f"num_sms must be >= 1, got {self.num_sms}")

    @property
    def name(self) -> str:
        return self.trace.name


def case_to_records(case: TraceCase) -> Iterator[Dict]:
    """The case as its JSONL record stream (header, warps, insts)."""
    header: Dict = {
        "type": "header",
        "schema": CASE_FORMAT_VERSION,
        "name": case.trace.name,
        "window": case.window,
        "memory_seed": case.memory_seed,
        "num_sms": case.num_sms,
        "num_warps": case.trace.num_warps,
    }
    if case.designs:
        header["designs"] = list(case.designs)
    if case.meta:
        header["meta"] = case.meta
    yield header
    for warp in case.trace:
        yield {"type": "warp", "warp_id": warp.warp_id,
               "instructions": len(warp.instructions)}
        for inst in warp:
            record = {"type": "inst", "warp": warp.warp_id}
            record.update(instruction_to_dict(inst))
            yield record


def case_from_records(records: Iterable[Dict]) -> TraceCase:
    """Rebuild a case from its record stream (schema-validated)."""
    from ..observe.schema import validate_trace_case_record

    header: Dict = {}
    warps: Dict[int, List] = {}
    declared: Dict[int, int] = {}
    order: List[int] = []
    for line_no, record in enumerate(records, start=1):
        validate_trace_case_record(record)
        kind = record["type"]
        if line_no == 1 and kind != "header":
            raise KernelError(
                "trace case must start with a header record"
            )
        if kind == "header":
            if header:
                raise KernelError("duplicate header record")
            if record["schema"] != CASE_FORMAT_VERSION:
                raise KernelError(
                    f"unsupported trace-case schema {record['schema']!r} "
                    f"(expected {CASE_FORMAT_VERSION})"
                )
            header = record
        elif kind == "warp":
            warp_id = record["warp_id"]
            if warp_id in warps:
                raise KernelError(f"duplicate warp record {warp_id}")
            warps[warp_id] = []
            declared[warp_id] = record["instructions"]
            order.append(warp_id)
        else:  # inst
            warp_id = record["warp"]
            if warp_id not in warps:
                raise KernelError(
                    f"instruction record references undeclared warp "
                    f"{warp_id}"
                )
            warps[warp_id].append(instruction_from_dict(record))
    if not header:
        raise KernelError("trace case has no header record")
    for warp_id, expected in declared.items():
        if len(warps[warp_id]) != expected:
            raise KernelError(
                f"warp {warp_id} declared {expected} instruction(s) "
                f"but carries {len(warps[warp_id])}"
            )
    if header["num_warps"] != len(order):
        raise KernelError(
            f"header declares {header['num_warps']} warp(s) "
            f"but {len(order)} are present"
        )
    trace = KernelTrace(
        name=header["name"],
        warps=[WarpTrace(warp_id=warp_id, instructions=warps[warp_id])
               for warp_id in order],
    )
    return TraceCase(
        trace=trace,
        window=header["window"],
        memory_seed=header["memory_seed"],
        num_sms=header["num_sms"],
        designs=tuple(header.get("designs", ())),
        meta=dict(header.get("meta", {})),
    )


def save_case(case: TraceCase, path: Union[str, Path]) -> Path:
    """Write a case as JSONL; returns the path written."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in case_to_records(case):
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


def load_case(path: Union[str, Path]) -> TraceCase:
    """Read and validate a JSONL case written by :func:`save_case`
    (or any external producer honouring the schema)."""
    path = Path(path)
    records = []
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise KernelError(
                    f"{path.name}:{line_no}: not a JSON record: {error}"
                ) from None
    if not records:
        raise KernelError(f"{path.name}: empty trace-case file")
    return case_from_records(records)


def corpus_paths(directory: Union[str, Path]) -> List[Path]:
    """All ``*.jsonl`` case files under ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.jsonl"))
