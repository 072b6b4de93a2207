"""The differential executor: generated kernels vs the reference.

One generated case (:func:`~repro.fuzz.generator.generate_case`) runs
through every requested design — single-SM via
:func:`~repro.core.bow_sm.simulate_design` and, when asked, at device
scale via :func:`~repro.gpu.device.simulate_device` — and each run is
checked against :func:`~repro.gpu.reference.execute_reference` on the
same trace, using exactly the equivalence the differential-oracle
suite enforces:

* memory image identical;
* register image identical — relaxed for hinted designs, which may
  legitimately elide a register whose last write is predicated or
  classified ``OC_ONLY`` (dead beyond the window);
* the recorder's ``commit`` events, per warp and sorted to program
  order, exactly the reference's architectural commit stream;
* the ``instructions`` counter equal to the reference's dynamic
  instruction count.

On the first mismatch :func:`run_fuzz` stops, minimizes the failing
case with :func:`~repro.fuzz.shrink.shrink_case` (predicate: "this
design still mismatches on this case"), writes the minimized repro to
the corpus directory in the JSONL trace-case format, and reports it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.bow_sm import simulate_design
from ..core.designs import design_names, get_design, known_designs
from ..errors import SimulationError
from ..gpu.device import simulate_device
from ..gpu.reference import ReferenceResult, execute_reference
from ..isa import WritebackHint
from ..isa.registers import SINK_REGISTER
from ..kernels.external import TraceCase, save_case
from ..kernels.trace import KernelTrace
from ..stats.trace import TraceRecorder
from .generator import DEFAULT_CONFIG, FuzzCase, FuzzConfig, generate_case
from .shrink import ShrinkResult, shrink_case

#: Ring capacity for fuzz recorders — large enough that no generated
#: case (bounded by ``FuzzConfig.max_trace_instructions`` x warps)
#: ever drops a commit event.
RECORDER_CAPACITY = 1 << 18


@dataclass(frozen=True)
class Mismatch:
    """One observed divergence between a design run and the reference.

    ``kind`` is one of ``memory`` / ``registers`` / ``commits`` /
    ``instructions``; ``detail`` pinpoints the first difference.
    """

    design: str
    num_sms: int
    kind: str
    detail: str

    def __str__(self) -> str:
        return (f"{self.design} (num_sms={self.num_sms}): "
                f"{self.kind}: {self.detail}")


def _last_writes(trace: KernelTrace) -> Dict[Tuple[int, int], object]:
    """The last static write of each (warp, register) in the trace."""
    last: Dict[Tuple[int, int], object] = {}
    for warp in trace:
        for inst in warp:
            if inst.dest is not None and inst.dest != SINK_REGISTER:
                last[(warp.warp_id, inst.dest.id)] = inst
    return last


def _run_case(case: TraceCase, design: str, fast_forward: bool = True):
    """Execute ``case`` on ``design``; -> (SimulationResult, recorders)."""
    if case.num_sms <= 1:
        recorder = TraceRecorder(capacity=RECORDER_CAPACITY)
        result = simulate_design(
            design, case.trace, window_size=case.window,
            memory_seed=case.memory_seed, recorder=recorder,
            fast_forward=fast_forward)
        return result, [recorder]
    device = simulate_device(
        design, case.trace, num_sms=case.num_sms, window_size=case.window,
        memory_seed=case.memory_seed, jobs=1,
        recorder_factory=lambda sm_id: TraceRecorder(
            capacity=RECORDER_CAPACITY),
        fast_forward=fast_forward,
    )
    recorders = [device.recorders[sm_id]
                 for sm_id in sorted(device.recorders)]
    return device.to_simulation_result(), recorders


def _engine_commits(recorders) -> Dict[int, List[Tuple[int, str]]]:
    """Per-warp commit streams, sorted to program order."""
    commits: Dict[int, List[Tuple[int, str]]] = {}
    for recorder in recorders:
        if recorder.dropped:
            raise SimulationError(
                f"fuzz recorder overflow: {recorder.emitted} events "
                f"exceed the {RECORDER_CAPACITY}-entry ring"
            )
        for event in recorder.commits():
            commits.setdefault(event.warp, []).append(
                (event.trace_index, event.opcode))
    return {warp: sorted(events) for warp, events in commits.items()}


def _register_detail(hinted: bool, trace: KernelTrace,
                     reference: ReferenceResult,
                     image: Dict[Tuple[int, int], int]) -> Optional[str]:
    """First register divergence under the oracle's relaxation rule."""
    last_writes = _last_writes(trace) if hinted else {}
    for key, value in sorted(reference.registers.items()):
        if hinted:
            # The compiler may classify a register's final write as
            # OC-only or predicated and elide its RF write; only a key
            # whose last write is unpredicated and RF-bound must land.
            inst = last_writes.get(key)
            if inst is not None and (
                inst.predicate is not None
                or inst.hint is WritebackHint.OC_ONLY
            ):
                continue
            if key not in image:
                continue  # never materialized in the RF model
        if key not in image:
            return (f"register (warp {key[0]}, r{key[1]}) missing "
                    f"(reference {value:#x})")
        if image[key] != value:
            return (f"register (warp {key[0]}, r{key[1]}) holds "
                    f"{image[key]:#x}, reference says {value:#x}")
    return None


def _memory_detail(reference: ReferenceResult,
                   image: Dict[int, int]) -> Optional[str]:
    if image == reference.memory:
        return None
    for address in sorted(set(image) | set(reference.memory)):
        have = image.get(address)
        want = reference.memory.get(address)
        if have != want:
            return (f"address {address:#x} holds "
                    f"{'<absent>' if have is None else hex(have)}, "
                    f"reference says "
                    f"{'<absent>' if want is None else hex(want)}")
    return None  # pragma: no cover — unequal dicts always differ somewhere


def _commit_detail(reference: ReferenceResult,
                   commits: Dict[int, List[Tuple[int, str]]]
                   ) -> Optional[str]:
    expected = {warp: sorted(events)
                for warp, events in reference.commits_by_warp().items()}
    if commits == expected:
        return None
    for warp in sorted(set(commits) | set(expected)):
        have = commits.get(warp, [])
        want = expected.get(warp, [])
        if have == want:
            continue
        if len(have) != len(want):
            return (f"warp {warp} committed {len(have)} instruction(s), "
                    f"reference says {len(want)}")
        for (hi, hop), (wi, wop) in zip(have, want):
            if (hi, hop) != (wi, wop):
                return (f"warp {warp} trace index {hi} committed "
                        f"{hop!r}, reference says {wop!r} at {wi}")
    return None  # pragma: no cover


def compare_case(case: TraceCase, design: str,
                 reference: Optional[ReferenceResult] = None,
                 fast_forward: bool = True) -> List[Mismatch]:
    """Run ``case`` on ``design`` and diff it against the reference.

    Returns every observed divergence (empty list = architecturally
    equivalent).  ``reference`` may be passed in to amortize the
    functional execution across designs sharing a trace.
    ``fast_forward=False`` runs the engine's reference loop (every
    stage and the full issue walk every cycle, no idle-span jumps) —
    the campaign uses it to attribute a mismatch to the design model
    vs. the engine's optimized loop.
    """
    try:
        spec = get_design(design)
    except KeyError:
        raise SimulationError(
            f"unknown design {design!r}; known: {known_designs()}"
        ) from None
    if reference is None:
        reference = execute_reference(case.trace,
                                      memory_seed=case.memory_seed)
    result, recorders = _run_case(case, design, fast_forward=fast_forward)
    mismatches: List[Mismatch] = []

    def found(kind: str, detail: str) -> None:
        mismatches.append(Mismatch(design=design, num_sms=case.num_sms,
                                   kind=kind, detail=detail))

    detail = _memory_detail(reference, result.memory_image)
    if detail:
        found("memory", detail)
    detail = _register_detail(spec.hinted, case.trace, reference,
                              result.register_image)
    if detail:
        found("registers", detail)
    if result.counters.instructions != reference.instructions:
        found("instructions",
              f"counter says {result.counters.instructions}, "
              f"reference committed {reference.instructions}")
    detail = _commit_detail(reference, _engine_commits(recorders))
    if detail:
        found("commits", detail)
    return mismatches


def case_for(fuzz_case: FuzzCase, design: str,
             num_sms: int = 1) -> TraceCase:
    """The :class:`TraceCase` ``design`` runs for ``fuzz_case``.

    Hinted designs get the hint-compiled expansion (compiled for the
    case's window), everything else the plain one — exactly how the
    experiment harness prepares benchmark traces.
    """
    return TraceCase(
        trace=fuzz_case.trace_for(get_design(design).hinted),
        window=fuzz_case.window,
        memory_seed=fuzz_case.memory_seed,
        num_sms=num_sms,
        designs=(design,),
        meta={"fuzz_seed": fuzz_case.seed, "generator": "repro.fuzz"},
    )


@dataclass
class FuzzFailure:
    """A caught, minimized differential failure.

    ``fast_forward_only`` is True when the same case re-run on the
    engine's reference loop matched the reference — i.e. the
    divergence is in the optimized loop (tick guards, the cached issue
    profile, or the idle-span jump), not in the design model itself.
    """

    seed: int
    design: str
    num_sms: int
    mismatches: List[Mismatch]
    shrink: ShrinkResult
    corpus_path: Optional[Path] = None
    fast_forward_only: bool = False

    @property
    def case(self) -> TraceCase:
        return self.shrink.case


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    cases: int
    runs: int
    designs: Tuple[str, ...]
    failure: Optional[FuzzFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _reproduces(design: str) -> Callable[[TraceCase], bool]:
    """The shrinker's predicate: ``design`` still mismatches."""
    def predicate(candidate: TraceCase) -> bool:
        try:
            return bool(compare_case(candidate, design))
        except Exception:  # noqa: BLE001 — a crash is a different failure
            return False
    return predicate


def _corpus_filename(seed: int, design: str) -> str:
    safe_design = "".join(ch if ch.isalnum() or ch in "-_" else "-"
                          for ch in design)
    return f"fuzz-seed{seed}-{safe_design}.jsonl"


def run_fuzz(
    seed: int = 0,
    cases: int = 50,
    designs: Optional[Sequence[str]] = None,
    sms: int = 1,
    corpus_dir: Optional[Union[str, Path]] = None,
    max_shrink: int = 500,
    config: FuzzConfig = DEFAULT_CONFIG,
    inject_bug: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """One fuzzing campaign: ``cases`` seeds x designs x SM counts.

    Case ``i`` uses seed ``seed + i``, so a campaign is a contiguous,
    reproducible seed range.  Every design runs single-SM; when ``sms
    > 1`` each design additionally runs at device scale with that SM
    count.  The campaign stops at the first mismatch: the failing case
    is shrunk (``max_shrink`` predicate-evaluation budget) and, when
    ``corpus_dir`` is given, written there as a JSONL trace-case.

    ``inject_bug`` registers a deliberately broken design
    (:mod:`repro.testing.bugs`) for the campaign's duration and fuzzes
    it alongside — the harness's own end-to-end self-test.
    """
    if cases < 1:
        raise SimulationError(f"cases must be >= 1, got {cases}")
    if sms < 1:
        raise SimulationError(f"sms must be >= 1, got {sms}")
    sm_counts = (1,) if sms == 1 else (1, sms)

    with contextlib.ExitStack() as stack:
        names = list(designs) if designs else list(design_names())
        if inject_bug is not None:
            from ..testing.bugs import injected_bug

            spec = stack.enter_context(injected_bug(inject_bug))
            names.append(spec.name)
        for name in names:
            try:
                get_design(name)
            except KeyError:
                raise SimulationError(
                    f"unknown design {name!r}; known: {known_designs()}"
                ) from None

        runs = 0
        for index in range(cases):
            case_seed = seed + index
            fuzz_case = generate_case(case_seed, config)
            # The functional reference is per trace variant, shared by
            # every design (and SM count) running that variant.
            references: Dict[int, ReferenceResult] = {}
            for design in names:
                for num_sms in sm_counts:
                    case = case_for(fuzz_case, design, num_sms=num_sms)
                    key = id(case.trace)
                    if key not in references:
                        references[key] = execute_reference(
                            case.trace, memory_seed=case.memory_seed)
                    mismatches = compare_case(case, design,
                                              reference=references[key])
                    runs += 1
                    if not mismatches:
                        continue
                    # Attribute the mismatch before reporting: re-run
                    # the same case on the reference loop.  A clean
                    # reference run pins the bug on the optimized loop
                    # rather than the design model.
                    slow_mismatches = compare_case(
                        case, design, reference=references[key],
                        fast_forward=False)
                    fast_forward_only = not slow_mismatches
                    if log is not None:
                        blame = ("optimized loop"
                                 if fast_forward_only else "design model")
                        log(f"seed {case_seed}: MISMATCH on {design} "
                            f"(num_sms={num_sms}, {blame}); shrinking ...")
                    case = replace(case, meta=dict(
                        case.meta,
                        mismatch=[m.kind for m in mismatches],
                        fast_forward_only=fast_forward_only,
                    ))
                    shrink = shrink_case(case, _reproduces(design),
                                         max_attempts=max_shrink)
                    corpus_path = None
                    if corpus_dir is not None:
                        directory = Path(corpus_dir)
                        directory.mkdir(parents=True, exist_ok=True)
                        corpus_path = save_case(
                            shrink.case,
                            directory / _corpus_filename(case_seed, design),
                        )
                    return FuzzReport(
                        cases=index + 1,
                        runs=runs,
                        designs=tuple(names),
                        failure=FuzzFailure(
                            seed=case_seed,
                            design=design,
                            num_sms=num_sms,
                            mismatches=mismatches,
                            shrink=shrink,
                            corpus_path=corpus_path,
                            fast_forward_only=fast_forward_only,
                        ),
                    )
            if log is not None and (index + 1) % 10 == 0:
                log(f"{index + 1}/{cases} cases clean "
                    f"({runs} design runs)")
        return FuzzReport(cases=cases, runs=runs, designs=tuple(names))
