"""Tests for the compile() driver."""

import pytest

from repro.compiler import compile_kernel
from repro.compiler.allocation import effective_register_demand
from repro.compiler.liveness import compute_liveness
from repro.compiler.writeback import WritebackClass, annotate_cfg, classify_cfg
from repro.isa import WritebackHint, parse_program
from repro.kernels.cfg import straightline_kernel
from repro.kernels.suites import benchmark_names, get_profile
from repro.kernels.synthetic import generate_kernel


@pytest.fixture
def compiled():
    kernel = straightline_kernel("k", parse_program("""
        mov.u32 $r1, 0x1
        add.u32 $r2, $r1, $r1
        st.global.u32 [$r3], $r2
    """))
    return compile_kernel(kernel, window_size=3)


class TestCompileKernel:
    def test_result_fields(self, compiled):
        assert compiled.window_size == 3
        assert "entry" in compiled.classifications
        assert compiled.allocation.total_registers == 3

    def test_instructions_annotated_in_place(self, compiled):
        block = compiled.cfg.blocks["entry"]
        assert block.instructions[0].hint is WritebackHint.OC_ONLY

    def test_hint_map_covers_all_dests(self, compiled):
        dest_uids = [
            inst.uid
            for block in compiled.cfg
            for inst in block.instructions
            if inst.dest is not None
        ]
        assert set(dest_uids) <= set(compiled.hints)

    def test_hint_distribution(self, compiled):
        dist = compiled.hint_distribution()
        assert dist[WritebackClass.OC_ONLY] == pytest.approx(1.0)

    def test_benchmark_kernel_compiles(self):
        kernel = generate_kernel(get_profile("SRAD").spec)
        compiled = compile_kernel(kernel, window_size=3)
        dist = compiled.hint_distribution()
        assert sum(dist.values()) == pytest.approx(1.0)
        # All three targets appear in a realistic kernel.
        assert dist[WritebackClass.RF_ONLY] > 0
        assert dist[WritebackClass.OC_ONLY] > 0
        assert dist[WritebackClass.BOTH] > 0


def _separate_passes(cfg, window_size):
    """The pipeline as three independent passes, each deriving its own
    liveness and classification."""
    liveness = compute_liveness(cfg)
    classifications = classify_cfg(cfg, window_size, liveness)
    hints = annotate_cfg(cfg, window_size, liveness)
    return classifications, hints, effective_register_demand(cfg, window_size)


def _positional_hints(cfg, hints):
    return [[hints.get(inst.uid) for inst in block.instructions]
            for block in cfg]


class TestSharedAnalysis:
    """One liveness and one classification serve every compile pass."""

    @pytest.mark.parametrize("window_size", [1, 2, 3, 4])
    def test_matches_separate_passes_on_the_suite(self, window_size):
        for bench in benchmark_names():
            spec = get_profile(bench).spec
            reference_cfg = generate_kernel(spec)
            classifications, hints, allocation = _separate_passes(
                reference_cfg, window_size)
            compiled = compile_kernel(generate_kernel(spec), window_size)
            assert compiled.classifications == classifications, bench
            assert compiled.allocation == allocation, bench
            assert (_positional_hints(compiled.cfg, compiled.hints)
                    == _positional_hints(reference_cfg, hints)), bench
            assert ([inst.hint for block in compiled.cfg
                     for inst in block.instructions]
                    == [inst.hint for block in reference_cfg
                        for inst in block.instructions]), bench

    def test_compile_classifies_once(self, monkeypatch):
        from repro.compiler import allocation, pipeline, writeback

        calls = []
        original = writeback.classify_cfg

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        for module in (pipeline, writeback, allocation):
            monkeypatch.setattr(module, "classify_cfg", counted)
        compile_kernel(generate_kernel(get_profile("SAD").spec), 3)
        assert calls == [3]
