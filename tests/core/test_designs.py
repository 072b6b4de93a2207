"""Tests for the declarative design registry (:mod:`repro.core.designs`)."""

import pytest

from repro.core.bow_sm import simulate_design
from repro.core.designs import (
    DesignSpec,
    design_names,
    design_specs,
    get_design,
    known_designs,
    register_design,
    temporary_design,
    unregister_design,
)
from repro.errors import ExperimentError, SimulationError
from repro.experiments.runner import (
    design_spec,
    effective_window,
    validate_design,
)
from repro.gpu.collector import BaselineCollectorPool
from repro.isa import parse_program
from repro.kernels.trace import KernelTrace, WarpTrace

PAPER_DESIGNS = ("baseline", "bow", "bow-wb", "bow-wr", "bow-wr-half", "rfc")


def _spec(name="test-design"):
    return DesignSpec(
        name=name,
        description="a throwaway design for tests",
        provider=lambda eng, iw: BaselineCollectorPool(
            eng, eng.config.num_operand_collectors),
    )


class TestRegistryContents:
    def test_paper_designs_registered(self):
        assert design_names() == tuple(sorted(PAPER_DESIGNS))

    def test_metadata_bits(self):
        assert get_design("baseline").windowless
        assert get_design("rfc").windowless
        assert get_design("bow-wr").hinted
        assert get_design("bow-wr-half").hinted
        for name in ("bow", "bow-wb"):
            spec = get_design(name)
            assert not spec.hinted and not spec.windowless, name

    def test_specs_sorted_and_described(self):
        specs = design_specs()
        assert [s.name for s in specs] == list(design_names())
        assert all(s.description for s in specs)

    def test_unknown_design_is_keyerror(self):
        with pytest.raises(KeyError):
            get_design("nope")

    def test_known_designs_joins_names(self):
        assert known_designs() == ", ".join(design_names())


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(SimulationError):
            register_design(_spec("baseline"))

    def test_temporary_design_round_trip(self):
        name = "test-temp-design"
        assert name not in design_names()
        with temporary_design(_spec(name)) as spec:
            assert get_design(name) is spec
            assert name in known_designs()
        assert name not in design_names()

    def test_temporary_design_unregisters_on_error(self):
        name = "test-temp-design"
        with pytest.raises(RuntimeError):
            with temporary_design(_spec(name)):
                raise RuntimeError("boom")
        assert name not in design_names()

    def test_unregister_missing_is_noop(self):
        unregister_design("never-registered")

    def test_registered_design_is_simulatable(self):
        trace = KernelTrace(name="t", warps=[
            WarpTrace(warp_id=0,
                      instructions=parse_program("mov.u32 $r1, 0x2"))
        ])
        with temporary_design(_spec("test-run-design")):
            result = simulate_design("test-run-design", trace)
        assert result.register_image[(0, 1)] == 2


class TestErrorParity:
    """Every entry layer reports unknown designs with one message."""

    def test_simulate_design_message(self):
        trace = KernelTrace(name="t", warps=[
            WarpTrace(warp_id=0, instructions=parse_program("nop"))
        ])
        with pytest.raises(SimulationError, match="unknown design 'nope'"):
            simulate_design("nope", trace)

    def test_runner_message(self):
        with pytest.raises(ExperimentError,
                           match="unknown design 'nope'") as excinfo:
            validate_design("nope")
        assert known_designs() in str(excinfo.value)

    def test_runner_metadata_derives_from_registry(self):
        assert design_spec("bow-wr").hinted
        assert effective_window("baseline", 5) == 0
        assert effective_window("rfc", 5) == 0
        assert effective_window("bow", 5) == 5
