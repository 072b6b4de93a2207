"""API-surface tests: every public export exists and minimally works.

A release check: `repro`'s documented entry points must be importable
from the places the README shows, and the package's `__all__` lists
must be accurate (every name resolvable).
"""

import importlib
import re
from pathlib import Path

import pytest

import repro


PACKAGES = [
    "repro",
    "repro.isa",
    "repro.kernels",
    "repro.compiler",
    "repro.gpu",
    "repro.core",
    "repro.simt",
    "repro.energy",
    "repro.stats",
    "repro.experiments",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_version(self):
        assert repro.__version__

    def test_readme_quickstart_symbols(self):
        # The exact imports the README shows.
        from repro import build_benchmark_trace, simulate_design  # noqa: F401

    def test_designs_cover_paper(self):
        from repro.core import design_names

        assert {"baseline", "bow", "bow-wb", "bow-wr",
                "bow-wr-half", "rfc"} <= set(design_names())


def _api_doc_rows():
    """``{package: {symbol, ...}}`` from the tables of docs/API.md."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "API.md").read_text(
        encoding="utf-8")
    rows = {}
    section = None
    for line in text.splitlines():
        heading = re.match(r"## `([\w.]+)`", line)
        if heading:
            section = rows.setdefault(heading.group(1), set())
            continue
        row = re.match(r"\| `(\w+)` \|", line)
        if row and section is not None:
            section.add(row.group(1))
    return rows


class TestApiDoc:
    """docs/API.md (regenerate with tools/gen_api_docs.py) stays honest."""

    def test_every_export_has_a_row(self):
        rows = _api_doc_rows()
        missing = [
            f"{package}.{name}"
            for package in PACKAGES
            for name in importlib.import_module(package).__all__
            if name not in rows.get(package, set())
        ]
        assert not missing, f"docs/API.md lacks rows for {missing}"

    def test_no_row_names_a_gone_symbol(self):
        gone = [
            f"{package}.{name}"
            for package, names in _api_doc_rows().items()
            for name in names
            if not hasattr(importlib.import_module(package), name)
        ]
        assert not gone, f"docs/API.md documents removed symbols {gone}"


class TestMinimalFlows:
    def test_parse_compile_simulate(self):
        """The three-line story: parse, classify, simulate."""
        from repro import parse_program, simulate_design
        from repro.compiler import classify_linear_writes
        from repro.kernels import KernelTrace, WarpTrace

        program = parse_program("""
            mov.u32 $r1, 0x2
            add.u32 $r2, $r1, $r1
            st.global.u32 [$r1], $r2
        """)
        decisions = classify_linear_writes(program, 3)
        assert len(decisions) == 2
        trace = KernelTrace(name="mini", warps=[WarpTrace(0, program)])
        result = simulate_design("bow", trace)
        assert list(result.memory_image.values()) == [4]

    def test_builder_flow(self):
        from repro.kernels.builder import KernelBuilder

        b = KernelBuilder("mini")
        b.mov(1, imm=2)
        b.add(2, 1, 1)
        b.st(addr=1, value=2)
        b.exit()
        trace = b.trace()
        assert trace.total_instructions == 4

    def test_benchmark_flow(self):
        from repro import benchmark_names, build_benchmark_trace

        assert len(benchmark_names()) == 15
        trace = build_benchmark_trace(benchmark_names()[0], num_warps=1,
                                      scale=0.05)
        assert trace.total_instructions > 0

    def test_experiment_flow(self):
        from repro.experiments import EXPERIMENTS, run_experiment

        assert len(EXPERIMENTS) >= 18
        assert "Table I" in run_experiment("table1")

    def test_energy_flow(self):
        from repro import Counters, EnergyModel

        counters = Counters()
        counters.rf_reads = 10
        assert EnergyModel().breakdown(counters).rf_energy_pj > 0

    def test_simt_flow(self):
        from repro.kernels.builder import KernelBuilder
        from repro.simt import expand_masked_trace

        b = KernelBuilder("d")
        b.mov(1, imm=1)
        b.branch(taken="a", fallthrough="b", probability=0.5)
        b.block("a").add(2, 1, 1).jump("j")
        b.block("b").sub(2, 1, 1).jump("j")
        b.block("j").exit()
        trace = expand_masked_trace(b.build(), seed=1)
        assert trace
