#!/usr/bin/env python3
"""Regenerate docs/API.md from the packages' live ``__all__`` lists.

One table per package: every exported symbol with its kind (class,
func, const) and the first line of its docstring (constants show their
type instead).  ``repro.config`` has no ``__all__``; its section lists
the classes and functions it defines plus its upper-case constants.

    PYTHONPATH=src python tools/gen_api_docs.py [--out docs/API.md]

``tests/test_api_surface.py`` fails when an exported name has no row
or a row names a symbol that no longer exists, so rerun this after
changing a package's exports.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
from pathlib import Path

#: (package, section title) in document order.
SECTIONS = (
    ("repro", "Top-level re-exports: the quickstart API"),
    ("repro.config", "Machine and design-point configuration"),
    ("repro.isa", "SASS-like instruction set"),
    ("repro.kernels", "Kernels: CFGs, traces, suite, builder, library"),
    ("repro.compiler", "Compiler passes"),
    ("repro.gpu", "Baseline SM microarchitecture + engine"),
    ("repro.core", "BOW designs"),
    ("repro.simt", "Lane-level SIMT substrate"),
    ("repro.energy", "Energy, power and area models"),
    ("repro.stats", "Counters, metrics, reports"),
    ("repro.experiments", "Paper artifacts + extension studies"),
)

HEADER = """# API reference

Public symbols by package, generated from the live `__all__` lists by
`tools/gen_api_docs.py` (rerun it after changing an export).  Every
symbol carries a full docstring in the source.
"""


def exported_names(module) -> list:
    """The names one section documents."""
    names = getattr(module, "__all__", None)
    if names is not None:
        return sorted(names)
    defined = []
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(value) or inspect.isfunction(value):
            if value.__module__ == module.__name__:
                defined.append(name)
        elif name.isupper():
            defined.append(name)
    return sorted(defined)


def describe(value) -> tuple:
    """``(kind, summary)`` of one exported value."""
    if inspect.isclass(value):
        kind = "class"
    elif callable(value):
        kind = "func"
    else:
        return "const", f"`{type(value).__name__}` value"
    doc = inspect.getdoc(value) or ""
    return kind, doc.splitlines()[0] if doc else ""


def render() -> str:
    parts = [HEADER]
    for package, title in SECTIONS:
        module = importlib.import_module(package)
        rows = ["| symbol | kind | summary |", "|---|---|---|"]
        for name in exported_names(module):
            kind, summary = describe(getattr(module, name))
            rows.append(f"| `{name}` | {kind} | {summary} |")
        parts.append(f"## `{package}` — {title}\n\n" + "\n".join(rows) + "\n")
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="docs/API.md")
    args = parser.parse_args(argv)
    Path(args.out).write_text(render(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
