"""The package imports nothing outside the standard library at runtime.

``pyproject.toml`` declares no dependencies, but the test environment has
sympy and hypothesis installed, so a stray runtime import of either would pass
every other test.  This test walks the syntax tree of each module, imports
inside functions included, and fails on any absolute import whose top-level
name is not in ``sys.stdlib_module_names``.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivinv"


def outside_stdlib(source: str) -> list[str]:
    """The absolute imports in ``source`` that name no standard-library module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend(n for n in names if n.split(".")[0] not in sys.stdlib_module_names)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert outside_stdlib(path.read_text("utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "import sympy",
        "from sympy import Poly",
        "import json, sympy.polys",
        "def f():\n    import hypothesis.strategies as st",
    ],
)
def test_guard_finds_a_third_party_import(source):
    assert outside_stdlib(source)


def test_guard_allows_relative_and_stdlib_imports():
    source = (
        "from __future__ import annotations\n"
        "import importlib.resources\n"
        "from fractions import Fraction\n"
        "from . import polyring\n"
        "from .groebner import Ideal\n"
    )
    assert outside_stdlib(source) == []
