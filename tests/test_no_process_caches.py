"""No process-lifetime cache in the package.

``functools.lru_cache`` and ``functools.cache`` keep every argument and result
alive for the life of the process.  Derived data belongs to the object it is
derived from (a presentation owns its ring and path matrices, an invariant
presentation its elimination basis), so the package uses neither.  This test
walks the syntax tree of each module and fails on any use of them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivinv"
CACHES = {"lru_cache", "cache"}


def cache_uses(source: str) -> list[str]:
    """The uses of functools' caches in ``source``, by the name written."""
    tree = ast.parse(source)
    modules = {"functools"}  # names bound to the functools module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.extend(a.name for a in node.names if a.name in CACHES)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_no_functools_cache(path):
    assert cache_uses(path.read_text("utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "from functools import lru_cache",
        "from functools import cache as memo",
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): return x",
        "import functools as ft\nf = ft.cache(len)",
    ],
)
def test_guard_finds_a_cache(source):
    assert cache_uses(source)


def test_guard_allows_instance_caches():
    assert cache_uses("from functools import cached_property, reduce") == []
