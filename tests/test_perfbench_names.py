"""The names the benchmark harness reaches into must exist in the package.

``perfbench/spans.py`` wraps functions and methods by name, reads counts off
their arguments and results by attribute, and ``perfbench/run.py`` imports a
few for its kernel oracle. A rename would break every traced job, the oracle,
or silently zero a per-layer metric, without failing any other test. These
tests only read the two harness files.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from quivinv import (
    ComputeBudget,
    PolynomialRing,
    lusztig_generators,
    parse_presentation,
    rep_ideal,
    run_verification,
)
from quivinv.quiver import Presentation

from conftest import A1_TEXT

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


def _run_imports() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "run.py").read_text("utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("quivinv")
        for alias in node.names
    ]


@pytest.mark.parametrize("layer", SPANS.LAYERS)
def test_traced_layer_is_a_module(layer):
    importlib.import_module(f"quivinv.{layer}")


@pytest.mark.parametrize("module,name", SPANS.FUNCTIONS)
def test_wrapped_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"quivinv.{module}"), name, None))


@pytest.mark.parametrize("module,cls,meth", SPANS.METHODS)
def test_wrapped_method_is_defined_on_its_class(module, cls, meth):
    assert meth in vars(getattr(importlib.import_module(f"quivinv.{module}"), cls))


def test_kernel_oracle_imports_exist():
    names = _run_imports()
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # the oracle looks relations up by name
    assert callable(vars(Presentation).get("relation"))


def test_attributes_the_harness_reads_exist():
    """What ``spans._terms``, ``_basis_built``, ``_basis_count`` and the count
    hooks read by duck typing, read off real objects at dims (1,1)."""
    pres = parse_presentation(A1_TEXT.replace("0 = 2\n1 = 2\n", "0 = 1\n1 = 1\n"))
    gens = lusztig_generators(pres, 2)
    poly = gens.entries[0].polynomial
    assert poly.terms and isinstance(poly.ring, PolynomialRing)
    ideal = rep_ideal(pres)
    assert ideal.generators and ideal.ring.ambient_order == frozenset()
    budget = ComputeBudget()
    gb = ideal.groebner_basis(budget=budget)
    assert len(gb) > 0 and gb.ring.nvars == ideal.ring.nvars
    assert budget.pairs_used > 0 and budget.steps_used >= 0
    report = run_verification(pres, seed=0)
    assert sum(c.trials for c in report.checks) > 0
    # invariants.terms_out counts terms through these attributes
    assert SPANS._terms(gens) == sum(len(e.polynomial.terms) for e in gens.entries) > 0
    assert SPANS._terms(ideal) == sum(len(g.terms) for g in ideal.generators)
