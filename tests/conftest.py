from fractions import Fraction

import pytest

from quivinv import ComputeBudget, parse_presentation, present_invariant_ring

A1_TEXT = """
[vertices] 0 1
[arrows]
c: 0 -> 1
d: 0 -> 1
e: 1 -> 0
f: 1 -> 0
[dims]
0 = 2
1 = 2
[K] 1
[relations]
g1 = f*c - e*d
g2 = d*e - c*f
"""


def mutate(text, edit_list):
    """Apply (kind, position, character) edits; positions wrap around the text's length."""
    for kind, pos, char in edit_list:
        pos %= len(text) + 1
        if kind == "insert":
            text = text[:pos] + char + text[pos:]
        elif pos < len(text):
            text = text[:pos] + ("" if kind == "delete" else char) + text[pos + 1 :]
    return text


def monic(p):
    """p scaled so that its leading coefficient is 1, dividing exactly."""
    return p * Fraction(1, p.terms[0][1])


@pytest.fixture(scope="session")
def a1():
    """The doubled two-vertex quiver with preprojective relations, v = (2,2), K = {1}."""
    return parse_presentation(A1_TEXT)


@pytest.fixture(scope="session")
def a1_presented_budget():
    """The budget ``a1_presented`` spends; its counters are read after that fixture ran."""
    return ComputeBudget()


@pytest.fixture(scope="session")
def a1_presented(a1, a1_presented_budget):
    """The worked-example invariant presentation on ec, fc, fd (computed once; ~1 s)."""
    return present_invariant_ring(a1, 2, select=["ec", "fc", "fd"], budget=a1_presented_budget)


@pytest.fixture()
def a1_file(tmp_path):
    path = tmp_path / "a1.quiver"
    path.write_text(A1_TEXT, encoding="utf-8")
    return path
