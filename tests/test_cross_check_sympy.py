"""Cross-check reduced bases against an independent computer-algebra system.

Purely a test-time oracle: the package itself stays stdlib-only, and this
module is skipped when sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from quivinv import Ideal, MonomialOrder, PolynomialRing, eliminate, fresh_var

R = PolynomialRing([fresh_var(n, 1, 1) for n in ("x", "y", "z")])
SYMS = sympy.symbols("x y z")


def to_sympy(poly):
    expr = sympy.Integer(0)
    for m, c in poly.terms:
        term = sympy.Rational(c.numerator, c.denominator)
        for i, e in enumerate(m):
            term *= SYMS[i] ** e
        expr += term
    return expr


def from_sympy(expr, ring=R, syms=SYMS):
    poly = sympy.Poly(expr, *syms)
    terms = []
    for exps, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms.append((tuple(int(e) for e in exps), Fraction(int(q.p), int(q.q))))
    return ring.polynomial(terms)


small_polys = st.builds(
    lambda terms: R.polynomial(terms),
    st.lists(
        st.tuples(
            st.builds(
                tuple,
                st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
            ),
            st.integers(min_value=-4, max_value=4).filter(bool).map(Fraction),
        ),
        min_size=1,
        max_size=3,
    ),
)


@pytest.mark.parametrize(
    "ours,theirs",
    [(MonomialOrder.lex(), "lex"), (MonomialOrder.degrevlex(), "grevlex")],
    ids=["lex", "degrevlex"],
)
@given(gens=st.lists(small_polys, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_reduced_bases_agree(ours, theirs, gens):
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return
    mine = {str(p) for p in Ideal(R, gens).groebner_basis(ours).polys}
    reference = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order=theirs, field=True)
    other = {str(from_sympy(e)) for e in reference.exprs}
    assert mine == other


@given(gens=st.lists(small_polys, min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_block_order_elimination_agrees_with_lex(gens):
    # the x-free part of a lex basis generates the elimination ideal in
    # k[y, z]; ours comes from the block order with x in front
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return
    mine = eliminate(Ideal(R, gens), [R.variables[0]])
    lex = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order="lex", field=True)
    free = [from_sympy(e, mine.ring, SYMS[1:]) for e in lex.exprs if SYMS[0] not in e.free_symbols]
    theirs = Ideal(mine.ring, free)
    order = MonomialOrder.degrevlex()
    assert mine.groebner_basis(order).polys == theirs.groebner_basis(order).polys


def test_worked_example_basis_agrees_with_reference_system():
    gens = [
        R.parse("x[1,1]*y[1,1] - z[1,1]^2"),
        R.parse("y[1,1]^2 - x[1,1]"),
        R.parse("x[1,1]*z[1,1] - y[1,1]"),
    ]
    mine = {str(p) for p in Ideal(R, gens).groebner_basis(MonomialOrder.lex()).polys}
    reference = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order="lex", field=True)
    assert mine == {str(from_sympy(e)) for e in reference.exprs}
