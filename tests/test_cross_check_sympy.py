"""Cross-check reduced bases against an independent computer-algebra system.

Purely a test-time oracle: the package itself stays stdlib-only, and this
module is skipped when sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from quivinv import Ideal, PolynomialRing, eliminate, fresh_var

R = PolynomialRing([fresh_var(n, 1, 1) for n in ("x", "y", "z")])
SYMS = sympy.symbols("x y z")
# in two variables, the order that eliminates x first is lex
R2 = PolynomialRing(R.variables[:2])


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


def polys_in(ring):
    return st.builds(
        lambda terms: ring.polynomial(terms),
        st.lists(
            st.tuples(
                st.builds(
                    tuple,
                    st.lists(
                        st.integers(min_value=0, max_value=2),
                        min_size=ring.nvars,
                        max_size=ring.nvars,
                    ),
                ),
                st.integers(min_value=-4, max_value=4).filter(bool).map(Fraction),
            ),
            min_size=1,
            max_size=3,
        ),
    )


small_polys = polys_in(R)


@pytest.mark.parametrize(
    "ring,ours,theirs",
    [(R2, frozenset({0}), "lex"), (R, frozenset(), "grevlex")],
    ids=["lex", "degrevlex"],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reduced_bases_agree(ring, ours, theirs, data):
    gens = [g for g in data.draw(st.lists(polys_in(ring), min_size=1, max_size=3)) if not g.is_zero]
    if not gens:
        return
    syms = SYMS[: ring.nvars]
    mine = {str(p) for p in Ideal(ring, gens).groebner_basis(ours).polys}
    reference = sympy.groebner([to_sympy(g) for g in gens], *syms, order=theirs, field=True)
    other = {str(from_sympy(e, ring, syms)) for e in reference.exprs}
    assert mine == other


@given(gens=st.lists(small_polys, min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_block_order_elimination_agrees_with_lex(gens):
    # the x-free part of a lex basis generates the elimination ideal in
    # k[y, z]; ours comes from the block order with x in front
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return
    mine = eliminate(Ideal(R, gens).groebner_basis(frozenset({0})))
    lex = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order="lex", field=True)
    free = [from_sympy(e, mine.ring, SYMS[1:]) for e in lex.exprs if SYMS[0] not in e.free_symbols]
    theirs = Ideal(mine.ring, free)
    assert mine.polys == theirs.groebner_basis().polys


def test_worked_example_basis_agrees_with_reference_system():
    gens = [
        R.parse("x[1,1]*y[1,1] - z[1,1]^2"),
        R.parse("y[1,1]^2 - x[1,1]"),
        R.parse("x[1,1]*z[1,1] - y[1,1]"),
    ]
    # the lex basis is in shape position, x - f(z), y - g(z), h(z) with
    # deg f, deg g < deg h: the reduced basis of every order that
    # eliminates x and y first
    mine = {str(p) for p in Ideal(R, gens).groebner_basis(frozenset({0, 1})).polys}
    reference = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order="lex", field=True)
    assert mine == {str(from_sympy(e)) for e in reference.exprs}
