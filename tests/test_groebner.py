import heapq
import inspect
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from quivinv import groebner
from quivinv import (
    BudgetExceededError,
    ComputeBudget,
    Ideal,
    PolynomialRing,
    RingError,
    eliminate,
    fresh_var,
    ideal_equal,
)
from quivinv.groebner import _Overflow, _Packing, _Reducers, _reducer_of
from test_polyring import NVARS, fronts, has_exact_coefficients, monomials, orders, reference_key

# x first is lex on ideals in x and y alone; with x and y first, a basis in
# shape position (x - f(z), y - g(z), h(z), deg f, deg g < deg h) is the lex one
X_FIRST = frozenset({0})
XY_FIRST = frozenset({0, 1})
R = PolynomialRing([fresh_var(n, 1, 1) for n in ("x", "y", "z")])
X, Y, Z = (R.var(i) for i in range(3))


def lead(f, order):
    key = reference_key(order, f.ring.nvars)
    return max(f.terms, key=lambda mc: key(mc[0]))


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def spoly(f, g, order):
    (mf, cf) = lead(f, order)
    (mg, cg) = lead(g, order)
    big = tuple(max(x, y) for x, y in zip(mf, mg))

    def shifted(h, lm, lc):
        q = tuple(x - y for x, y in zip(big, lm))
        return h.ring.polynomial(
            [(tuple(x + y for x, y in zip(m, q)), Fraction(c, lc)) for m, c in h.terms]
        )

    return shifted(f, mf, cf) - shifted(g, mg, cg)


def assert_reduced_basis(gb):
    for p in gb.polys:
        assert lead(p, gb.order)[1] == 1  # monic
    leads = [lead(p, gb.order)[0] for p in gb.polys]
    for i, p in enumerate(gb.polys):
        for j, lm in enumerate(leads):
            if i == j:
                continue
            assert not any(divides(lm, m) for m, _ in p.terms)
    # every S-polynomial and every original generator reduces to zero
    for i in range(len(gb.polys)):
        for j in range(i + 1, len(gb.polys)):
            assert gb.reduces_to_zero(spoly(gb.polys[i], gb.polys[j], gb.order))


def test_groebner_module_is_not_shadowed():
    import quivinv.groebner as G

    assert inspect.ismodule(G)


class TestSpecExamples:
    def test_substitution_ideal(self):
        gb = Ideal(R, [X - Y, Y]).groebner_basis(X_FIRST)
        assert set(map(str, gb.polys)) == {"x[1,1]", "y[1,1]"}

    def test_xy_minus_one(self):
        gb = Ideal(R, [X * Y - 1, Y * Y - 1]).groebner_basis(X_FIRST)
        assert set(map(str, gb.polys)) == {"x[1,1] - y[1,1]", "y[1,1]^2 - 1"}
        assert_reduced_basis(gb)

    def test_principal_ideal_made_monic(self):
        gb = Ideal(R, [3 * X * X - 6 * Y]).groebner_basis()
        assert list(map(str, gb.polys)) == ["x[1,1]^2 - 2*y[1,1]"]

    def test_fractional_generator(self):
        gb = Ideal(R, [Fraction(1, 2) * X + Y]).groebner_basis()
        assert list(map(str, gb.polys)) == ["x[1,1] + 2*y[1,1]"]

    def test_empty_ideal(self):
        gb = Ideal(R, []).groebner_basis()
        assert gb.polys == ()
        assert gb.normal_form(X) == X
        assert gb.reduces_to_zero(R.zero)
        assert not gb.reduces_to_zero(X)


class TestNormalForm:
    def test_power_reduces_to_zero(self):
        gb = Ideal(R, [X]).groebner_basis()
        assert gb.normal_form(X * X).is_zero

    def test_remainder_keeps_other_variables(self):
        gb = Ideal(R, [X]).groebner_basis()
        assert gb.normal_form(X + Y) == Y

    def test_exact_fractions_in_input(self):
        gb = Ideal(R, [X]).groebner_basis()
        f = Fraction(1, 3) * X + Fraction(2, 7) * Y
        assert gb.normal_form(f) == Fraction(2, 7) * Y

    def test_idempotent(self):
        gb = Ideal(R, [X * Y - 1, Y * Y - 1]).groebner_basis(X_FIRST)
        for f in (X * X * Y + Z, (X + Y + Z) ** 2, X * Y * Z - Z):
            once = gb.normal_form(f)
            assert gb.normal_form(once) == once

    def test_linearity_of_remainder(self):
        gb = Ideal(R, [X * X - Y, Y * Y - Z]).groebner_basis()
        f, g = (X + Y) ** 2, X * Y + Z
        assert gb.normal_form(f + g) == gb.normal_form(f) + gb.normal_form(g)


class TestOtherRings:
    OTHER = PolynomialRing([fresh_var("x", 1, 1)])

    def test_normal_form_rejects_a_polynomial_from_another_ring(self):
        gb = Ideal(R, [X]).groebner_basis()
        with pytest.raises(RingError, match="^ring mismatch$"):
            gb.normal_form(self.OTHER.var(0))

    def test_ideal_rejects_a_generator_from_another_ring(self):
        with pytest.raises(RingError, match="^generator from a different ring$"):
            Ideal(R, [X, self.OTHER.var(0)])


class TestEliminate:
    def test_parabola(self):
        # t parametrizes (x, y) = (t, t^2)
        ideal = Ideal(R, [X - Y, X * X - Z])  # drop x: y plays the parameter
        got = eliminate(ideal.groebner_basis(X_FIRST))
        assert [str(p) for p in got.polys] == ["y[1,1]^2 - z[1,1]"]
        assert [str(v) for v in got.ring.variables] == ["y[1,1]", "z[1,1]"]

    def test_soundness_generators_stay_inside(self):
        ideal = Ideal(R, [X * X - Y, X * Y - Z])
        got = eliminate(ideal.groebner_basis(X_FIRST))
        assert R.variables[0] not in got.ring.variables
        lifted = [
            R.polynomial([((0,) + m, c) for m, c in g.terms])
            for g in got.polys
        ]
        gb = ideal.groebner_basis()
        for f in lifted:
            assert gb.reduces_to_zero(f)

    def test_drop_nothing_returns_same_ideal(self):
        ideal = Ideal(R, [X * Y - 1, Y * Y - 1])
        got = eliminate(ideal.groebner_basis())
        assert got.ring == R
        assert got.polys == ideal.groebner_basis().polys

    # a member must be a variable index: a Variable object is rejected too
    @pytest.mark.parametrize("front", [{3}, {0, 3}, {-1}, {R.variables[0]}])
    def test_front_outside_the_ring_rejected(self, front):
        with pytest.raises(RingError, match="outside the ring"):
            Ideal(R, [X]).groebner_basis(frozenset(front))


class TestIdealEqual:
    def test_same_ideal_different_generators(self):
        assert ideal_equal(Ideal(R, [X, Y]), Ideal(R, [Y, X + Y]))

    def test_strict_containment(self):
        assert not ideal_equal(Ideal(R, [X]), Ideal(R, [X * X]))

    def test_different_rings_rejected(self):
        other = PolynomialRing([fresh_var("x", 1, 1)])
        with pytest.raises(RingError):
            ideal_equal(Ideal(R, [X]), Ideal(other, [other.var(0)]))


class TestBudget:
    def test_step_budget_raises(self):
        tiny = ComputeBudget(max_steps=0)
        with pytest.raises(BudgetExceededError):
            Ideal(R, [X * Y - 1, Y * Y - 1]).groebner_basis(X_FIRST, tiny)

    def test_pair_budget_raises(self):
        tiny = ComputeBudget(max_pairs=0)
        with pytest.raises(BudgetExceededError):
            Ideal(R, [X * Y - 1, Y * Y - 1]).groebner_basis(X_FIRST, tiny)

    def test_budget_counts_are_recorded(self):
        budget = ComputeBudget()
        Ideal(R, [X * Y - 1, Y * Y - 1]).groebner_basis(X_FIRST, budget)
        assert budget.steps_used > 0 and budget.pairs_used > 0


class TestDeterminism:
    def test_repeated_runs_print_identically(self):
        gens = [X * Y - Z * Z, Y * Y - X, X * Z - Y]
        first = Ideal(R, gens).groebner_basis()
        second = Ideal(R, list(reversed(gens))).groebner_basis()
        assert [str(p) for p in first.polys] == [str(p) for p in second.polys]


class TestKnownSystem:
    def test_elementary_symmetric_system_with_roots_one_two_three(self):
        # x+y+z = 6, xy+yz+zx = 11, xyz = 6 has solutions permuting (1,2,3);
        # the basis with x and y eliminated first must contain the cubic with those roots, and every
        # basis element must vanish at a solution
        gens = [X + Y + Z - 6, X * Y + Y * Z + Z * X - 11, X * Y * Z - 6]
        gb = Ideal(R, gens).groebner_basis(XY_FIRST)
        cubic = Z ** 3 - 6 * Z * Z + 11 * Z - 6
        assert cubic in set(gb.polys)
        for p in gb.polys:
            value = sum(
                c * 1 ** m[0] * 2 ** m[1] * 3 ** m[2] for m, c in p.terms
            )
            assert value == 0
        assert_reduced_basis(gb)


small_polys = st.builds(
    lambda terms: R.polynomial(terms),
    st.lists(
        st.tuples(
            st.builds(
                tuple,
                st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
            ),
            st.integers(min_value=-3, max_value=3).filter(bool).map(Fraction),
        ),
        min_size=1,
        max_size=3,
    ),
)


class TestRandomIdeals:
    @given(st.lists(small_polys, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_reduced_basis_properties(self, gens):
        ideal = Ideal(R, gens)
        gb = ideal.groebner_basis(budget=ComputeBudget(max_steps=200_000))
        for g in gens:
            assert gb.reduces_to_zero(g)
        assert_reduced_basis(gb)

    @given(st.lists(small_polys, min_size=1, max_size=2), st.sampled_from([0, 1, 2]))
    @settings(max_examples=15, deadline=None)
    def test_eliminate_soundness(self, gens, drop_index):
        ideal = Ideal(R, gens)
        dropped_var = R.variables[drop_index]
        got = eliminate(
            ideal.groebner_basis(frozenset({drop_index}), ComputeBudget(max_steps=200_000))
        )
        assert dropped_var not in got.ring.variables
        keep = [i for i in range(R.nvars) if i != drop_index]
        gb = ideal.groebner_basis()
        for g in got.polys:
            exps = [0] * R.nvars
            lifted_terms = []
            for m, c in g.terms:
                lifted = [0] * R.nvars
                for pos, e in enumerate(m):
                    lifted[keep[pos]] = e
                lifted_terms.append((tuple(lifted), c))
            assert gb.reduces_to_zero(R.polynomial(lifted_terms))


def to_subring(f, ring, back):
    """f with the variables outside ``back`` set to 1, as a polynomial of ``ring``."""
    return ring.polynomial([(tuple(m[i] for i in back), c) for m, c in f.terms])


class TestEliminateOracle:
    """The front-free elements of a reduced block-order basis, against the
    reduced degrevlex basis rebuilt from them on the subring."""

    @given(fronts(3), st.lists(small_polys, min_size=1, max_size=3), st.lists(small_polys, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_eliminate_is_the_reduced_basis_of_its_ideal(self, front, gens, probes):
        gb = Ideal(R, gens).groebner_basis(front, ComputeBudget(max_steps=200_000))
        sub = eliminate(gb)
        rebuilt = Ideal(sub.ring, sub.polys).groebner_basis(budget=ComputeBudget(max_steps=200_000))
        assert sub.polys == rebuilt.polys and sub.order == rebuilt.order == frozenset()
        back = [i for i in range(R.nvars) if i not in front]
        for f in probes:
            f = to_subring(f, sub.ring, back)
            assert sub.normal_form(f) == rebuilt.normal_form(f)


class TestExactCoefficients:
    @given(fronts(3), st.lists(small_polys, min_size=1, max_size=3), small_polys)
    @settings(max_examples=25, deadline=None)
    def test_no_coefficient_is_a_float(self, front, gens, f):
        gb = Ideal(R, gens).groebner_basis(front, ComputeBudget(max_steps=200_000))
        assert all(has_exact_coefficients(h) for h in [gb.normal_form(f), *eliminate(gb).polys])


def homogeneous_polys(ring, max_degree=3):
    """Nonzero homogeneous polynomials of degree 1 to ``max_degree`` in ``ring``."""
    variables = st.lists(st.integers(0, ring.nvars - 1), min_size=1, max_size=max_degree)
    terms = st.lists(st.tuples(variables, st.integers(-3, 3).filter(bool)), min_size=1, max_size=3)

    def poly(degree, terms):
        # each term's variables, repeated or cut to the degree
        return ring.polynomial(
            (tuple((v * degree)[:degree].count(i) for i in range(ring.nvars)), Fraction(c))
            for v, c in terms
        )

    return st.builds(poly, st.integers(1, max_degree), terms).filter(lambda p: not p.is_zero)


def mixed_polys(ring, max_degree):
    """Polynomials with terms of any degree up to ``max_degree``."""
    term = st.tuples(
        st.lists(st.integers(0, ring.nvars - 1), max_size=max_degree),
        st.integers(-3, 3).filter(bool),
    )
    return st.lists(term, max_size=4).map(
        lambda terms: ring.polynomial(
            (tuple(v.count(i) for i in range(ring.nvars)), Fraction(c)) for v, c in terms
        )
    )


RING_OF = {n: PolynomialRing([fresh_var(f"v{i}", 1, 1) for i in range(n)]) for n in (3, 4)}


class TestDegreeBound:
    """A basis of homogeneous generators built through degree D."""

    @given(st.sampled_from([3, 4]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_truncated_basis_is_the_full_basis_through_the_bound(self, nvars, data):
        ring = RING_OF[nvars]
        order = data.draw(fronts(nvars))
        ideal = Ideal(ring, data.draw(st.lists(homogeneous_polys(ring), min_size=2, max_size=3)))
        full = ideal.groebner_basis(order, ComputeBudget(max_steps=200_000))
        top = max(p.total_degree for p in full.polys)
        forms = data.draw(st.lists(mixed_polys(ring, top + 1), min_size=1, max_size=3))
        for bound in range(top + 2):
            gb = ideal.groebner_basis(order, ComputeBudget(max_steps=200_000), max_degree=bound)
            assert gb.max_degree == bound
            assert gb.polys == tuple(p for p in full.polys if p.total_degree <= bound)
            for f in forms:
                low = ring.polynomial((m, c) for m, c in f.terms if sum(m) <= bound)
                assert gb.normal_form(low) == full.normal_form(low)
            with pytest.raises(ValueError) as raised:
                gb.normal_form(ring.var(0) ** (bound + 1))
            assert not isinstance(raised.value, RingError)

    @given(st.sampled_from([3, 4]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_bound_is_ignored_on_inhomogeneous_generators(self, nvars, data):
        ring = RING_OF[nvars]
        first, *rest = data.draw(st.lists(homogeneous_polys(ring), min_size=1, max_size=3))
        ideal = Ideal(ring, [first + ring.one, *rest])  # first has degree 1 or more
        full = ideal.groebner_basis(budget=ComputeBudget(max_steps=200_000))
        bound = data.draw(st.integers(0, 3))
        gb = ideal.groebner_basis(budget=ComputeBudget(max_steps=200_000), max_degree=bound)
        assert gb.max_degree is None and gb.polys == full.polys
        f = ring.var(0) ** (bound + 1)
        assert gb.normal_form(f) == full.normal_form(f)

    def test_bound_leaves_out_generators_above_it(self):
        gb = Ideal(R, [X * Y, Z**3]).groebner_basis(max_degree=2)
        assert gb.polys == (X * Y,) and len(gb) == 1
        assert gb.normal_form(Z**2 + 2 * X * Y) == Z**2

    def test_bound_is_keyword_only(self):
        # a positional bound would be dropped by wrappers that pass the
        # budget on by keyword, so the signature refuses one
        with pytest.raises(TypeError):
            Ideal(R, [X * Y, Z**3]).groebner_basis(frozenset(), None, 2)

    def test_eliminate_keeps_the_bound(self):
        gb = Ideal(R, [X * Y - Z**2, X * X - Y * Z]).groebner_basis(X_FIRST, max_degree=3)
        sub = eliminate(gb)
        assert (sub.order, sub.max_degree) == (frozenset(), 3)
        with pytest.raises(ValueError, match="above the basis bound"):
            sub.normal_form(sub.ring.var(0) ** 4)


class TestLazyPolynomials:
    @pytest.fixture()
    def built(self, monkeypatch):
        """The engine term lists converted to polynomials, in order."""
        built, make = [], groebner.GroebnerBasis._polynomial
        monkeypatch.setattr(
            groebner.GroebnerBasis, "_polynomial",
            lambda self, t, denom: built.append(t) or make(self, t, denom),
        )
        return built

    def test_polys_are_built_once_when_read(self, built):
        gb = Ideal(R, [X * Y - 1, Y * Y - 1]).groebner_basis(X_FIRST)
        basis_terms = [r.terms for r in gb._reducers.reducers]
        # normal_form converts its remainder and no basis element
        assert len(gb) == 2 and gb.normal_form(X * X) == R.one and len(built) == 1
        assert all(t is not b for t in built for b in basis_terms)
        assert list(gb) == list(gb.polys) and gb.polys is gb.polys
        assert built[1:] == basis_terms

    def test_eliminate_converts_only_the_front_free_elements(self, built):
        gb = Ideal(R, [X - Y**2, X - Z**2]).groebner_basis(X_FIRST)
        sub = eliminate(gb)
        assert len(sub) == 1 < len(gb) and built == []
        assert [str(p) for p in sub.polys] == ["y[1,1]^2 - z[1,1]^2"]
        assert len(built) == 1


class TestPackedMonomials:
    """The engine's packed (K, E) monomials against exponent-tuple arithmetic."""

    # test_polyring's monomials have degree at most 20, products at most 40
    widths = st.sampled_from([6, 9, 16])

    @given(st.just(frozenset()) | orders, widths, monomials)
    def test_key_is_read_off_the_exponents(self, order, bits, m):
        packing = _Packing(order, NVARS, bits)
        assert packing.key(packing.pack(m)[1]) == packing.pack(m)[0]

    @given(orders, st.sampled_from([1, 2, 6]), st.integers(0, NVARS - 1), st.data())
    def test_pack_overflows_at_the_limit(self, order, bits, i, data):
        packing = _Packing(order, NVARS, bits)
        below = [0] * NVARS
        for _ in range(packing.limit - 1):  # degree limit - 1, spread over the variables
            below[data.draw(st.integers(0, NVARS - 1))] += 1
        top, key = tuple(below), reference_key(order, NVARS)
        assert packing.unpack(packing.pack(top)[1]) == top
        for unit in ((0,) * k + (1,) + (0,) * (NVARS - k - 1) for k in range(NVARS)):
            assert (packing.pack(top)[0] > packing.pack(unit)[0]) == (key(top) > key(unit))
        below[i] += 1
        with pytest.raises(_Overflow):
            packing.pack(tuple(below))

    @given(orders, widths, monomials, monomials)
    def test_key_orders_as_the_reference_key(self, order, bits, a, b):
        packing = _Packing(order, NVARS, bits)
        key = reference_key(order, NVARS)
        ka, kb = packing.pack(a)[0], packing.pack(b)[0]
        assert (ka < kb, ka == kb) == (key(a) < key(b), key(a) == key(b))

    @given(orders, widths, monomials, monomials)
    def test_arithmetic_matches_tuples(self, order, bits, a, b):
        packing = _Packing(order, NVARS, bits)
        (ka, ea), (kb, eb) = packing.pack(a), packing.pack(b)
        g = packing.guard
        product = tuple(x + y for x, y in zip(a, b))
        lcm = tuple(max(x, y) for x, y in zip(a, b))
        assert packing.pack(product) == (ka + kb, ea + eb)
        assert packing.unpack(ea) == a and ea >> packing.shift == sum(a)
        assert (((eb | g) - ea) & g == g) == divides(a, b)
        assert packing.lcm(ea, eb) == packing.pack(lcm)[1]
        assert packing.key(packing.lcm(ea, eb)) == packing.pack(lcm)[0]
        coprime = not any(x and y for x, y in zip(a, b))
        assert (packing.lcm(ea, eb) >> packing.shift == sum(a) + sum(b)) == coprime


class TestWideExponents:
    @pytest.mark.parametrize("order", [XY_FIRST, frozenset(), X_FIRST])
    def test_degree_beyond_sixteen_bits(self, order):
        gb = Ideal(R, [X**40000 - Y, X * Z - Z]).groebner_basis(order)
        assert {str(p) for p in gb.polys} == {
            "y[1,1]*z[1,1] - z[1,1]",
            "x[1,1]*z[1,1] - z[1,1]",
            "x[1,1]^40000 - y[1,1]",
        }

    def test_basis_outgrowing_the_first_width_is_rebuilt_with_the_same_work(self, monkeypatch):
        # the basis reaches degree 64, beyond the first width the inputs of
        # degree 8 get; starting wide must give the same basis and work
        ideal = Ideal(R, [X - Y**8, Y - Z**8])
        restarted = ComputeBudget()
        gb = ideal.groebner_basis(XY_FIRST, restarted)
        assert set(gb.polys) == {X - Z**64, Y - Z**8}
        assert gb._reducers.packing.limit > 64

        def wide_packing(order, nvars, bits):
            return _Packing(order, nvars, 3 * bits)

        monkeypatch.setattr(groebner, "_Packing", wide_packing)
        wide = ComputeBudget()
        assert Ideal(R, ideal.generators).groebner_basis(XY_FIRST, wide).polys == gb.polys
        assert (wide.pairs_used, wide.steps_used) == (restarted.pairs_used, restarted.steps_used)

    def test_normal_form_repacks_the_basis_wider(self):
        gb = Ideal(R, [X - Y**3]).groebner_basis(X_FIRST)
        limit = gb._reducers.packing.limit
        assert gb.normal_form(X**6) == Y**18  # reduction outgrows the width
        assert gb.normal_form(Z**1000 * X) == Z**1000 * Y**3  # so does the input
        assert gb._reducers.packing.limit > 1000 > limit


def first_divisor(reducers, m, guard, skip=0):
    """The linear scan the divisor index replaces, kept as its reference:
    the first reducer not in the bitset ``skip`` whose lead divides m."""
    guarded = m | guard
    for i, r in enumerate(reducers):
        if not skip >> i & 1 and (guarded - r.lm) & guard == guard:
            return r
    return None


class ScanReducers(_Reducers):
    """The engine's reducers, looked up by the reference scan."""

    def find(self, m, skip=0):
        return first_divisor(self.reducers, m, self.packing.guard, skip)


def engine_run(order, gens):
    """A basis, two normal forms and the work the engine spent on them."""
    budget = ComputeBudget(max_steps=200_000)
    gb = Ideal(R, gens).groebner_basis(order, budget)
    forms = [gb.normal_form(f) for f in ((X + Y + Z) ** 3, X * Y * Z - 1)]
    return gb.polys, forms, budget.pairs_used, budget.steps_used


def eager_buchberger(inputs, packing, budget, max_degree=None):
    """The engine's pair loop with the Gebauer-Moeller update it replaced,
    kept as its reference: every addition re-checks every live pair against
    the new lead (criterion B_k) and deletes it from a dict of live pairs.
    Inputs and pairs above ``max_degree`` are left out, as in the engine."""
    g, shift = packing.guard, packing.shift
    reducers = _Reducers(packing)
    basis = reducers.reducers
    pairs = {}  # (i,j) -> E of the lcm
    heap = []  # (sugar, lcm K, i, j); may hold pruned entries

    def add_element(terms, sugar=None):
        h = _reducer_of(terms, shift, sugar)
        t = len(basis)
        cand = [packing.lcm(r.lm, h.lm) for r in basis]
        groups = {}
        coprime_lcms = set()
        for i, L in enumerate(cand):
            if L >> shift == basis[i].deg + h.deg:
                coprime_lcms.add(L)
            elif L not in groups:
                groups[L] = i
        minimal = []
        kept_lcms = []
        for L in sorted(set(groups) | coprime_lcms):
            guarded = L | g
            if any((guarded - Lk) & g == g for Lk in kept_lcms):
                continue
            kept_lcms.append(L)
            if L in coprime_lcms:
                continue
            minimal.append((L, groups[L]))
        for (i, j), lij in list(pairs.items()):
            if ((lij | g) - h.lm) & g == g and cand[i] != lij and cand[j] != lij:
                del pairs[(i, j)]
        for L, i in minimal:
            ldeg = L >> shift
            sug = max(basis[i].sugar + ldeg - basis[i].deg, h.sugar + ldeg - h.deg)
            if max_degree is not None and sug > max_degree:
                continue
            if sug >= packing.limit:
                raise groebner._Overflow
            pairs[(i, t)] = L
            heapq.heappush(heap, (sug, packing.key(L), i, t))
        reducers.append(h)

    for f in sorted(inputs, key=groebner._poly_sort_key, reverse=True):
        if f and (max_degree is None or f[0][1] >> shift <= max_degree):
            add_element(f)

    while heap:
        sug, lk, i, j = heapq.heappop(heap)
        lm = pairs.pop((i, j), None)
        if lm is None:
            continue
        budget.spend_pair()
        s = groebner._spoly(basis[i], basis[j], lk, lm)
        if not s:
            continue
        h, _, hsug = groebner._normal_form(s, reducers, budget, sug)
        if h:
            add_element(groebner._primitive(h), hsug)

    return groebner._interreduce([r.terms for r in basis], packing, budget)


class TestReducerIndex:
    """``_Reducers.find`` returns the reducer the linear scan returns."""

    # 0, 1 and 9 variables leave a partial index chunk; 0 leaves none at all
    @given(st.sampled_from([0, 1, 5, 9]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_find_is_the_first_divisor(self, nvars, data):
        packing = _Packing(data.draw(fronts(nvars)), nvars, 6)
        exponents = st.builds(tuple, st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))
        index = _Reducers(packing)
        for _ in range(data.draw(st.integers(1, 8))):
            for lead in data.draw(st.lists(exponents, max_size=5)):
                index.append(_reducer_of([(*packing.pack(lead), 1)], packing.shift))
            m = packing.pack(data.draw(exponents))[1]
            skip = data.draw(st.integers(0, (1 << len(index.reducers)) - 1))
            for s in (0, skip):
                assert index.find(m, s) is first_divisor(index.reducers, m, packing.guard, s)

    @given(fronts(3), st.lists(small_polys, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_engine_does_the_work_of_the_scan(self, order, gens):
        got = engine_run(order, gens)
        with patch.object(groebner, "_Reducers", ScanReducers):
            assert engine_run(order, gens) == got

    @given(fronts(3), st.lists(small_polys, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_engine_does_the_work_of_the_eager_update(self, order, gens):
        # B_k checked when a pair is selected drops the same pairs as B_k
        # checked against every live pair at every addition
        got = engine_run(order, gens)
        with patch.object(groebner, "_buchberger", eager_buchberger):
            assert engine_run(order, gens) == got

    def test_index_after_normal_form_repacks_wider(self):
        def assert_finds_as_the_scan(index):
            for m in product(range(4), repeat=R.nvars):
                e = index.packing.pack(m)[1]
                assert index.find(e) is first_divisor(index.reducers, e, index.packing.guard)

        gens = [X - Y**3, Y * Z - Z]
        f = Z**1000 * X + X**2 * Z
        gb = Ideal(R, gens).groebner_basis(XY_FIRST)
        assert_finds_as_the_scan(gb._reducers)  # the index interreduction handed over
        got = gb.normal_form(f)
        assert got == Z**1000 + Z
        with patch.object(groebner, "_Reducers", ScanReducers):
            reference = Ideal(R, gens).groebner_basis(XY_FIRST)
            assert reference.normal_form(f) == got
            assert isinstance(reference._reducers, ScanReducers)
        index = gb._reducers
        assert index.packing.limit > 1000 and type(index) is _Reducers
        assert_finds_as_the_scan(index)
