import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivinv import (
    PolynomialRing,
    RingError,
    arrow_var,
    fresh_var,
)
from quivinv.groebner import _Packing
from quivinv.polyring import Variable

from conftest import mutate

NVARS = 4
RING = PolynomialRing([fresh_var(n, 1, 1) for n in ("x", "y", "z", "w")])
ARROWISH = PolynomialRing(
    [arrow_var("c", i, j) for i in (1, 2) for j in (1, 2)]
    + [fresh_var("ec", i, j) for i in (1, 2) for j in (1, 2)]
)

monomials = st.builds(
    tuple,
    st.lists(st.integers(min_value=0, max_value=5), min_size=NVARS, max_size=NVARS),
)

coefficients = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=9),
)

polynomials = st.builds(
    lambda terms: RING.polynomial(terms),
    st.lists(st.tuples(monomials, coefficients), max_size=5),
)

scalars = st.one_of(st.integers(), st.fractions())


def has_exact_coefficients(f):
    """Whether every coefficient of ``f`` is an int or a Fraction, never a float."""
    return all(isinstance(c, (int, Fraction)) for _, c in f.terms)



def fronts(nvars):
    """Engine orders on ``nvars`` variables: every set of variables eliminated first."""
    return st.frozensets(st.integers(0, nvars - 1)) if nvars else st.just(frozenset())


orders = fronts(NVARS)


def reference_key(front, nvars):
    """Key on exponent tuples for the order with ``front`` eliminated first,
    by exponent-tuple arithmetic independent of the engine's packing:
    degrevlex on the front block, then degrevlex on the rest.  A larger key
    is a larger monomial."""
    first = sorted(front)
    back = [i for i in range(nvars) if i not in front]

    def degrevlex(exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    return lambda exps: degrevlex([exps[i] for i in first]) + degrevlex([exps[i] for i in back])


def packed_key(front, nvars=NVARS):
    """The engine's order key K; the widest product in these tests has degree 40."""
    packing = _Packing(front, nvars, 6)
    return lambda exps: packing.pack(exps)[0]


class TestOrders:
    @given(orders, monomials, monomials)
    def test_total(self, order, a, b):
        key = packed_key(order)
        assert (key(a) == key(b)) == (a == b)

    @given(orders, monomials, monomials, monomials)
    def test_multiplicative(self, order, a, b, c):
        key = packed_key(order)
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        if key(a) < key(b):
            assert key(ac) < key(bc)

    @given(orders, monomials)
    def test_one_is_least(self, order, a):
        key = packed_key(order)
        assert key((0,) * NVARS) <= key(a)

    def test_degrevlex_tiebreak(self):
        # same degree: the monomial heavier in the last variable is smaller
        key = packed_key(frozenset(), 3)
        x2z = (2, 0, 1)
        xy2 = (1, 2, 0)
        assert key(xy2) > key(x2z)

    @given(monomials, monomials)
    def test_lex_order(self, a, b):
        # in two variables, eliminating the first one first is lex
        key = packed_key(frozenset({0}), 2)
        assert key((1, 0)) > key((0, 5))
        assert (key(a[:2]) < key(b[:2])) == (a[:2] < b[:2])

    @given(monomials, monomials)
    def test_block_order_eliminates_front(self, a, b):
        key = packed_key(frozenset({0, 1}))
        a_front = a[0] + a[1]
        b_front = b[0] + b[1]
        if a_front > 0 and b_front == 0:
            assert key(a) > key(b)


class TestArithmetic:
    def test_difference_of_squares(self):
        x = RING.var(0)
        assert (x + 1) * (x - 1) == x * x - 1

    def test_multiply_by_zero(self):
        x = RING.var(0)
        assert (x * RING.zero).is_zero

    def test_multiply_by_one(self):
        x, y = RING.var(0), RING.var(1)
        f = x * y + 2 * y
        assert f * RING.one == f

    @given(polynomials, polynomials, polynomials)
    @settings(max_examples=40)
    def test_ring_axioms(self, f, g, h):
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    def test_ring_mismatch_rejected(self):
        other = PolynomialRing([fresh_var("x", 1, 1)])
        with pytest.raises(RingError):
            RING.var(0) * other.var(0)

    @pytest.mark.parametrize("other", [1.5, "a", None, [1]])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_non_number_operand_raises_type_error(self, op, other):
        x = RING.var(0)
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)

    @pytest.mark.parametrize("c", [1.5, "1", None])
    def test_constant_must_be_int_or_fraction(self, c):
        with pytest.raises(RingError, match="not an int or Fraction"):
            RING.constant(c)

    @pytest.mark.parametrize("c", [0.5, 0.1, "1/3", Decimal("0.5"), None])
    def test_polynomial_coefficient_must_be_int_or_fraction(self, c):
        with pytest.raises(RingError, match="not an int or Fraction"):
            RING.polynomial([((1, 0, 0, 0), c)])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: RING.var(0) ** -1, "negative power"),
            (lambda: RING.polynomial([((1, 0, 0), 1)]), "monomial has wrong number of variables"),
            (lambda: PolynomialRing([fresh_var("x", 1, 1)] * 2), "duplicate variables in ring"),
            (lambda: Variable("matrix", "x", 1, 1), "unknown variable kind 'matrix'"),
        ],
    )
    def test_malformed_data_rejected(self, build, message):
        with pytest.raises(RingError, match=f"^{message}$"):
            build()

    def test_terms_sorted_descending_in_ambient_order(self):
        x, y = RING.var(0), RING.var(1)
        f = y + x * x + x
        key = reference_key(RING.ambient_order, NVARS)
        keys = [key(m) for m, _ in f.terms]
        assert keys == sorted(keys, reverse=True)

    def test_zero_polynomial_has_empty_terms(self):
        x = RING.var(0)
        assert (x - x).terms == ()


class TestScalars:
    @given(scalars)
    def test_constant_equals_and_hashes_as_its_scalar(self, c):
        assert RING.constant(c) == c and hash(RING.constant(c)) == hash(c)

    def test_constants_and_their_scalars_are_one_set_element(self):
        assert {RING.zero, 0, RING.one, 1, Fraction(1)} == {0, 1}

    @given(st.lists(st.tuples(monomials, scalars), max_size=5), polynomials, scalars)
    def test_no_coefficient_is_a_float(self, terms, g, c):
        f = RING.polynomial(terms)
        results = [f, RING.parse(str(f)), f + g, f - g, f * g]
        results += [f + c, c + f, f - c, c - f, f * c, c * f]
        assert all(has_exact_coefficients(h) for h in results)


class TestToRing:
    def test_maps_variables_by_identity(self):
        target = PolynomialRing([fresh_var(n, 1, 1) for n in ("w", "v", "x")])
        x, w = RING.var(0), RING.var(3)
        assert (x * x * w - 2).to_ring(target) == target.parse("w[1,1]*x[1,1]^2 - 2")

    def test_missing_used_variable_rejected(self):
        target = PolynomialRing([fresh_var(n, 1, 1) for n in ("x", "w")])
        assert RING.var(3).to_ring(target) == target.var(1)
        with pytest.raises(RingError, match="y\\[1,1\\] not in target ring"):
            (RING.var(0) + RING.var(1)).to_ring(target)


class TestPrinting:
    def test_variable_formats(self):
        assert str(arrow_var("c", 1, 2)) == "x[c;1,2]"
        assert str(fresh_var("ec", 2, 1)) == "ec[2,1]"

    def test_canonical_polynomial_format(self):
        c11 = ARROWISH.var(0)
        c12 = ARROWISH.var(1)
        f = c11 * c11 - Fraction(1, 2) * c12 + 3
        assert str(f) == "x[c;1,1]^2 - 1/2*x[c;1,2] + 3"

    def test_fraction_one_denominator_omitted(self):
        x = RING.var(0)
        assert str(2 * x) == "2*x[1,1]"

    @given(polynomials)
    @settings(max_examples=60)
    def test_parse_round_trip(self, f):
        assert RING.parse(str(f)) == f

    def test_parse_mixed_variable_kinds(self):
        s = "x[c;1,1]*ec[1,2] - 2"
        f = ARROWISH.parse(s)
        assert str(f) == s

    def test_parse_zero_denominator(self):
        with pytest.raises(RingError, match="zero denominator"):
            RING.parse("1/0 x[1,1]")

    def test_parse_overlong_coefficient(self):
        # longer than Python's int string-conversion limit (4300 digits)
        with pytest.raises(RingError, match="4300"):
            RING.parse("1" * 5000 + " x[1,1]")

    def test_parse_overlong_exponent(self):
        with pytest.raises(RingError, match="4300"):
            RING.parse("x[1,1]^" + "1" * 5000)

    def test_parse_unknown_variable(self):
        with pytest.raises(RingError, match="unknown variable"):
            RING.parse("q[1,1]")

    def test_parse_adjacency_is_multiplication(self):
        x, y = RING.var(0), RING.var(1)
        assert RING.parse("1/2 x[1,1]") == Fraction(1, 2) * x
        assert RING.parse("2 x[1,1] y[1,1] - 3") == 2 * x * y - 3

    def test_parse_sign_handling(self):
        x = RING.var(0)
        assert RING.parse("- -x[1,1]") == x
        assert RING.parse("3 - - 2") == RING.constant(5)
        with pytest.raises(RingError, match="dangling sign"):
            RING.parse("x[1,1] +")
        with pytest.raises(RingError, match="dangling sign"):
            RING.parse("-")


# characters of printed polynomials, so that edits mostly stay near the grammar
PRINTED = "xyzw[1,]^/*+- 0123456789"

edits = st.lists(
    st.tuples(
        st.sampled_from(["delete", "insert", "replace"]),
        st.integers(min_value=0, max_value=200),
        st.one_of(st.sampled_from(PRINTED), st.characters()),
    ),
    min_size=1,
    max_size=4,
)


class TestFuzz:
    @given(polynomials, edits)
    @settings(max_examples=400, deadline=None)
    def test_mutated_polynomial_raises_only_ring_error(self, f, edit_list):
        try:
            RING.parse(mutate(str(f), edit_list))
        except RingError:
            pass
