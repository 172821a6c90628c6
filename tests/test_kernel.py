from fractions import Fraction
from importlib import resources

import pytest

from quivinv import (
    Arrow,
    ComputeBudget,
    DimensionVector,
    Ideal,
    NotExpressibleError,
    Presentation,
    Quiver,
    QuiverError,
    Relation,
    algebra_element,
    compose,
    contraction_poly,
    ideal_equal,
    kernel_generators,
    parse_presentation,
    path_from_word,
    present_invariant_ring,
    rep_ideal,
    rewrite_in_generators,
    ring_for,
    trace_poly,
)


class TestKernelGenerators:
    def test_bounds_zero_with_frozen_vertex(self, a1):
        got = kernel_generators(a1, 0, 0)
        assert [g.label for g in got] == [
            "x[g1;1,1]", "x[g1;1,2]", "x[g1;2,1]", "x[g1;2,2]", "tr[g2]",
        ]
        tr = got[-1]
        expected = trace_poly(a1, a1.relation("g2").element)
        assert tr.polynomial == expected

    def test_unfrozen_bounds_zero_recovers_defining_ideal(self, a1):
        free = a1.with_frozen([])
        got = kernel_generators(free, 0, 0)
        assert len(got) == 8
        assert ideal_equal(
            Ideal(ring_for(free), [g.polynomial for g in got]), rep_ideal(free)
        )

    def test_bounds_one_include_crossing_sandwiches(self, a1):
        labels = [g.label for g in kernel_generators(a1, 1, 1)]
        assert "x[e*g2*c;1,1]" in labels
        assert "tr[c*g1*e]" in labels

    def test_trace_rotation_classes_are_deduplicated(self, a1):
        got = kernel_generators(a1, 2, 2)
        labels = [g.label for g in got]
        assert len(labels) == len(set(labels))
        # outer cycles of length two for the second relation: one generator
        # per rotation class, although two factorizations enumerate it
        g2_len2 = [
            g
            for g in got
            if g.kind == "trace" and g.relation == "g2" and len(g.u) + len(g.w) == 2
        ]
        outers = {compose(g.w, g.u).word for g in g2_len2}
        assert len(g2_len2) == len(outers) == 4

    def test_every_generator_lies_in_the_defining_ideal(self, a1):
        gb = rep_ideal(a1).groebner_basis()
        for gen in kernel_generators(a1, 1, 1):
            assert gb.reduces_to_zero(gen.polynomial), gen.label

    def test_no_relations_means_no_generators(self, a1):
        free = Presentation(a1.quiver, a1.dims, a1.frozen_vertices)
        assert kernel_generators(free, 1, 1) == ()

    def test_negative_bounds_rejected(self, a1):
        with pytest.raises(QuiverError):
            kernel_generators(a1, -1, 0)


def kronecker_with_relation():
    q = Quiver(("0", "1"), (Arrow("c", "0", "1"), Arrow("d", "0", "1")))
    v = DimensionVector.of(q, {"0": 1, "1": 1})
    c, d = path_from_word(q, "c"), path_from_word(q, "d")
    rel = algebra_element(q, "1", "0", [(c, Fraction(1)), (d, Fraction(-1))])
    return Presentation(q, v, frozenset(), (Relation("g", rel),))


class TestPresentInvariantRing:
    def test_relabeling_when_nothing_is_frozen(self):
        pres = kronecker_with_relation()
        ip = present_invariant_ring(pres, 1)
        assert [str(v) for v in ip.fresh_ring.variables] == ["c[1,1]", "d[1,1]"]
        expected = Ideal(ip.fresh_ring, [ip.fresh_ring.parse("c[1,1] - d[1,1]")])
        assert ideal_equal(ip.elimination_ideal, expected)

    def test_relabeling_a1_unfrozen(self, a1):
        free = a1.with_frozen([])
        ip = present_invariant_ring(free, 1)
        assert len(ip.dictionary) == 16
        rewritten = []
        ring = ring_for(free)
        for g in rep_ideal(free).generators:
            rewritten.append(
                ip.fresh_ring.polynomial(
                    [(m, c) for m, c in g.terms]  # same exponent layout by construction
                )
            )
        assert ideal_equal(ip.elimination_ideal, Ideal(ip.fresh_ring, rewritten))

    def test_empty_quiver_presents_trivially(self):
        q = Quiver(("0",), ())
        v = DimensionVector.of(q, {"0": 3})
        pres = Presentation(q, v, frozenset())
        ip = present_invariant_ring(pres, 1)
        assert ip.fresh_ring.variables == ()
        assert ip.elimination_ideal.generators == ()

    def test_trace_generators_get_fresh_variables(self):
        text = "[vertices] 0\n[arrows]\na: 0 -> 0\n[dims]\n0 = 2\n[K] 0\n"
        pres = parse_presentation(text)
        ip = present_invariant_ring(pres, 2)
        assert [str(v) for v in ip.fresh_ring.variables] == ["tr.a[0,0]", "tr.aa[0,0]"]
        # the two traces satisfy no relation at this bound
        assert ip.elimination_ideal.generators == ()
        got = rewrite_in_generators(trace_poly(pres, path_from_word(pres.quiver, "a")), ip)
        assert str(got) == "tr.a[0,0]"

    def test_selection_order_does_not_matter(self, a1, a1_presented):
        other = present_invariant_ring(a1, 2, select=["fd", "ec", "fc"])
        assert [str(v) for v in other.fresh_ring.variables] == [
            str(v) for v in a1_presented.fresh_ring.variables
        ]
        assert ideal_equal(other.elimination_ideal, a1_presented.elimination_ideal)

    def test_defining_relations_pair_fresh_variables_with_generators(self, a1, a1_presented):
        # each defining relation is exactly (fresh variable - generator polynomial)
        ip = a1_presented
        for k, (var, entry) in enumerate(ip.dictionary):
            defining = ip.defining_ideal.generators[k]
            expected = ip.combined_ring.var(var) - _extend_for_test(
                entry.polynomial, ip.combined_ring
            )
            assert defining == expected

    def test_elimination_ideal_members_vanish_on_scheme(self, a1, a1_presented):
        ip = a1_presented
        gb = rep_ideal(a1).groebner_basis()
        lookup = {str(v): e.polynomial for v, e in ip.dictionary}
        for g in ip.elimination_ideal.generators:
            value = None
            acc = ring_for(a1).zero
            for m, c in g.terms:
                term = ring_for(a1).constant(c)
                for idx, exp in enumerate(m):
                    if exp:
                        term = term * lookup[str(ip.fresh_ring.variables[idx])] ** exp
                acc = acc + term
            assert gb.reduces_to_zero(acc), str(g)


def _extend_for_test(poly, target):
    from quivinv.polyring import Polynomial

    pad = target.nvars - len(poly.ring.variables)
    return Polynomial(target, tuple((m + (0,) * pad, c) for m, c in poly.terms))


class TestRewrite:
    def test_trace_of_ec_in_dictionary(self, a1, a1_presented):
        ec = path_from_word(a1.quiver, "ec")
        got = rewrite_in_generators(trace_poly(a1, ec), a1_presented)
        assert got == a1_presented.fresh_ring.parse("ec[1,1] + ec[2,2]")

    def test_bare_arrow_variable_not_expressible(self, a1, a1_presented):
        x = ring_for(a1).parse("x[c;1,1]")
        with pytest.raises(NotExpressibleError, match="not expressible"):
            rewrite_in_generators(x, a1_presented)

    def test_rewrite_reuses_the_elimination_basis(self, a1, a1_presented):
        # rewriting reduces by the basis the elimination built: no pair is
        # spent and the defining ideal caches that one basis only
        budget = ComputeBudget()
        rewrite_in_generators(trace_poly(a1, path_from_word(a1.quiver, "fc")), a1_presented, budget)
        assert budget.pairs_used == 0
        assert len(a1_presented.defining_ideal._cache) == 1

    def test_defining_generator_rewrites_into_elimination_ideal(self, a1, a1_presented):
        g1 = a1.relation("g1").element
        got = rewrite_in_generators(contraction_poly(a1, g1, 1, 1), a1_presented)
        assert a1_presented.elimination_ideal.groebner_basis().reduces_to_zero(got)


def test_engine_work_on_the_a1_file_at_dims_2_1_is_pinned():
    # the block-order elimination for all generators of the bundled file at
    # dims (2,1) does a fixed amount of work; a change of representation in
    # the engine must not change which pairs it reduces or how
    text = resources.files("quivinv").joinpath("data", "a1_preprojective.quiver").read_text("utf-8")
    pres = parse_presentation(text.replace("0 = 2\n1 = 2\n", "0 = 2\n1 = 1\n"))
    budget = ComputeBudget()
    ip = present_invariant_ring(pres, 2, budget=budget)
    assert (budget.pairs_used, budget.steps_used) == (1639, 3850)
    assert len(ip.elimination_ideal.generators) == 37


def test_engine_work_on_the_worked_example_is_pinned(a1_presented, a1_presented_budget):
    # the block-order elimination behind the worked example (ec, fc, fd at
    # dims (2,2)) does a fixed amount of work, like the dims (2,1) case above
    assert (a1_presented_budget.pairs_used, a1_presented_budget.steps_used) == (4568, 70156)
    assert len(a1_presented.elimination_ideal.generators) == 23
