from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from quivinv import (
    Arrow,
    BudgetExceededError,
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
        ring = ip.elimination_basis.ring
        assert [str(v) for v in ring.variables] == ["c[1,1]", "d[1,1]"]
        expected = Ideal(ring, [ring.parse("c[1,1] - d[1,1]")])
        assert ip.elimination_basis.polys == expected.groebner_basis().polys

    def test_relabeling_a1_unfrozen(self, a1):
        free = a1.with_frozen([])
        ip = present_invariant_ring(free, 1)
        assert len(ip.dictionary) == 16
        rewritten = []
        ring = ring_for(free)
        for g in rep_ideal(free).generators:
            rewritten.append(
                ip.elimination_basis.ring.polynomial(
                    [(m, c) for m, c in g.terms]  # same exponent layout by construction
                )
            )
        expected = Ideal(ip.elimination_basis.ring, rewritten)
        assert ip.elimination_basis.polys == expected.groebner_basis().polys

    def test_empty_quiver_presents_trivially(self):
        q = Quiver(("0",), ())
        v = DimensionVector.of(q, {"0": 3})
        pres = Presentation(q, v, frozenset())
        ip = present_invariant_ring(pres, 1)
        assert ip.elimination_basis.ring.variables == ()
        assert ip.elimination_basis.polys == ()

    def test_trace_generators_get_fresh_variables(self):
        text = "[vertices] 0\n[arrows]\na: 0 -> 0\n[dims]\n0 = 2\n[K] 0\n"
        pres = parse_presentation(text)
        ip = present_invariant_ring(pres, 2)
        assert [str(v) for v in ip.elimination_basis.ring.variables] == ["tr.a[0,0]", "tr.aa[0,0]"]
        # the two traces satisfy no relation at this bound
        assert ip.elimination_basis.polys == ()
        got = rewrite_in_generators(trace_poly(pres, path_from_word(pres.quiver, "a")), ip)
        assert str(got) == "tr.a[0,0]"

    def test_fresh_variable_collision_rejected(self):
        # the word aa*bb and the arrow "aa.bb" both name the fresh variable aa.bb
        loops = tuple(Arrow(name, "0", "0") for name in ("aa", "bb", "aa.bb"))
        q = Quiver(("0",), loops)
        pres = Presentation(q, DimensionVector.of(q, {"0": 1}), frozenset())
        with pytest.raises(QuiverError, match="^fresh variable labels collide; rename arrows$"):
            present_invariant_ring(pres, 2)

    def test_selection_order_does_not_matter(self, a1, a1_presented):
        other = present_invariant_ring(a1, 2, select=["fd", "ec", "fc"])
        assert [str(v) for v in other.elimination_basis.ring.variables] == [
            str(v) for v in a1_presented.elimination_basis.ring.variables
        ]
        assert other.elimination_basis.polys == a1_presented.elimination_basis.polys

    def test_defining_relations_pair_fresh_variables_with_generators(self, a1, a1_presented):
        # each defining relation is exactly (fresh variable - generator polynomial)
        ip = a1_presented
        for k, (var, entry) in enumerate(ip.dictionary):
            defining = ip.defining_ideal.generators[k]
            expected = ip.basis.ring.var(var) - _extend_for_test(entry.polynomial, ip.basis.ring)
            assert defining == expected

    def test_elimination_ideal_members_vanish_on_scheme(self, a1, a1_presented):
        ip = a1_presented
        gb = rep_ideal(a1).groebner_basis()
        lookup = {str(v): e.polynomial for v, e in ip.dictionary}
        fresh = ip.elimination_basis.ring
        for g in ip.elimination_basis.polys:
            value = None
            acc = ring_for(a1).zero
            for m, c in g.terms:
                term = ring_for(a1).constant(c)
                for idx, exp in enumerate(m):
                    if exp:
                        term = term * lookup[str(fresh.variables[idx])] ** exp
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
        assert got == a1_presented.elimination_basis.ring.parse("ec[1,1] + ec[2,2]")

    def test_bare_arrow_variable_not_expressible(self, a1, a1_presented):
        x = ring_for(a1).parse("x[c;1,1]")
        with pytest.raises(NotExpressibleError, match="not expressible"):
            rewrite_in_generators(x, a1_presented)

    def test_rewrite_reuses_the_elimination_basis(self, a1, a1_presented, monkeypatch):
        # rewriting reduces by the basis the elimination built: it builds no
        # basis and spends no pair
        def no_basis(*args, **kwargs):
            raise AssertionError("rewrite_in_generators built a basis")

        monkeypatch.setattr(Ideal, "groebner_basis", no_basis)
        budget = ComputeBudget()
        got = rewrite_in_generators(
            trace_poly(a1, path_from_word(a1.quiver, "fc")), a1_presented, budget
        )
        assert got == a1_presented.elimination_basis.ring.parse("fc[1,1] + fc[2,2]")
        assert budget.pairs_used == 0
        assert budget.steps_used > 0

    def test_defining_generator_rewrites_into_elimination_ideal(self, a1, a1_presented):
        g1 = a1.relation("g1").element
        got = rewrite_in_generators(contraction_poly(a1, g1, 1, 1), a1_presented)
        assert a1_presented.elimination_basis.reduces_to_zero(got)


def test_engine_work_on_the_a1_file_at_dims_2_1_is_pinned():
    # the block-order elimination for all generators of the bundled file at
    # dims (2,1) does a fixed amount of work; a change of representation in
    # the engine must not change which pairs it reduces or how
    text = resources.files("quivinv").joinpath("data", "a1_preprojective.quiver").read_text("utf-8")
    pres = parse_presentation(text.replace("0 = 2\n1 = 2\n", "0 = 2\n1 = 1\n"))
    budget = ComputeBudget()
    ip = present_invariant_ring(pres, 2, budget=budget)
    assert (budget.pairs_used, budget.steps_used) == (1639, 3850)
    assert len(ip.elimination_basis) == 37


def test_engine_work_on_the_worked_example_is_pinned(a1_presented, a1_presented_budget):
    # the block-order elimination behind the worked example (ec, fc, fd at
    # dims (2,2)) does a fixed amount of work, like the dims (2,1) case above
    assert (a1_presented_budget.pairs_used, a1_presented_budget.steps_used) == (4568, 70156)
    assert len(a1_presented.elimination_basis) == 23


def test_engine_work_with_many_queued_pairs_is_pinned():
    # ec alone at dims (3,2) does not finish under the default budget; after
    # its first 10,000 steps about 11,800 pairs wait in the queue, so the
    # pairs the Gebauer-Moeller update lets through are pinned where it has
    # the most pairs to judge
    text = resources.files("quivinv").joinpath("data", "a1_preprojective.quiver").read_text("utf-8")
    pres = parse_presentation(text.replace("0 = 2\n1 = 2\n", "0 = 3\n1 = 2\n"))
    budget = ComputeBudget(max_steps=10_000)
    with pytest.raises(BudgetExceededError):
        present_invariant_ring(pres, 2, select=["ec"], budget=budget)
    assert (budget.pairs_used, budget.steps_used) == (1754, 10001)


@pytest.mark.parametrize(
    "dims, deformed, size",
    [("0 = 2\n1 = 1\n", False, 105), ("0 = 1\n1 = 1\n", True, 10), ("0 = 2\n1 = 2\n", True, 302)],
    ids=["a1-21", "deformed-11", "deformed-22"],
)
def test_presentation_basis_is_torus_homogeneous(dims, deformed, size):
    # the defining ideal is homogeneous for the torus at every vertex, where
    # x[a;i,j] weighs -e(head,i) + e(tail,j) and a fresh variable weighs what
    # its generator does, so each element of its reduced basis must be too
    text = resources.files("quivinv").joinpath("data", "a1_preprojective.quiver").read_text("utf-8")
    text = text.replace("0 = 2\n1 = 2\n", dims)
    if deformed:
        text = text.replace("f*c - e*d", "f*c - e*d - triv(0)").replace("c*f", "c*f + triv(1)")
    pres = parse_presentation(text)
    ip = present_invariant_ring(pres, 2)
    weights = []

    def weight(m):
        total = Counter()
        for e, w in zip(m, weights):
            for key, x in w.items():
                total[key] += e * x
        return {key: x for key, x in total.items() if x}

    for var in ring_for(pres).variables:
        a = pres.quiver.arrow(var.name)
        w = Counter({(a.tail, var.col): 1})
        w[a.head, var.row] -= 1
        weights.append(w)
    weights += [weight(entry.polynomial.terms[0][0]) for _, entry in ip.dictionary]
    assert len(ip.basis.polys) == size
    for f in ip.basis.polys:
        assert all(weight(m) == weight(f.terms[0][0]) for m, _ in f.terms), str(f)
