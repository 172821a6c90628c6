import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from quivinv import (
    PolynomialRing,
    QuiverError,
    RingError,
    act,
    check_invariance,
    contraction_poly,
    eval_poly,
    framed_quiver,
    fresh_var,
    parse_presentation,
    path_from_word,
    random_group,
    random_rep,
    ring_for,
    trace_poly,
    trivial_path,
)
from quivinv import evaluation
from quivinv.evaluation import (
    SingularMatrixError,
    framed_trace,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_trace,
    path_product,
)
from quivinv.invariants import framed_correspondence
from quivinv.quiver import DimensionVector, Presentation


def matrix_of(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class TestMatrices:
    def test_exact_inverse(self):
        m = matrix_of([[2, 1], [7, 4]])
        inv = mat_inverse(m)
        assert mat_mul(m, inv) == identity_matrix(2)
        assert mat_mul(inv, m) == identity_matrix(2)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(matrix_of([[1, 2], [2, 4]]))

    def test_fractional_entries(self):
        m = matrix_of([[Fraction(1, 2), 0], [0, 3]])
        assert mat_inverse(m) == matrix_of([[2, 0], [0, Fraction(1, 3)]])


class TestRandomPoints:
    def test_reproducible_and_bounded(self, a1):
        b1 = random_rep(a1, 42)
        b2 = random_rep(a1, 42)
        assert b1 == b2
        for m in b1.values():
            assert all(-5 <= x <= 5 for row in m for x in row)

    def test_different_seeds_differ(self, a1):
        assert random_rep(a1, 1) != random_rep(a1, 2)

    def test_zero_dimension_gives_empty_matrices(self, a1):
        import warnings

        v = DimensionVector.of(a1.quiver, {"0": 2, "1": 0})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pres = Presentation(a1.quiver, v, frozenset())
        b = random_rep(pres, 0)
        assert b["c"] == ()

    def test_shapes_match_dimensions(self, a1):
        b = random_rep(a1, 5)
        for a in a1.quiver.arrows:
            m = b[a.name]
            assert len(m) == a1.dims[a.head]
            assert all(len(row) == a1.dims[a.tail] for row in m)


class TestRandomGroup:
    def test_exact_inverse_cached(self, a1):
        g = random_group(a1, 3)
        for vertex, (mat, inv) in g.items():
            n = len(mat)
            assert mat_mul(mat, inv) == identity_matrix(n)

    def test_reproducible(self, a1):
        assert random_group(a1, 9) == random_group(a1, 9)

    def test_one_dimensional_factor_is_nonzero(self, a1):
        import warnings

        v = DimensionVector.of(a1.quiver, {"0": 2, "1": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pres = Presentation(a1.quiver, v, frozenset({"1"}), a1.relations)
        g = random_group(pres, 11)
        (mat, _), = g.values()
        assert mat[0][0] != 0


class TestAction:
    def test_identity_acts_trivially(self, a1):
        b = random_rep(a1, 7)
        assert act(a1, {}, b) == b
        one = identity_matrix(2)
        assert act(a1, {"1": (one, one)}, b) == b

    def test_missing_factors_act_as_identity(self, a1):
        # a factor at vertex 0 only, against the same element with an
        # explicit identity factor added at vertex 1
        both = a1.with_frozen(["0", "1"])
        b = random_rep(both, 6)
        at_0 = {"0": random_group(both, 12)["0"]}
        one = identity_matrix(2)
        explicit = {**at_0, "1": (one, one)}
        assert act(both, at_0, b) == act(both, explicit, b)
        assert act(both, at_0, b) != b

    def test_action_is_a_group_action(self, a1):
        b = random_rep(a1, 8)
        g = random_group(a1, 21)
        h = random_group(a1, 22)
        composed = {
            vertex: (mat_mul(gm, hm), mat_mul(hinv, ginv))
            for (vertex, (gm, ginv)), (hm, hinv) in zip(g.items(), h.values())
        }
        assert act(a1, g, act(a1, h, b)) == act(a1, composed, b)

    def test_unfrozen_arrows_untouched(self, a1):
        # freeze nothing: the action is trivial on every arrow
        free = a1.with_frozen([])
        b = random_rep(free, 4)
        g = random_group(free, 5)
        assert act(free, g, b) == b


class TestEval:
    def test_contraction_matches_matrix_product(self, a1):
        b = random_rep(a1, 13)
        for word in ("c", "ec", "fdec", "cfd"):
            p = path_from_word(a1.quiver, word)
            product = path_product(a1, b, p)
            for i in range(1, a1.dims[p.head] + 1):
                for j in range(1, a1.dims[p.tail] + 1):
                    got = eval_poly(contraction_poly(a1, p, i, j), a1, b)
                    assert got == product[i - 1][j - 1]

    def test_trace_matches_matrix_trace(self, a1):
        b = random_rep(a1, 14)
        for word in ("ec", "fd", "cfde"):
            p = path_from_word(a1.quiver, word)
            got = eval_poly(trace_poly(a1, p), a1, b)
            assert got == mat_trace(path_product(a1, b, p))

    def test_constant_evaluates_to_dimension(self, a1):
        b = random_rep(a1, 15)
        assert eval_poly(trace_poly(a1, trivial_path("1")), a1, b) == 2

    def test_unknown_variable_rejected(self, a1):
        ring = PolynomialRing([fresh_var("t", 1, 1)])
        with pytest.raises(RingError, match="unknown variable"):
            eval_poly(ring.var(0), a1, random_rep(a1, 0))


class TestInvariance:
    def test_trace_of_cycle_is_invariant(self, a1):
        f = trace_poly(a1, path_from_word(a1.quiver, "ec"))
        assert check_invariance([("tr.ec", f)], a1, 20, seed=0).passed

    def test_single_entry_is_not_invariant(self, a1):
        f = ring_for(a1).parse("x[c;1,1]")
        result = check_invariance([("c[1,1]", f)], a1, 20, seed=0)
        assert not result.passed
        assert result.witness is not None
        assert "trial" in result.witness

    def test_failing_entry_among_invariant_ones_is_named(self, a1):
        ring = ring_for(a1)
        traces = [(w, trace_poly(a1, path_from_word(a1.quiver, w))) for w in ("ec", "fd")]
        entries = traces[:1] + [("c[1,1]", ring.parse("x[c;1,1]"))] + traces[1:]
        result = check_invariance(entries, a1, 20, seed=0)
        assert (result.passed, result.trials) == (False, 1)
        assert result.witness["generator"] == "c[1,1]"
        assert result.witness["polynomial"] == "x[c;1,1]"

    def test_rational_witnesses_are_exact(self, a1):
        # arrow e leaves the frozen vertex, so its moved entries have denominator det g
        f = ring_for(a1).parse("1/2*x[e;1,1]")
        result = check_invariance([("half", f)], a1, 20, seed=0)
        assert (result.passed, result.trials) == (False, 1)
        w = result.witness
        point = random_rep(a1, w["rep_seed"])
        moved = act(a1, random_group(a1, w["group_seed"]), point)
        assert Fraction(w["original"]) == Fraction(point["e"][0][0], 2)
        assert Fraction(w["moved"]) == moved["e"][0][0] / 2
        assert Fraction(w["moved"]).denominator > 2

    def test_trials_are_shared_by_all_entries(self, a1, monkeypatch):
        # one action per trial, and each entry evaluated at both points
        counts = {"eval_poly": 0, "act": 0}

        def counted(name):
            real = getattr(evaluation, name)

            def wrapped(*args):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(evaluation, name, wrapped)

        counted("eval_poly")
        counted("act")
        ring = ring_for(a1)
        entries = [(str(k), ring.constant(k)) for k in range(3)]
        assert check_invariance(entries, a1, 7, seed=2).passed
        assert counts == {"eval_poly": 2 * 3 * 7, "act": 7}

    def test_no_entries_means_no_trials(self, a1):
        result = check_invariance([], a1, 20, seed=0)
        assert (result.passed, result.trials) == (True, 0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_fewer_than_one_trial_rejected(self, a1, trials):
        with pytest.raises(QuiverError, match="^trials must be >= 1$"):
            check_invariance([("1", ring_for(a1).one)], a1, trials, seed=0)

    def test_constant_is_invariant(self, a1):
        f = ring_for(a1).constant(Fraction(5, 3))
        assert check_invariance([("5/3", f)], a1, 5, seed=1).passed

    def test_failure_reports_the_trials_done(self, a1, monkeypatch):
        # every evaluation gives a new value, so the first trial fails
        values = itertools.count()
        monkeypatch.setattr(evaluation, "eval_poly", lambda f, pres, point: next(values))
        result = check_invariance([("1", ring_for(a1).one)], a1, 20, seed=0)
        assert (result.passed, result.trials, result.witness["trial"]) == (False, 1, 0)


def exact(x):
    return type(x) in (int, Fraction)


small_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5) | st.fractions(max_denominator=7), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestNoFloats:
    """Only mat_inverse and eval_poly's last step divide, so no value is ever a float."""

    @given(small_matrices)
    def test_mat_inverse(self, rows):
        try:
            inv = mat_inverse(tuple(map(tuple, rows)))
        except SingularMatrixError:
            return
        assert all(exact(x) for row in inv for x in row)

    @given(
        st.sampled_from([(), ("0",), ("1",), ("0", "1")]),
        st.integers(0, 2**31),
        st.integers(0, 2**31),
    )
    def test_act_and_eval_poly(self, a1, frozen, rep_seed, grp_seed):
        pres = a1.with_frozen(frozen)
        point = random_rep(pres, rep_seed)
        moved = act(pres, random_group(pres, grp_seed), point)
        assert all(exact(x) for m in moved.values() for row in m for x in row)
        polys = [
            trace_poly(pres, path_from_word(pres.quiver, "ec")),
            contraction_poly(pres, path_from_word(pres.quiver, "cfd"), 2, 1),
            ring_for(pres).constant(Fraction(5, 3)),
            ring_for(pres).zero,
        ]
        for f in polys:
            assert exact(eval_poly(f, pres, point))
            assert exact(eval_poly(f, pres, moved))


def reference_eval(f, point):
    """Sum of c * prod x^e over Fraction, one variable at a time."""
    acc = 0
    for m, c in f.terms:
        term = Fraction(1)
        for var, e in zip(f.ring.variables, m):
            if e:
                term *= Fraction(point[var.name][var.row - 1][var.col - 1]) ** e
        acc += c * term
    return acc


def with_fresh(pres):
    """The presentation's ring with one fresh variable appended."""
    return PolynomialRing(ring_for(pres).variables + (fresh_var("t", 1, 1),))


non_integral = st.fractions(max_denominator=9).filter(lambda c: c.denominator > 1)


class TestIntegerEvaluation:
    """eval_poly against the plain Fraction loop, at points with rational entries."""

    @given(
        st.sampled_from([("1",), ("0", "1")]),
        st.integers(0, 2**31),
        st.integers(0, 2**31),
        st.lists(
            st.tuples(st.lists(st.integers(0, 3), min_size=16, max_size=16), non_integral),
            min_size=1,
            max_size=8,
        ),
    )
    def test_matches_the_fraction_loop_at_moved_points(self, a1, frozen, rep_seed, grp_seed, terms):
        pres = a1.with_frozen(frozen)
        ring = with_fresh(pres)  # the fresh variable is in the ring but unused
        f = ring.polynomial((tuple(m) + (0,), c) for m, c in terms)
        point = random_rep(pres, rep_seed)
        moved = act(pres, random_group(pres, grp_seed), point)
        assume(any(type(x) is Fraction and x.denominator > 1 for row in moved["e"] for x in row))
        for at in (point, moved):
            assert eval_poly(f, pres, at) == reference_eval(f, at)

    def test_used_fresh_variable_raises(self, a1):
        ring = with_fresh(a1)
        point = act(a1, random_group(a1, 3), random_rep(a1, 3))
        f = ring.parse("1/2*x[e;1,1]*t[1,1] + 1/3*x[c;1,1]")
        with pytest.raises(RingError, match="unknown variable t"):
            eval_poly(f, a1, point)


class TestFramedEvaluation:
    def test_framed_trace_equals_contraction(self, a1):
        cycle, poly = framed_correspondence(a1, "d", trivial_path("1"), "f", 2, 1)
        for seed in range(5):
            b = random_rep(a1, seed)
            assert framed_trace(a1, cycle, b) == eval_poly(poly, a1, b)

    def test_framing_renames_around_taken_names(self):
        # a vertex inf and a loop c_col1 hold the names the framing would give
        # infinity and c's first column arrow, so both of those get a prime
        pres = parse_presentation(
            "[vertices] inf 1\n[arrows]\nc_col1: 1 -> 1\nc: inf -> 1\ne: 1 -> inf\n"
            "[dims]\ninf = 2\n1 = 2\n[K] 1\n"
        )
        fq = framed_quiver(pres)
        assert fq.infinity == "inf'"
        assert fq.provenance["c_col1'"] == ("c", 1)
        cycle, _ = framed_correspondence(pres, "c", trivial_path("1"), "e", 2, 1)
        assert cycle.arrows == ("c_col1'", "e_row2")
        for mid in (trivial_path("1"), path_from_word(pres.quiver, "c_col1")):
            for i, j in itertools.product((1, 2), repeat=2):
                cycle, poly = framed_correspondence(pres, "c", mid, "e", i, j)
                for seed in range(5):
                    point = random_rep(pres, seed)
                    assert framed_trace(pres, cycle, point) == eval_poly(poly, pres, point)
