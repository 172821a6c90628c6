import gc
import random
import weakref
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from quivinv import (
    Arrow,
    DimensionVector,
    Ideal,
    Presentation,
    Quiver,
    QuiverError,
    Relation,
    algebra_element,
    arrow_var,
    compose,
    contraction_poly,
    enumerate_paths,
    framed_correspondence,
    lusztig_generators,
    parse_presentation,
    path_from_word,
    rep_ideal,
    ring_for,
    trace_poly,
    trivial_path,
)
from quivinv.invariants import element_matrix, invariant_functions, path_matrix

from conftest import monic

# the eight defining polynomials of the representation scheme, transcribed
REP_IDEAL_8 = [
    "x[c;1,1]*x[f;1,1] + x[c;2,1]*x[f;1,2] - x[d;1,1]*x[e;1,1] - x[d;2,1]*x[e;1,2]",
    "x[c;1,2]*x[f;1,1] + x[c;2,2]*x[f;1,2] - x[d;1,2]*x[e;1,1] - x[d;2,2]*x[e;1,2]",
    "x[c;1,1]*x[f;2,1] + x[c;2,1]*x[f;2,2] - x[d;1,1]*x[e;2,1] - x[d;2,1]*x[e;2,2]",
    "x[c;1,2]*x[f;2,1] + x[c;2,2]*x[f;2,2] - x[d;1,2]*x[e;2,1] - x[d;2,2]*x[e;2,2]",
    "x[d;1,1]*x[e;1,1] + x[d;1,2]*x[e;2,1] - x[c;1,1]*x[f;1,1] - x[c;1,2]*x[f;2,1]",
    "x[d;1,1]*x[e;1,2] + x[d;1,2]*x[e;2,2] - x[c;1,1]*x[f;1,2] - x[c;1,2]*x[f;2,2]",
    "x[d;2,1]*x[e;1,1] + x[d;2,2]*x[e;2,1] - x[c;2,1]*x[f;1,1] - x[c;2,2]*x[f;2,1]",
    "x[d;2,1]*x[e;1,2] + x[d;2,2]*x[e;2,2] - x[c;2,1]*x[f;1,2] - x[c;2,2]*x[f;2,2]",
]

# the twelve generators of the invariant ring for K = {1}, transcribed
TABLE_12 = [
    "x[c;1,1]*x[e;1,1] + x[c;2,1]*x[e;1,2]",
    "x[c;1,2]*x[e;1,1] + x[c;2,2]*x[e;1,2]",
    "x[c;1,1]*x[e;2,1] + x[c;2,1]*x[e;2,2]",
    "x[c;1,2]*x[e;2,1] + x[c;2,2]*x[e;2,2]",
    "x[c;1,1]*x[f;1,1] + x[c;2,1]*x[f;1,2]",
    "x[c;1,2]*x[f;1,1] + x[c;2,2]*x[f;1,2]",
    "x[c;1,1]*x[f;2,1] + x[c;2,1]*x[f;2,2]",
    "x[c;1,2]*x[f;2,1] + x[c;2,2]*x[f;2,2]",
    "x[d;1,1]*x[f;1,1] + x[d;2,1]*x[f;1,2]",
    "x[d;1,2]*x[f;1,1] + x[d;2,2]*x[f;1,2]",
    "x[d;1,1]*x[f;2,1] + x[d;2,1]*x[f;2,2]",
    "x[d;1,2]*x[f;2,1] + x[d;2,2]*x[f;2,2]",
]

JORDAN_TEXT = """
[vertices] 0
[arrows]
a: 0 -> 0
[dims]
0 = 2
[K] 0
"""


class TestContraction:
    def test_single_arrow_is_a_variable(self, a1):
        c = path_from_word(a1.quiver, "c")
        assert str(contraction_poly(a1, c, 1, 2)) == "x[c;1,2]"

    def test_path_fc_matches_worked_example(self, a1):
        fc = path_from_word(a1.quiver, "fc")
        got = contraction_poly(a1, fc, 1, 1)
        assert got == ring_for(a1).parse("x[c;1,1]*x[f;1,1] + x[c;2,1]*x[f;1,2]")

    def test_relation_g1_entry_matches_worked_example(self, a1):
        g1 = a1.relation("g1").element
        got = contraction_poly(a1, g1, 1, 1)
        assert got == ring_for(a1).parse(REP_IDEAL_8[0])

    def test_trivial_path_is_kronecker_delta(self, a1):
        t = trivial_path("0")
        assert contraction_poly(a1, t, 1, 1) == ring_for(a1).one
        assert contraction_poly(a1, t, 1, 2).is_zero

    def test_multiplying_a_generator_by_one_is_identity(self, a1):
        ring = ring_for(a1)
        f = ring.parse("x[c;1,1]*x[f;1,1] + x[c;2,1]*x[f;1,2]")
        assert f * ring.one == f

    def test_index_out_of_range(self, a1):
        c = path_from_word(a1.quiver, "c")
        with pytest.raises(QuiverError, match="index out of range"):
            contraction_poly(a1, c, 3, 1)

    def test_homogeneous_of_path_length(self, a1):
        for word in ("c", "ec", "fdec"):
            p = path_from_word(a1.quiver, word)
            poly = contraction_poly(a1, p, 1, 1)
            assert {sum(m) for m, _ in poly.terms} == {len(p)}

    def test_linear_in_relations(self, a1):
        q = a1.quiver
        fc = path_from_word(q, "fc")
        ed = path_from_word(q, "ed")
        lam, mu = Fraction(3, 2), Fraction(-5)
        combo = algebra_element(q, "0", "0", [(fc, lam), (ed, mu)])
        got = contraction_poly(a1, combo, 2, 1)
        want = lam * contraction_poly(a1, fc, 2, 1) + mu * contraction_poly(a1, ed, 2, 1)
        assert got == want

    def test_product_law_on_seeded_pairs(self, a1):
        rng = random.Random(7)
        pool = enumerate_paths(a1.quiver, a1.quiver.vertices, a1.quiver.vertices, 3)
        v = a1.dims
        for _ in range(25):
            p = rng.choice(pool)
            q = rng.choice([x for x in pool if x.tail == p.head])
            qp = compose(q, p)
            for i in range(1, v[qp.head] + 1):
                for j in range(1, v[qp.tail] + 1):
                    rhs = ring_for(a1).zero
                    for k in range(1, v[p.head] + 1):
                        rhs += contraction_poly(a1, q, i, k) * contraction_poly(a1, p, k, j)
                    assert contraction_poly(a1, qp, i, j) == rhs


class TestTrace:
    def test_trivial_path_traces_to_dimension(self, a1):
        assert trace_poly(a1, trivial_path("1")) == 2

    def test_loop_trace(self):
        pres = parse_presentation(JORDAN_TEXT)
        a = path_from_word(pres.quiver, "a")
        assert str(trace_poly(pres, a)) == "x[a;1,1] + x[a;2,2]"

    def test_trace_is_cyclic(self, a1):
        ce = path_from_word(a1.quiver, "ce")
        ec = path_from_word(a1.quiver, "ec")
        assert trace_poly(a1, ce) == trace_poly(a1, ec)

    def test_head_must_equal_tail(self, a1):
        c = path_from_word(a1.quiver, "c")
        with pytest.raises(QuiverError):
            trace_poly(a1, c)


class TestLusztigGenerators:
    def test_a1_counts_and_table(self, a1):
        ring = ring_for(a1)
        full = lusztig_generators(a1, 2)
        assert len(full) == 16
        assert all(e.kind == "contraction" for e in full)
        selected = lusztig_generators(a1, 2, select=["ec", "fc", "fd"])
        assert len(selected) == 12
        assert [e.polynomial for e in selected] == [ring.parse(s) for s in TABLE_12]

    def test_empty_frozen_set_gives_arrow_variables(self, a1):
        got = lusztig_generators(a1.with_frozen([]), 1)
        assert [str(e.polynomial) for e in got] == [str(v) for v in ring_for(a1).variables]

    def test_jordan_traces(self):
        pres = parse_presentation(JORDAN_TEXT)
        got = lusztig_generators(pres, 2)
        assert [e.label for e in got] == ["tr[a]", "tr[aa]"]
        ring = ring_for(pres)
        assert got.entries[0].polynomial == ring.parse("x[a;1,1] + x[a;2,2]")
        assert got.entries[1].polynomial == ring.parse(
            "x[a;1,1]^2 + 2*x[a;1,2]*x[a;2,1] + x[a;2,2]^2"
        )

    def test_a_starred_word_selects_what_its_concatenation_selects(self, a1):
        assert lusztig_generators(a1, 2, select=["e*c"]) == lusztig_generators(a1, 2, select=["ec"])

    def test_a_trace_is_selected_by_any_rotation(self):
        pres = parse_presentation(JORDAN_TEXT.replace("a: 0 -> 0", "a: 0 -> 0\nb: 0 -> 0"))
        for word in ("ab", "ba"):
            assert [e.label for e in lusztig_generators(pres, 2, select=[word])] == ["tr[ba]"]

    def test_a_cycle_leaving_the_frozen_set_is_not_rotated(self, a1):
        # ce runs through vertex 0, outside K = {1}; its rotation ec is a contraction word
        assert a1.frozen_vertices == {"1"}
        with pytest.raises(QuiverError, match=r"no generator: \['ce'\]"):
            lusztig_generators(a1, 2, select=["ce"])

    def test_unknown_selection_rejected(self, a1):
        with pytest.raises(QuiverError, match="selection matches no generator"):
            lusztig_generators(a1, 2, select=["zz"])

    def test_word_collisions_are_detected(self):
        # an arrow literally named "ec" spells the same word as the composite
        # e after c, so the labels would be ambiguous
        q = Quiver(
            ("0", "1"),
            (Arrow("c", "0", "1"), Arrow("e", "1", "0"), Arrow("ec", "0", "0")),
        )
        v = DimensionVector.of(q, {"0": 1, "1": 1})
        pres = Presentation(q, v, frozenset())
        with pytest.raises(QuiverError, match="labels collide"):
            lusztig_generators(pres, 2)


class TestInvariantFunctions:
    def test_a_path_with_one_frozen_end_gives_nothing(self, a1):
        # c runs from 0 into K = {1}: the group moves its head only
        assert invariant_functions(a1, path_from_word(a1.quiver, "c"), "c") == []

    def test_a_path_between_two_frozen_vertices_gives_nothing(self, a1):
        both = a1.with_frozen(["0", "1"])
        assert invariant_functions(both, path_from_word(a1.quiver, "c"), "c") == []

    def test_a_cycle_at_an_unfrozen_vertex_gives_its_entries(self, a1):
        ec = path_from_word(a1.quiver, "ec")
        assert invariant_functions(a1, ec, "ec") == [
            (f"x[ec;{i},{j}]", "contraction", i, j, contraction_poly(a1, ec, i, j))
            for i in (1, 2)
            for j in (1, 2)
        ]

    def test_a_cycle_at_a_frozen_vertex_gives_its_trace(self, a1):
        ce = path_from_word(a1.quiver, "ce")
        assert invariant_functions(a1, ce, "ce") == [("tr[ce]", "trace", 0, 0, trace_poly(a1, ce))]


class TestRepIdeal:
    def test_a1_matches_displayed_generators(self, a1):
        ring = ring_for(a1)
        got = rep_ideal(a1).generators
        assert [str(monic(g)) for g in got] == [
            str(monic(ring.parse(s))) for s in REP_IDEAL_8
        ]

    def test_no_relations_gives_zero_ideal(self, a1):
        free = Presentation(a1.quiver, a1.dims, a1.frozen_vertices)
        assert rep_ideal(free).generators == ()

    def test_zero_dimension_head_contributes_nothing(self):
        q = Quiver(("0", "1"), (Arrow("a", "0", "1"), Arrow("b", "1", "0")))
        v = DimensionVector.of(q, {"0": 2, "1": 0})
        ba = compose(path_from_word(q, "b"), path_from_word(q, "a"))
        rel = algebra_element(q, "0", "0", [(ba, Fraction(1))])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pres = Presentation(q, v, frozenset(), (Relation("g", rel),))
        # the relation matrix is 2x2 but every entry is an empty sum
        assert all(g.is_zero for g in rep_ideal(pres).generators)


class TestRestrictTau:
    def test_ideal_generator_restricts_to_zero(self, a1):
        g1 = a1.relation("g1").element
        gb = rep_ideal(a1).groebner_basis()
        assert gb.normal_form(contraction_poly(a1, g1, 1, 1)).is_zero

    def test_single_variable_is_already_reduced(self, a1):
        x = ring_for(a1).parse("x[c;1,1]")
        assert rep_ideal(a1).groebner_basis().normal_form(x) == x

    def test_trace_difference_of_equivalent_cycles_vanishes(self, a1):
        fc = path_from_word(a1.quiver, "fc")
        ed = path_from_word(a1.quiver, "ed")
        gb = rep_ideal(a1).groebner_basis()
        assert gb.normal_form(trace_poly(a1, fc) - trace_poly(a1, ed)).is_zero

    def test_lift_independence_hand_case(self, a1):
        # lifts differing by e*g2*c restrict identically
        q = a1.quiver
        e, c = path_from_word(q, "e"), path_from_word(q, "c")
        from quivinv import sandwich

        shift = sandwich(q, e, a1.relation("g2").element, c)
        base = path_from_word(q, "ec")
        shifted = algebra_element(
            q, "0", "0", [(base, Fraction(1))] + list(shift.terms)
        )
        gb = rep_ideal(a1).groebner_basis()
        for i, j in ((1, 1), (2, 2), (1, 2)):
            lhs = gb.normal_form(contraction_poly(a1, shifted, i, j))
            rhs = gb.normal_form(contraction_poly(a1, base, i, j))
            assert lhs == rhs


class TestTraversal:
    def test_membership_detects_traversal(self, a1):
        ring = ring_for(a1)
        v = a1.dims
        f_arrow = a1.quiver.arrow("f")
        i_f = Ideal(
            ring,
            [
                ring.var(arrow_var("f", i, j))
                for i in range(1, v[f_arrow.head] + 1)
                for j in range(1, v[f_arrow.tail] + 1)
            ],
        )
        fc = path_from_word(a1.quiver, "fc")
        ed = path_from_word(a1.quiver, "ed")
        gb = i_f.groebner_basis()
        assert gb.reduces_to_zero(contraction_poly(a1, fc, 1, 1))
        assert not gb.reduces_to_zero(contraction_poly(a1, ed, 1, 1))
        assert gb.reduces_to_zero(ring.zero)


class TestFramedCorrespondence:
    def test_ec_entry_one_one(self, a1):
        cycle, poly = framed_correspondence(a1, "c", trivial_path("1"), "e", 1, 1)
        assert cycle.arrows == ("c_col1", "e_row1")
        assert cycle.tail == "inf" and cycle.head == "inf"
        ec = path_from_word(a1.quiver, "ec")
        assert poly == contraction_poly(a1, ec, 1, 1)

    def test_ec_entry_two_two(self, a1):
        cycle, poly = framed_correspondence(a1, "c", trivial_path("1"), "e", 2, 2)
        assert cycle.arrows == ("c_col2", "e_row2")
        assert poly == contraction_poly(a1, path_from_word(a1.quiver, "ec"), 2, 2)

    def test_mismatched_mid_rejected(self, a1):
        with pytest.raises(QuiverError):
            framed_correspondence(a1, "c", trivial_path("0"), "e", 1, 1)

    def test_wrong_crossing_direction_rejected(self, a1):
        with pytest.raises(QuiverError):
            framed_correspondence(a1, "e", trivial_path("1"), "c", 1, 1)

    @pytest.mark.parametrize(
        "b, mid, c, i, j, message",
        [
            ("c", "triv(1)", "c", 1, 1, "arrow c does not cross out of the frozen set"),
            ("c", "ce", "e", 1, 1, "mid path leaves the frozen set at e"),
            ("c", "triv(1)", "e", 3, 1, "framed indices out of range"),
            ("c", "triv(1)", "e", 1, 0, "framed indices out of range"),
        ],
    )
    def test_bad_framing_data_rejected(self, a1, b, mid, c, i, j, message):
        with pytest.raises(QuiverError, match=rf"^{message}$"):
            framed_correspondence(a1, b, path_from_word(a1.quiver, mid), c, i, j)


# -- the symbolic layer against a plain fold of variable matrices -------------

BUNDLED = parse_presentation(
    resources.files("quivinv").joinpath("data", "a1_preprojective.quiver").read_text("utf-8")
)
BUNDLED_PATHS = enumerate_paths(
    BUNDLED.quiver, BUNDLED.quiver.vertices, BUNDLED.quiver.vertices, 4, include_trivial=True
)


def _at_dims(d0: int, d1: int) -> Presentation:
    dims = DimensionVector.of(BUNDLED.quiver, {"0": d0, "1": d1})
    return Presentation(BUNDLED.quiver, dims, BUNDLED.frozen_vertices, BUNDLED.relations)


def _fold_sum(ring, polys):
    acc = ring.zero
    for p in polys:
        acc = acc + p
    return acc


def _reference_path_matrix(pres, path):
    """Left-multiply the identity by each arrow's matrix of ring variables."""
    ring = ring_for(pres)
    v = pres.dims
    cols = v[path.tail]
    mat = [[ring.one if i == j else ring.zero for j in range(cols)] for i in range(cols)]
    for name in path.arrows:
        a = BUNDLED.quiver.arrow(name)
        x = [
            [ring.var(arrow_var(name, i, k)) for k in range(1, v[a.tail] + 1)]
            for i in range(1, v[a.head] + 1)
        ]
        mat = [
            [_fold_sum(ring, (row[k] * mat[k][j] for k in range(len(row)))) for j in range(cols)]
            for row in x
        ]
    return mat


def _reference_element_matrix(pres, element):
    ring = ring_for(pres)
    v = pres.dims
    mats = [(_reference_path_matrix(pres, p), coef) for p, coef in element.terms]
    return [
        [_fold_sum(ring, (m[i][j] * coef for m, coef in mats)) for j in range(v[element.tail])]
        for i in range(v[element.head])
    ]


def _as_lists(matrix):
    return [list(row) for row in matrix]


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def symbolic_cases(draw):
    pres = _at_dims(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    path = draw(st.sampled_from(BUNDLED_PATHS))
    parallel = [p for p in BUNDLED_PATHS if (p.tail, p.head) == (path.tail, path.head)]
    others = draw(st.lists(st.sampled_from(parallel), max_size=2))
    coefs = draw(st.lists(small_fractions, min_size=len(others) + 1, max_size=len(others) + 1))
    element = algebra_element(BUNDLED.quiver, path.head, path.tail, zip([path] + others, coefs))
    return pres, path, element


class TestAgainstMatrixFold:
    @given(symbolic_cases())
    @settings(max_examples=60, deadline=None)
    def test_path_element_and_trace(self, case):
        pres, path, element = case
        ring = ring_for(pres)
        want_path = _reference_path_matrix(pres, path)
        want_element = _reference_element_matrix(pres, element)
        assert _as_lists(path_matrix(pres, path)) == want_path
        assert _as_lists(element_matrix(pres, element)) == want_element
        if path.is_cycle:
            diagonal = range(len(want_path))
            assert trace_poly(pres, path) == _fold_sum(ring, (want_path[k][k] for k in diagonal))
            assert trace_poly(pres, element) == _fold_sum(
                ring, (want_element[k][k] for k in diagonal)
            )

    def test_empty_inner_sum_is_zero(self):
        # ec runs through vertex 1, which has dimension 0 here
        pres = _at_dims(2, 0)
        ring = ring_for(pres)
        ec = path_from_word(pres.quiver, "ec")
        assert _as_lists(path_matrix(pres, ec)) == [[ring.zero] * 2] * 2
        assert trace_poly(pres, ec) == ring.zero


def test_a_dropped_presentation_frees_its_ring_and_path_matrices():
    pres = _at_dims(3, 2)
    lusztig_generators(pres, 3)
    assert len(pres.derived) > 1  # the ring and the path matrices
    # every matrix entry holds the ring, so no matrix outlives a freed ring
    refs = [weakref.ref(pres), weakref.ref(ring_for(pres))]
    del pres
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
