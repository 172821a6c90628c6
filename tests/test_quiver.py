import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivinv import (
    AlgebraElement,
    Arrow,
    DimensionVector,
    Path,
    Presentation,
    Quiver,
    QuiverError,
    algebra_element,
    compose,
    enumerate_cycles_in_k,
    enumerate_paths,
    framed_quiver,
    path_from_arrows,
    path_from_word,
    sandwich,
    trivial_path,
)
from quivinv.quiver import ConnectivityWarning, canonical_rotation, rotations

JORDAN = Quiver(("0",), (Arrow("a", "0", "0"),))


def words(paths):
    return [p.word for p in paths]


class TestQuiverValidation:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(QuiverError):
            Quiver(("0", "0"), ())

    def test_duplicate_arrow_names_rejected(self):
        with pytest.raises(QuiverError):
            Quiver(("0",), (Arrow("a", "0", "0"), Arrow("a", "0", "0")))

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(QuiverError):
            Quiver(("0",), (Arrow("a", "0", "1"),))

    def test_dimension_vector_needs_every_vertex(self):
        with pytest.raises(QuiverError):
            DimensionVector.of(JORDAN, {})
        with pytest.raises(QuiverError):
            DimensionVector.of(JORDAN, {"0": -1})

    def test_disconnected_quiver_warns_but_builds(self):
        q = Quiver(("0", "1"), ())
        v = DimensionVector.of(q, {"0": 1, "1": 1})
        with pytest.warns(ConnectivityWarning):
            Presentation(q, v, frozenset())


class TestPresentationValidation:
    @pytest.mark.parametrize(
        "frozen, relations, message",
        [
            (frozenset({"0", "7"}), ("g1",), r"^frozen vertices not in quiver: \['7'\]$"),
            (frozenset({"1"}), ("g1", "g1"), "^duplicate relation names$"),
        ],
    )
    def test_bad_presentation_rejected(self, a1, frozen, relations, message):
        rels = tuple(a1.relation(name) for name in relations)
        with pytest.raises(QuiverError, match=message):
            Presentation(a1.quiver, a1.dims, frozen, rels)

    def test_with_frozen_keeps_the_rest_and_validates(self, a1):
        free = a1.with_frozen([])
        assert free.frozen_vertices == frozenset()
        assert (free.quiver, free.dims, free.relations) == (a1.quiver, a1.dims, a1.relations)
        assert free.derived is not a1.derived
        with pytest.raises(QuiverError, match="frozen vertices not in quiver"):
            a1.with_frozen(["7"])


class TestCompose:
    def test_fc_runs_zero_to_zero(self, a1):
        f = path_from_word(a1.quiver, "f")
        c = path_from_word(a1.quiver, "c")
        fc = compose(f, c)
        assert fc.word == "fc" and fc.tail == "0" and fc.head == "0"

    def test_cf_runs_one_to_one(self, a1):
        c = path_from_word(a1.quiver, "c")
        f = path_from_word(a1.quiver, "f")
        cf = compose(c, f)
        assert cf.word == "cf" and cf.tail == "1" and cf.head == "1"

    def test_trivial_paths_are_identities(self, a1):
        c = path_from_word(a1.quiver, "c")
        assert compose(trivial_path("1"), c) == c
        assert compose(c, trivial_path("0")) == c

    def test_non_composable_rejected(self, a1):
        c = path_from_word(a1.quiver, "c")
        d = path_from_word(a1.quiver, "d")
        with pytest.raises(QuiverError):
            compose(d, c)

    @given(st.data())
    def test_associativity_on_random_walks(self, a1, data):
        q = a1.quiver
        start = data.draw(st.sampled_from(q.vertices))
        segments = []
        vertex = start
        for _ in range(3):
            length = data.draw(st.integers(min_value=0, max_value=2))
            path = trivial_path(vertex)
            for _ in range(length):
                arrow = data.draw(st.sampled_from(q.arrows_from(vertex)))
                path = compose(path_from_arrows(q, [arrow.name]), path)
                vertex = arrow.head
            segments.append(path)
        p, qq, r = segments
        assert compose(r, compose(qq, p)) == compose(compose(r, qq), p)


LOOPED = Quiver(("0", "1"), (Arrow("aa", "0", "0"), Arrow("bb", "0", "1"), Arrow("cc", "1", "0")))


class TestPathWords:
    @pytest.mark.parametrize("name", ["a1", "looped"])
    def test_every_printed_word_reads_back(self, a1, name):
        q = a1.quiver if name == "a1" else LOOPED
        paths = enumerate_paths(q, q.vertices, q.vertices, 3, include_trivial=True)
        assert len(paths) > len(q.vertices)
        for p in paths:
            assert path_from_word(q, p.word) == p

    def test_a_declared_name_wins_over_its_letters(self):
        q = Quiver(("0", "1"), (Arrow("c", "0", "1"), Arrow("e", "1", "0"), Arrow("ec", "0", "0")))
        assert path_from_word(q, "ec") == Path(("ec",), "0", "0")
        assert path_from_word(q, "e*c") == Path(("c", "e"), "0", "0")
        assert path_from_word(q, "e c") == Path(("c", "e"), "0", "0")

    def test_letters_read_only_when_all_are_arrows(self, a1):
        with pytest.raises(QuiverError, match="unknown arrow 'fz'"):
            path_from_word(a1.quiver, "fz")

    @pytest.mark.parametrize("word", ["fc - ed", "2 fc", "-fc", ""])
    def test_a_word_is_one_term_with_coefficient_one(self, a1, word):
        with pytest.raises(QuiverError):
            path_from_word(a1.quiver, word)


class TestEnumeratePaths:
    def test_a1_loops_at_zero_up_to_length_two(self, a1):
        got = enumerate_paths(a1.quiver, {"0"}, {"0"}, 2)
        assert words(got) == ["ec", "fc", "ed", "fd"]

    def test_zero_bound_with_trivial_flag(self, a1):
        got = enumerate_paths(a1.quiver, {"0", "1"}, {"0"}, 0, include_trivial=True)
        assert words(got) == ["triv(0)"]

    def test_single_step(self, a1):
        got = enumerate_paths(a1.quiver, {"0"}, {"1"}, 1)
        assert words(got) == ["c", "d"]

    def test_counts_match_adjacency_powers(self, a1):
        q = a1.quiver
        idx = {v: k for k, v in enumerate(q.vertices)}
        n = len(q.vertices)
        adj = [[0] * n for _ in range(n)]
        for a in q.arrows:
            adj[idx[a.head]][idx[a.tail]] += 1
        power = [row[:] for row in adj]
        for length in range(1, 5):
            if length > 1:
                power = [
                    [sum(adj[i][k] * power[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)
                ]
            for s in q.vertices:
                for t in q.vertices:
                    exact = [p for p in enumerate_paths(q, {s}, {t}, length) if len(p) == length]
                    assert len(exact) == power[idx[t]][idx[s]]

    def test_order_is_length_then_declaration(self, a1):
        got = enumerate_paths(a1.quiver, {"0"}, a1.quiver.vertices, 2)
        lengths = [len(p) for p in got]
        assert lengths == sorted(lengths)


class TestCycles:
    def test_a1_has_no_cycles_inside_k(self, a1):
        assert enumerate_cycles_in_k(a1.quiver, {"1"}, 6) == []

    def test_jordan_quiver_loops(self):
        got = enumerate_cycles_in_k(JORDAN, {"0"}, 3)
        assert words(got) == ["a", "aa", "aaa"]

    def test_full_k_gives_canonical_length_two_cycles(self, a1):
        got = enumerate_cycles_in_k(a1.quiver, {"0", "1"}, 2)
        assert words(got) == ["ec", "fc", "ed", "fd"]

    def test_canonical_rotation_is_stable(self, a1):
        for cyc in enumerate_cycles_in_k(a1.quiver, {"0", "1"}, 3):
            for rot in rotations(cyc, a1.quiver):
                assert canonical_rotation(rot, a1.quiver) == cyc


def cycles_by_levels(quiver, frozen, max_len):
    """Canonical cycles inside the frozen set, level by level (the loop that
    ``enumerate_cycles_in_k`` used before it was built on ``enumerate_paths``)."""
    inner = [a for a in quiver.arrows if a.tail in frozen and a.head in frozen]
    out, seen = [], set()
    level = [Path((a.name,), a.tail, a.head) for a in inner]
    for n in range(1, max_len + 1):
        for p in level:
            if p.is_cycle:
                canon = canonical_rotation(p, quiver)
                if canon.arrows not in seen:
                    seen.add(canon.arrows)
                    out.append(canon)
        level = [
            Path(p.arrows + (a.name,), p.tail, a.head)
            for p in level
            for a in inner
            if a.tail == p.head
        ]
    return out


@st.composite
def small_quivers(draw):
    """Up to 4 vertices and 6 arrows, loops and parallel arrows included."""
    vertices = tuple(str(k) for k in range(draw(st.integers(1, 4))))
    vertex = st.sampled_from(vertices)
    ends = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    return Quiver(vertices, tuple(Arrow(f"a{k}", t, h) for k, (t, h) in enumerate(ends)))


class TestCyclesAgainstLevels:
    @given(small_quivers(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_same_cycles_in_the_same_order(self, q, max_len):
        for r in range(len(q.vertices) + 1):
            for frozen in itertools.combinations(q.vertices, r):
                assert enumerate_cycles_in_k(q, frozen, max_len) == cycles_by_levels(
                    q, set(frozen), max_len
                )


class TestFramedQuiver:
    def test_a1_framing(self, a1):
        fq = framed_quiver(a1)
        assert fq.quiver.vertices == ("1", "inf")
        names = [a.name for a in fq.quiver.arrows]
        assert names == [
            "c_col1", "c_col2", "d_col1", "d_col2",
            "e_row1", "e_row2", "f_row1", "f_row2",
        ]
        for a in fq.quiver.arrows:
            if "col" in a.name:
                assert (a.tail, a.head) == ("inf", "1")
            else:
                assert (a.tail, a.head) == ("1", "inf")
        assert fq.dims["inf"] == 1 and fq.dims["1"] == 2
        assert fq.provenance["c_col2"] == ("c", 2)

    def test_freeze_everything_keeps_arrows_and_isolates_infinity(self, a1):
        fq = framed_quiver(a1.with_frozen(["0", "1"]))
        assert [a.name for a in fq.quiver.arrows] == ["c", "d", "e", "f"]
        assert "inf" in fq.quiver.vertices

    def test_freeze_nothing_gives_single_vertex(self, a1):
        fq = framed_quiver(a1.with_frozen([]))
        assert fq.quiver.vertices == ("inf",)
        assert fq.quiver.arrows == ()

    def test_arrow_count_formula(self, a1):
        for K in [set(), {"0"}, {"1"}, {"0", "1"}]:
            pres = a1.with_frozen(K)
            fq = framed_quiver(pres)
            v = a1.dims
            s11 = [a for a in a1.quiver.arrows if a.tail in K and a.head in K]
            s01 = [a for a in a1.quiver.arrows if a.tail not in K and a.head in K]
            s10 = [a for a in a1.quiver.arrows if a.tail in K and a.head not in K]
            expected = len(s11) + sum(v[a.tail] for a in s01) + sum(v[a.head] for a in s10)
            assert len(fq.quiver.arrows) == expected


class TestAlgebraElements:
    def test_mixed_endpoints_rejected(self, a1):
        fc = path_from_word(a1.quiver, "fc")
        d = path_from_word(a1.quiver, "d")
        with pytest.raises(QuiverError):
            AlgebraElement("0", "0", ((fc, Fraction(1)), (d, Fraction(-1))))

    def test_normalization_drops_cancelling_terms(self, a1):
        fc = path_from_word(a1.quiver, "fc")
        ed = path_from_word(a1.quiver, "ed")
        elem = algebra_element(
            a1.quiver, "0", "0", [(fc, Fraction(1)), (ed, Fraction(2)), (fc, Fraction(-1))]
        )
        assert [(p.word, c) for p, c in elem.terms] == [("ed", Fraction(2))]

    def test_sandwich_composition(self, a1):
        g2 = a1.relation("g2").element
        e = path_from_word(a1.quiver, "e")
        c = path_from_word(a1.quiver, "c")
        got = sandwich(a1.quiver, e, g2, c)
        assert got.tail == "0" and got.head == "0"
        assert [p.word for p, _ in got.terms] == ["edec", "ecfc"]
