import warnings
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from quivinv import QuiverFileError, RingError, parse_presentation
from quivinv.quiver import Arrow, ConnectivityWarning, Quiver, algebra_element, enumerate_paths
from quivinv.quiverfile import _parse_relation_element, load_presentation

from conftest import A1_TEXT, mutate


class TestA1File:
    def test_shape(self, a1):
        assert a1.quiver.vertices == ("0", "1")
        assert [a.name for a in a1.quiver.arrows] == ["c", "d", "e", "f"]
        assert a1.dims["0"] == 2 and a1.dims["1"] == 2
        assert a1.frozen_vertices == frozenset({"1"})
        assert [r.name for r in a1.relations] == ["g1", "g2"]

    def test_relation_words_read_right_to_left(self, a1):
        g1 = a1.relation("g1").element
        assert g1.tail == "0" and g1.head == "0"
        assert [(p.word, c) for p, c in g1.terms] == [
            ("fc", Fraction(1)),
            ("ed", Fraction(-1)),
        ]

    def test_empty_relations_section_gives_free_algebra(self):
        text = A1_TEXT.replace("g1 = f*c - e*d", "").replace("g2 = d*e - c*f", "")
        pres = parse_presentation(text)
        assert pres.relations == ()

    def test_load_from_disk(self, a1_file):
        pres = load_presentation(a1_file)
        assert [r.name for r in pres.relations] == ["g1", "g2"]


BASE = """
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
"""


def with_relations(*lines):
    return BASE + "[relations]\n" + "\n".join(lines) + "\n"


class TestErrors:
    def test_mixed_bigrading_reports_line(self):
        with pytest.raises(QuiverFileError, match="mixed bigrading in relation") as err:
            parse_presentation(with_relations("bad = f*c - d"))
        assert "line 13" in str(err.value)

    def test_unknown_arrow(self):
        with pytest.raises(QuiverFileError, match="unknown arrow 'z'"):
            parse_presentation(with_relations("bad = z*c"))

    def test_non_composable_word(self):
        with pytest.raises(QuiverFileError, match="non-composable"):
            parse_presentation(with_relations("bad = f*e"))

    def test_unknown_section(self):
        with pytest.raises(QuiverFileError, match=r"unknown section \[frozen\]"):
            parse_presentation(BASE + "[frozen] 1\n")

    def test_duplicate_section(self):
        with pytest.raises(QuiverFileError, match="duplicate section"):
            parse_presentation(BASE + "[K] 0\n")

    def test_content_before_section(self):
        with pytest.raises(QuiverFileError, match="before any section"):
            parse_presentation("0 1\n" + BASE)

    def test_missing_dims(self):
        with pytest.raises(QuiverFileError, match=r"missing section \[dims\]"):
            parse_presentation("[vertices] 0\n[arrows]\n")

    def test_unknown_frozen_vertex(self):
        with pytest.raises(QuiverFileError, match="not declared"):
            parse_presentation(BASE.replace("[K] 1", "[K] 7"))

    def test_arrow_line_syntax(self):
        with pytest.raises(QuiverFileError, match="line 4"):
            parse_presentation(BASE.replace("c: 0 -> 1", "c 0 -> 1"))

    def test_zero_denominator_coefficient(self):
        with pytest.raises(QuiverFileError, match="zero denominator"):
            parse_presentation(with_relations("bad = 1/0 f*c"))

    def test_overlong_coefficient_reports_line(self):
        # longer than Python's int string-conversion limit (4300 digits)
        with pytest.raises(QuiverFileError, match="4300") as err:
            parse_presentation(with_relations("bad = " + "1" * 5000 + " f*c"))
        assert err.value.line == 13

    def test_overlong_dimension_reports_line(self):
        with pytest.raises(QuiverFileError, match="4300") as err:
            parse_presentation(BASE.replace("0 = 2", "0 = " + "1" * 5000))
        assert err.value.line == 9

    def test_relation_name_clashing_with_arrow(self):
        with pytest.raises(QuiverFileError, match="clashes with an arrow"):
            parse_presentation(with_relations("c = f*c - e*d"))

    @pytest.mark.parametrize("expr", ["f**c", "f*c*", "f* - c", "*f*c", "f*c -"])
    def test_stray_operator_reports_line(self, expr):
        with pytest.raises(QuiverFileError, match="line 13") as err:
            parse_presentation(with_relations(f"bad = {expr}"))
        assert err.value.line == 13

    def test_missing_dimension_entry(self):
        with pytest.raises(QuiverFileError, match="missing dimensions"):
            parse_presentation(BASE.replace("1 = 2\n", ""))

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (BASE.replace("0 = 2", "0 = 2\n0 = 3"), 10, "duplicate dimension for vertex '0'"),
            (with_relations("g f*c"), 13, "expected 'name = expression'"),
            (with_relations("g = fc - fc"), 13, "relation g is zero"),
            (BASE.replace("[vertices] 0 1", "[vertices]"), 0, "no vertices declared"),
            # the model's own checks concern the whole file
            (BASE.replace("[vertices] 0 1", "[vertices] 0 1 0"), 0, "duplicate vertex identifiers"),
            (with_relations("g = fc", "g = ed"), 0, "duplicate relation names"),
        ],
    )
    def test_error_names_its_line(self, text, line, message):
        with pytest.raises(QuiverFileError, match=rf"^line {line}: {message}$") as err:
            parse_presentation(text)
        assert err.value.line == line


class TestCoefficientsAndTrivialTerms:
    def test_rational_coefficients(self):
        pres = parse_presentation(with_relations("g = 1/2 f*c - 2*e*d"))
        coeffs = [c for _, c in pres.relation("g").element.terms]
        assert coeffs == [Fraction(1, 2), Fraction(-2)]

    def test_leading_minus(self):
        pres = parse_presentation(with_relations("g = -f*c + e*d"))
        coeffs = [c for _, c in pres.relation("g").element.terms]
        assert coeffs == [Fraction(-1), Fraction(1)]

    def test_trivial_term_accepted(self):
        pres = parse_presentation(with_relations("g = e*c - triv(0)"))
        terms = pres.relation("g").element.terms
        assert [(p.word, c) for p, c in terms] == [
            ("triv(0)", Fraction(-1)),
            ("ec", Fraction(1)),
        ]

    def test_comments_and_blanks_ignored(self):
        text = A1_TEXT.replace("[K] 1", "[K] 1  # the acting vertex\n\n# comment line")
        pres = parse_presentation(text)
        assert pres.frozen_vertices == frozenset({"1"})


BUNDLED = resources.files("quivinv").joinpath("data", "a1_preprojective.quiver").read_text("utf-8")

# (kind, position, character): positions wrap around the text's length;
# characters mostly come from the file itself, so edits reach every section
edits = st.lists(
    st.tuples(
        st.sampled_from(["delete", "insert", "replace"]),
        st.integers(min_value=0, max_value=len(BUNDLED)),
        st.one_of(st.sampled_from(sorted(set(BUNDLED))), st.characters()),
    ),
    min_size=1,
    max_size=6,
)


class TestFuzz:
    @given(edits)
    @settings(max_examples=400, deadline=None)
    def test_mutated_file_raises_only_documented_errors(self, edit_list):
        text = mutate(BUNDLED, edit_list)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConnectivityWarning)
            try:
                parse_presentation(text)
            except QuiverFileError as exc:
                assert 0 <= exc.line <= len(text.splitlines()), str(exc)
            except RingError:
                pass


LOOPED = Quiver(("0", "1"), (Arrow("aa", "0", "0"), Arrow("bb", "0", "1"), Arrow("cc", "1", "0")))
nonzero_rationals = st.fractions(max_denominator=12).filter(lambda c: c != 0)


A1 = parse_presentation(BUNDLED).quiver  # one-letter arrow names: words print as ``fc``


@st.composite
def elements(draw, quiver):
    tail, head = draw(st.sampled_from([("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]))
    paths = enumerate_paths(quiver, {tail}, {head}, 3, include_trivial=True)
    chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=5, unique=True))
    return algebra_element(quiver, head, tail, [(p, draw(nonzero_rationals)) for p in chosen])


class TestPrintedRelationsReadBack:
    @given(elements(LOOPED))
    @settings(max_examples=200, deadline=None)
    def test_printed_element_parses_to_itself(self, element):
        assert _parse_relation_element(LOOPED, str(element), 1) == element

    @given(elements(A1))
    @settings(max_examples=200, deadline=None)
    def test_printed_element_with_one_letter_names_parses_to_itself(self, element):
        assert _parse_relation_element(A1, str(element), 1) == element

    def test_printed_relations_of_the_bundled_file_paste_back(self):
        pres = parse_presentation(BUNDLED)
        printed = [f"{r.name} = {r.element}" for r in pres.relations]
        assert printed == ["g1 = fc - ed", "g2 = de - cf"]
        head = BUNDLED.split("[relations]")[0]
        assert parse_presentation(head + "[relations]\n" + "\n".join(printed)) == pres

    def test_rational_and_trivial_terms(self):
        element = _parse_relation_element(LOOPED, "2*triv(0) - 1/3*aa*aa", 1)
        assert str(element) == "2*triv(0) - 1/3*aa*aa"
