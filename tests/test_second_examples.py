"""Pipeline checks on quivers other than the bundled example.

These pin down behaviour that the two-vertex example cannot see: trace
generators entering the presentation, and hand-derivable relations among
invariants (the 2x2 trace identity) showing up in the elimination ideal.
"""

from fractions import Fraction
from importlib import resources

import pytest

from quivinv import (
    parse_presentation,
    present_invariant_ring,
    rep_ideal,
    ring_for,
)

LOOP_WITH_LEGS = """
# one loop at the frozen vertex, one leg in and one leg out
[vertices] 0 1
[arrows]
l: 1 -> 1
c: 0 -> 1
e: 1 -> 0
[dims]
0 = 1
1 = 2
[K] 1
"""

NILPOTENT_JORDAN = """
[vertices] 0
[arrows]
a: 0 -> 0
[dims]
0 = 2
[K] 0
[relations]
g = a*a
"""


@pytest.fixture(scope="module")
def loop_presented():
    pres = parse_presentation(LOOP_WITH_LEGS)
    return present_invariant_ring(pres, 4, select=["l", "ll", "ec", "elc", "ellc"])


@pytest.fixture(scope="module")
def nilpotent_presented():
    pres = parse_presentation(NILPOTENT_JORDAN)
    return present_invariant_ring(pres, 2)


class TestLoopWithLegs:
    def test_generator_mix(self, loop_presented):
        presented = loop_presented
        kinds = [e.kind for _, e in presented.dictionary]
        assert kinds == ["trace", "trace", "contraction", "contraction", "contraction"]
        assert [str(v) for v in presented.elimination_basis.ring.variables] == [
            "tr.l[0,0]", "tr.ll[0,0]", "ec[1,1]", "elc[1,1]", "ellc[1,1]",
        ]

    def test_trace_identity_lies_in_the_elimination_ideal(self, loop_presented):
        # for a 2x2 matrix L: L^2 = tr(L) L - det(L) I with
        # det(L) = (tr(L)^2 - tr(L^2))/2, so contracting e ... c gives
        # e L L c - tr(L) e L c + det(L) e c = 0 identically
        ring = loop_presented.elimination_basis.ring
        identity = ring.parse(
            "ellc[1,1] - tr.l[0,0]*elc[1,1]"
            " + 1/2 tr.l[0,0]^2 ec[1,1] - 1/2 tr.ll[0,0]*ec[1,1]"
        )
        assert loop_presented.elimination_basis.reduces_to_zero(identity)

    def test_generators_satisfy_no_linear_relation(self, loop_presented):
        ring = loop_presented.elimination_basis.ring
        gb = loop_presented.elimination_basis
        assert not gb.reduces_to_zero(ring.parse("ec[1,1]"))
        assert not gb.reduces_to_zero(ring.parse("tr.l[0,0]"))

    def test_framed_correspondence_through_the_loop(self):
        # a nontrivial middle path inside the frozen set: the framed cycle
        # through infinity must evaluate to the contraction of e l c
        from quivinv import eval_poly, framed_correspondence, path_from_word, random_rep
        from quivinv.evaluation import framed_trace

        pres = parse_presentation(LOOP_WITH_LEGS)
        mid = path_from_word(pres.quiver, "l")
        cycle, poly = framed_correspondence(pres, "c", mid, "e", 1, 1)
        assert cycle.arrows == ("c_col1", "l", "e_row1")
        elc = path_from_word(pres.quiver, "elc")
        from quivinv import contraction_poly

        assert poly == contraction_poly(pres, elc, 1, 1)
        for seed in range(5):
            point = random_rep(pres, seed)
            assert framed_trace(pres, cycle, point) == eval_poly(poly, pres, point)


class TestNilpotentJordan:
    def test_trace_of_square_vanishes_on_the_scheme(self, nilpotent_presented):
        # tr(a^2) is the sum of two defining generators, so its fresh name
        # must land in the elimination ideal
        ring = nilpotent_presented.elimination_basis.ring
        gb = nilpotent_presented.elimination_basis
        assert gb.reduces_to_zero(ring.parse("tr.aa[0,0]"))

    def test_trace_itself_does_not(self, nilpotent_presented):
        # the defining ideal is generated in degree two, so no linear
        # polynomial in the traces can restrict to zero
        ring = nilpotent_presented.elimination_basis.ring
        gb = nilpotent_presented.elimination_basis
        assert not gb.reduces_to_zero(ring.parse("tr.a[0,0]"))


class TestLoopVerificationSuite:
    def test_trace_generators_survive_the_full_suite(self):
        # the bundled example has no cycles inside its frozen set, so this is
        # the case that actually exercises invariance of trace generators
        from quivinv import run_verification

        pres = parse_presentation(LOOP_WITH_LEGS)
        report = run_verification(pres, seed=11, max_len=3)
        assert report.passed, [c for c in report.checks if not c.passed]
        by_name = {c.name: c for c in report.checks}
        assert by_name["lusztig_invariance"].trials == 20
        assert by_name["kernel_membership"].trials == 0  # no relations
        assert by_name["kernel_invariance"].trials == 0


class TestReferenceTranscriptionCrossCheck:
    def test_reference_relations_vanish_on_the_scheme(self, a1, a1_presented):
        """Substitute the generator dictionary into each reference relation
        and reduce modulo the scheme ideal: an independent route that never
        touches the fresh-ring bases, so a transcription typo cannot hide."""
        ip = a1_presented
        text = (
            resources.files("quivinv").joinpath("data/paper13.txt").read_text("utf-8")
        )
        ring, fresh = ring_for(a1), ip.elimination_basis.ring
        gb = rep_ideal(a1).groebner_basis()
        lookup = {str(v): e.polynomial for v, e in ip.dictionary}
        lines = [
            line.split("#", 1)[0].strip()
            for line in text.splitlines()
            if line.split("#", 1)[0].strip()
        ]
        assert len(lines) == 13
        for line in lines:
            reference = fresh.parse(line)
            substituted = ring.zero
            for m, coeff in reference.terms:
                term = ring.constant(coeff)
                for idx, exp in enumerate(m):
                    if exp:
                        term = term * lookup[str(fresh.variables[idx])] ** exp
                substituted = substituted + term
            assert gb.reduces_to_zero(substituted), line
