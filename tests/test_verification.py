import gc
import itertools
import random
import weakref
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from quivinv import (
    AlgebraElement,
    ComputeBudget,
    Ideal,
    enumerate_paths,
    kernel_generators,
    parse_presentation,
    path_from_word,
    rep_ideal,
    ring_for,
    run_verification,
    verification,
)
from quivinv.evaluation import CheckResult
from quivinv.groebner import GroebnerBasis


def test_full_suite_passes_on_a1(a1):
    report = run_verification(a1, seed=0)
    names = [c.name for c in report.checks]
    assert names == [
        "product_law",
        "trace_rotation",
        "evaluation_oracle",
        "lusztig_invariance",
        "kernel_invariance",
        "kernel_membership",
        "traversal",
        "lift_independence",
        "framed_correspondence",
        "path_count_oracle",
    ]
    assert report.passed, [c for c in report.checks if not c.passed]


def a1_file_at(dims: str, deformed: bool = False):
    """The bundled A1 file with its [dims] section replaced, relations optionally deformed."""
    text = resources.files("quivinv").joinpath("data", "a1_preprojective.quiver").read_text("utf-8")
    text = text.replace("0 = 2\n1 = 2\n", dims)
    if deformed:
        text = text.replace("f*c - e*d", "f*c - e*d - triv(0)").replace("c*f", "c*f + triv(1)")
    return parse_presentation(text)


# the normal form a flipped coefficient leaves: a truncated basis that reduced
# it wrongly would change this text
MUTATED_WITNESS = {
    "generator": "x[g1;1,1]",
    "normal_form": "-2*x[c;1,1]*x[f;1,1] - 2*x[c;2,1]*x[f;1,2]",
}


def assert_only_membership_fails_with_the_pinned_witness(report):
    assert not report.passed
    failing = {c.name: c for c in report.checks if not c.passed}
    assert set(failing) == {"kernel_membership"}
    assert failing["kernel_membership"].witness == MUTATED_WITNESS


def test_mutated_relation_fails_membership_with_witness():
    report = run_verification(a1_file_at("0 = 2\n1 = 2\n"), seed=0, mutate=True)
    assert_only_membership_fails_with_the_pinned_witness(report)


def test_mutated_relation_at_dims_3_2_fails_membership_with_witness():
    report = run_verification(a1_file_at("0 = 3\n1 = 2\n"), seed=2, mutate=True)
    assert_only_membership_fails_with_the_pinned_witness(report)


def test_rep_ideal_basis_work_at_dims_3_2_is_pinned():
    # verify's basis of the representation ideal at dims (3,2), complete and
    # through degree 6, the degree verify reduces at its default bounds
    ideal = rep_ideal(a1_file_at("0 = 3\n1 = 2\n"))
    full_budget, bounded_budget = ComputeBudget(), ComputeBudget()
    full = ideal.groebner_basis(budget=full_budget)
    bounded = ideal.groebner_basis(budget=bounded_budget, max_degree=6)
    assert (full_budget.pairs_used, full_budget.steps_used, len(full)) == (1545, 30026, 192)
    assert (bounded_budget.pairs_used, bounded_budget.steps_used, len(bounded)) == (
        1047, 12948, 185
    )
    assert bounded.polys == tuple(p for p in full.polys if p.total_degree <= 6)


@pytest.mark.parametrize(
    "dims, deformed, max_u, max_w, degree",
    [
        # the kernel generators (degree 8) lie above the lift check's degree 6;
        # every cycle of the A1 quiver has even length, so no bounds give 7
        ("0 = 1\n1 = 2\n", False, 4, 2, 8),
        # the deformed relations give an inhomogeneous ideal: the bound is ignored
        ("0 = 2\n1 = 2\n", True, 1, 1, 6),
    ],
    ids=["kernel-degree-8", "deformed"],
)
def test_degree_bound_leaves_the_report_unchanged(dims, deformed, max_u, max_w, degree, monkeypatch):
    pres = a1_file_at(dims, deformed)
    kernel = kernel_generators(pres, max_u, max_w)
    assert verification._normal_form_degree(pres, kernel) == degree
    bounded = run_verification(pres, seed=1, max_u=max_u, max_w=max_w)
    monkeypatch.setattr(verification, "_normal_form_degree", lambda pres, kernel: None)
    assert run_verification(pres, seed=1, max_u=max_u, max_w=max_w) == bounded


def test_same_seed_same_report(a1):
    # dataclass equality: seed, bounds, and every check with its witness
    assert run_verification(a1, seed=7) == run_verification(a1, seed=7)


def test_arrowless_quiver_passes_vacuously():
    pres = parse_presentation("[vertices] 0\n[arrows]\n[dims]\n0 = 2\n[K] 0\n")
    report = run_verification(pres, seed=3)
    assert report.passed
    trials = {c.name: c.trials for c in report.checks}
    assert trials["product_law"] == 0 and trials["traversal"] == 0
    assert trials["lusztig_invariance"] == 0 and trials["kernel_invariance"] == 0


def test_failed_checks_report_the_trials_done(a1, monkeypatch):
    # paths contract to 1 and algebra elements to 0: the product law and
    # lift independence both fail on their first trial
    ring = ring_for(a1)

    def broken(pres, g, i, j):
        return ring.zero if isinstance(g, AlgebraElement) else ring.one

    def broken_matrix(pres, g):
        return ((broken(pres, g, 1, 1),) * pres.dims[g.tail],) * pres.dims[g.head]

    monkeypatch.setattr(verification, "contraction_poly", broken)
    monkeypatch.setattr(verification, "element_matrix", broken_matrix)
    rng = random.Random(0)
    gb = rep_ideal(a1).groebner_basis()
    pool = enumerate_paths(a1.quiver, a1.quiver.vertices, a1.quiver.vertices, 4)
    product = CheckResult.of("product_law", verification._product_law(a1, pool, rng, 50), 50)
    lift = CheckResult.of("lift", verification._lift_independence(a1, pool, rng, 30, gb, None), 30)
    assert (product.passed, product.trials) == (False, 1)
    assert (lift.passed, lift.trials) == (False, 1)


def test_product_law_compares_coefficients_not_only_monomials(a1, monkeypatch):
    # each composite's entries keep their monomials, but their first coefficient doubles
    composites = set()
    real_compose, real_contraction = verification.compose, verification.contraction_poly

    def compose(q, p):
        qp = real_compose(q, p)
        composites.add(qp)
        return qp

    def doubled(pres, path, i, j):
        f = real_contraction(pres, path, i, j)
        if path not in composites or f.is_zero:
            return f
        (m, c), *rest = f.terms
        return f.ring.polynomial([(m, 2 * c), *rest])

    monkeypatch.setattr(verification, "compose", compose)
    monkeypatch.setattr(verification, "contraction_poly", doubled)
    pool = enumerate_paths(a1.quiver, a1.quiver.vertices, a1.quiver.vertices, 4)
    check = verification._product_law(a1, pool, random.Random(0), 50)
    product = CheckResult.of("product_law", check, 50)
    assert (product.passed, product.trials) == (False, 1)


def test_more_failed_checks_report_the_trials_done(a1, monkeypatch):
    # one pooled path, through every arrow; traces differ between rotations,
    # evaluation never matches, and every contraction is 1, which lies in no
    # arrow's entry ideal: all three checks fail on their first trial
    ring = ring_for(a1)
    traces = itertools.count()
    pool = [path_from_word(a1.quiver, "fdec")]
    monkeypatch.setattr(verification, "trace_poly", lambda pres, p: ring.constant(next(traces)))
    monkeypatch.setattr(verification, "eval_poly", lambda poly, pres, point: None)
    monkeypatch.setattr(verification, "contraction_poly", lambda pres, p, i, j: ring.one)
    rng = random.Random(0)
    rotation = CheckResult.of("rotation", verification._trace_rotation(a1, pool, rng), 50)
    oracle = CheckResult.of("oracle", verification._evaluation_oracle(a1, pool, rng), 30)
    traversal = CheckResult.of("traversal", verification._traversal(a1, pool, rng), 30)
    assert (rotation.passed, rotation.trials) == (False, 1)
    assert (oracle.passed, oracle.trials) == (False, 1)
    assert (traversal.passed, traversal.trials) == (False, 1)


def test_kernel_membership_reports_the_generators_checked(a1, monkeypatch):
    # no generator reduces to zero, so the check fails on the first one
    kernel = kernel_generators(a1, 1, 1)
    gb = rep_ideal(a1).groebner_basis()
    monkeypatch.setattr(GroebnerBasis, "normal_form", lambda self, f, budget=None: f)
    result = CheckResult.of("membership", verification._kernel_membership(gb, kernel, None))
    assert len(kernel) > 1
    assert (result.passed, result.trials) == (False, 1)
    assert result.witness == {
        "generator": kernel[0].label, "normal_form": str(kernel[0].polynomial)
    }


def test_path_counts_report_the_quivers_checked(monkeypatch):
    # no path is ever found, so the first random quiver's arrows disagree
    monkeypatch.setattr(verification, "enumerate_paths", lambda *args: [])
    result = CheckResult.of("counts", verification._path_count_oracle(random.Random(0)), 5)
    assert (result.passed, result.trials) == (False, 1)


small_terms = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 4), st.integers(-3, 3).filter(bool)), max_size=4
)


@given(small_terms, st.sets(st.integers(0, 3)))
def test_variable_ideal_membership_matches_the_engine(terms, chosen):
    # the exponent rule the traversal check uses, against a Groebner basis
    ring = ring_for(parse_presentation("[vertices] 0\n[arrows]\na: 0 -> 0\n[dims]\n0 = 2\n"))
    f = ring.polynomial((m, Fraction(c)) for m, c in terms)
    engine = Ideal(ring, [ring.var(x) for x in chosen]).groebner_basis().reduces_to_zero(f)
    assert verification._in_variable_ideal(f, sorted(chosen)) == engine


def test_no_basis_outlives_a_run(a1, monkeypatch):
    built = []
    build = Ideal.groebner_basis

    def recording(self, *args, **kwargs):
        gb = build(self, *args, **kwargs)
        built.append(weakref.ref(gb))
        return gb

    monkeypatch.setattr(Ideal, "groebner_basis", recording)
    run_verification(a1, seed=0)
    gc.collect()
    assert built and [ref() for ref in built] == [None] * len(built)


outcome_lists = st.lists(st.one_of(st.none(), st.dictionaries(st.text(), st.integers())))


@given(outcome_lists, st.one_of(st.none(), st.integers(0, 10)))
def test_runner_reports_the_first_witness_and_the_outcomes_consumed(outcomes, cap):
    seen = outcomes[:cap]
    result = CheckResult.of("c", iter(outcomes), cap)
    first = next((k for k, w in enumerate(seen) if w is not None), None)
    if first is None:
        assert (result.passed, result.trials, result.witness) == (True, len(seen), None)
    else:
        assert (result.passed, result.trials) == (False, first + 1)
        assert result.witness is seen[first]


@given(st.integers(0, 50))
def test_runner_resumes_an_endless_check_once_per_trial_up_to_its_cap(cap):
    resumed = 0

    def endless():
        nonlocal resumed
        while True:
            resumed += 1
            yield None

    result = CheckResult.of("c", endless(), cap)
    assert (result.passed, result.trials, resumed) == (True, cap, cap)


def test_runner_with_no_outcomes_passes_with_no_trials():
    assert CheckResult.of("c", iter(())) == CheckResult("c", 0, True)
