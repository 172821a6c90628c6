"""Seeded verification suite tying the symbolic layer to matrix arithmetic.

Each check is exact: a pass means literal equality held on every trial, a
failure carries the first witness found.  The suite is deterministic in the
seed and is surfaced through the CLI ``verify`` subcommand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .evaluation import (
    CheckResult,
    check_invariance,
    eval_poly,
    framed_trace,
    mat_trace,
    path_product,
    random_rep,
)
from .groebner import ComputeBudget, Ideal
from .invariants import (
    contraction_poly,
    element_matrix,
    framed_correspondence,
    lusztig_generators,
    rep_ideal,
    ring_for,
    trace_poly,
)
from .kernel import kernel_generators
from .polyring import arrow_var
from .quiver import (
    Arrow,
    Presentation,
    Quiver,
    Relation,
    algebra_element,
    compose,
    element_of_path,
    enumerate_paths,
    rotations,
    sandwich,
    trivial_path,
)


def _mutated(pres: Presentation) -> Presentation:
    """Flip the sign of the first coefficient of the first relation."""
    if not pres.relations:
        return pres
    rel = pres.relations[0]
    (p0, c0), *rest = rel.element.terms
    element = algebra_element(
        pres.quiver, rel.element.head, rel.element.tail, [(p0, -c0)] + rest
    )
    mutated = Relation(rel.name, element)
    return Presentation(
        pres.quiver, pres.dims, pres.frozen_vertices, (mutated,) + pres.relations[1:]
    )


def _path_pool(pres: Presentation, max_len: int = 4):
    q = pres.quiver
    return enumerate_paths(q, q.vertices, q.vertices, max_len)


def _check_product_law(pres: Presentation, rng: random.Random, trials: int) -> CheckResult:
    """Contraction of a composite equals the matrix-product sum of contractions."""
    v = pres.dims
    pool = _path_pool(pres, 3)
    if not pool:
        return CheckResult("product_law", 0, True)
    done = 0
    for _ in range(trials * 4):
        if done >= trials:
            break
        p = rng.choice(pool)
        continuations = [qq for qq in pool if qq.tail == p.head]
        if not continuations:
            continue
        q = rng.choice(continuations)
        qp = compose(q, p)
        done += 1
        for i in range(1, v[qp.head] + 1):
            for j in range(1, v[qp.tail] + 1):
                lhs = contraction_poly(pres, qp, i, j)
                rhs = ring_for(pres).polynomial(
                    t
                    for k in range(1, v[p.head] + 1)
                    for t in (
                        contraction_poly(pres, q, i, k) * contraction_poly(pres, p, k, j)
                    ).terms
                )
                if lhs != rhs:
                    return CheckResult(
                        "product_law",
                        done,
                        False,
                        {"q": q.word, "p": p.word, "i": i, "j": j},
                    )
    return CheckResult("product_law", done, True)


def _check_trace_rotation(pres: Presentation, rng: random.Random, trials: int) -> CheckResult:
    cycles = [p for p in _path_pool(pres, 4) if p.is_cycle]
    if not cycles:
        return CheckResult("trace_rotation", 0, True)
    for trial in range(trials):
        gamma = rng.choice(cycles)
        base = trace_poly(pres, gamma)
        for rot in rotations(gamma, pres.quiver):
            if trace_poly(pres, rot) != base:
                return CheckResult(
                    "trace_rotation", trial + 1, False, {"cycle": gamma.word, "rotation": rot.word}
                )
    return CheckResult("trace_rotation", trials, True)


def _check_eval_oracle(pres: Presentation, rng: random.Random, trials: int) -> CheckResult:
    """Symbolic-then-evaluate equals multiply-matrices-then-read."""
    v = pres.dims
    pool = _path_pool(pres, 4)
    if not pool:
        return CheckResult("evaluation_oracle", 0, True)
    for trial in range(trials):
        p = rng.choice(pool)
        point = random_rep(pres, rng.randrange(2**31))
        product = path_product(pres, point, p)
        for i in range(1, v[p.head] + 1):
            for j in range(1, v[p.tail] + 1):
                symb = eval_poly(contraction_poly(pres, p, i, j), pres, point)
                if symb != product[i - 1][j - 1]:
                    return CheckResult(
                        "evaluation_oracle", trial + 1, False, {"path": p.word, "i": i, "j": j}
                    )
        if p.is_cycle:
            if eval_poly(trace_poly(pres, p), pres, point) != mat_trace(product):
                return CheckResult(
                    "evaluation_oracle", trial + 1, False, {"path": p.word, "kind": "trace"}
                )
    return CheckResult("evaluation_oracle", trials, True)


def _check_kernel_membership(
    pres: Presentation, kernel, budget: Optional[ComputeBudget]
) -> CheckResult:
    """Every kernel generator reduces to zero modulo the representation ideal
    of ``pres``."""
    gb = rep_ideal(pres).groebner_basis(budget=budget)
    for n, gen in enumerate(kernel, 1):
        if not gb.reduces_to_zero(gen.polynomial, budget):
            return CheckResult(
                "kernel_membership",
                n,
                False,
                {"generator": gen.label, "normal_form": str(gb.normal_form(gen.polynomial))},
            )
    return CheckResult("kernel_membership", len(kernel), True)


def _check_traversal(
    pres: Presentation, rng: random.Random, trials: int, budget: Optional[ComputeBudget]
) -> CheckResult:
    """A contraction lies in an arrow's entry ideal iff the path uses the arrow.

    A zero contraction, from a path through a zero-dimensional vertex, lies in
    every ideal.
    """
    ring = ring_for(pres)
    v = pres.dims
    pool = _path_pool(pres, 4)
    arrows = pres.quiver.arrows
    if not pool or not arrows:
        return CheckResult("traversal", 0, True)
    ideals = {}
    for trial in range(trials):
        p = rng.choice(pool)
        a = arrows[rng.randrange(len(arrows))]
        if a.name not in ideals:
            gens = [
                ring.var(arrow_var(a.name, i, j))
                for i in range(1, v[a.head] + 1)
                for j in range(1, v[a.tail] + 1)
            ]
            ideals[a.name] = Ideal(ring, gens).groebner_basis(budget=budget)
        gb = ideals[a.name]
        traverses = a.name in p.arrows
        for i in range(1, v[p.head] + 1):
            for j in range(1, v[p.tail] + 1):
                poly = contraction_poly(pres, p, i, j)
                if gb.reduces_to_zero(poly, budget) != (traverses or poly.is_zero):
                    return CheckResult(
                        "traversal",
                        trial + 1,
                        False,
                        {"path": p.word, "arrow": a.name, "i": i, "j": j},
                    )
    return CheckResult("traversal", trials, True)


def _check_lift_independence(
    pres: Presentation, rng: random.Random, trials: int, budget: Optional[ComputeBudget]
) -> CheckResult:
    """Adding a sandwiched relation to a lift does not change the restriction."""
    if not pres.relations:
        return CheckResult("lift_independence", 0, True)
    q = pres.quiver
    gb = rep_ideal(pres).groebner_basis(budget=budget)
    pool = _path_pool(pres, 2)
    done = 0
    for _ in range(trials * 6):
        if done >= trials:
            break
        rel = pres.relations[rng.randrange(len(pres.relations))]
        g = rel.element
        us = [p for p in pool if p.tail == g.head] + [trivial_path(g.head)]
        ws = [p for p in pool if p.head == g.tail] + [trivial_path(g.tail)]
        u = rng.choice(us)
        w = rng.choice(ws)
        ugw = sandwich(q, u, g, w)
        candidates = [p for p in pool if p.tail == ugw.tail and p.head == ugw.head]
        if not candidates:
            continue
        base = rng.choice(candidates)
        shifted = algebra_element(
            q, ugw.head, ugw.tail, list(element_of_path(base).terms) + list(ugw.terms)
        )
        done += 1
        for lhs_row, rhs_row in zip(element_matrix(pres, shifted), element_matrix(pres, base)):
            for lhs, rhs in zip(lhs_row, rhs_row):
                if gb.normal_form(lhs, budget) != gb.normal_form(rhs, budget):
                    return CheckResult(
                        "lift_independence",
                        done,
                        False,
                        {"relation": rel.name, "u": u.word, "w": w.word, "base": base.word},
                    )
    return CheckResult("lift_independence", done, True)


def _check_framed_correspondence(
    pres: Presentation, rng: random.Random, points: int = 3
) -> CheckResult:
    """Framed trace equals the contraction function at matching points."""
    q = pres.quiver
    v = pres.dims
    K = pres.frozen_vertices
    into = [a for a in q.arrows if a.tail not in K and a.head in K]
    out_of = [a for a in q.arrows if a.tail in K and a.head not in K]
    checked = 0
    for b in into:
        for c in out_of:
            if c.tail != b.head:
                continue
            mid = trivial_path(b.head)
            for i in range(1, v[c.head] + 1):
                for j in range(1, v[b.tail] + 1):
                    framed_cycle, poly = framed_correspondence(pres, b.name, mid, c.name, i, j)
                    for _ in range(points):
                        point = random_rep(pres, rng.randrange(2**31))
                        lhs = framed_trace(pres, framed_cycle, point)
                        rhs = eval_poly(poly, pres, point)
                        checked += 1
                        if lhs != rhs:
                            return CheckResult(
                                "framed_correspondence",
                                checked,
                                False,
                                {"b": b.name, "c": c.name, "i": i, "j": j},
                            )
    return CheckResult("framed_correspondence", checked, True)


def _random_quiver(rng: random.Random) -> Quiver:
    nv = rng.randint(2, 4)
    vertices = tuple(f"v{i}" for i in range(nv))
    na = rng.randint(3, 6)
    arrows = tuple(
        Arrow(f"a{k}", vertices[rng.randrange(nv)], vertices[rng.randrange(nv)])
        for k in range(na)
    )
    return Quiver(vertices, arrows)


def _check_path_counts(rng: random.Random, quivers: int = 5, max_len: int = 5) -> CheckResult:
    """Path counts per endpoint pair match powers of the arrow-count matrix."""
    for checked in range(1, quivers + 1):
        q = _random_quiver(rng)
        n = len(q.vertices)
        idx = {v: k for k, v in enumerate(q.vertices)}
        adj = [[0] * n for _ in range(n)]
        for a in q.arrows:
            adj[idx[a.head]][idx[a.tail]] += 1
        counts: dict[tuple[str, str, int], int] = {}
        for s in q.vertices:
            for p in enumerate_paths(q, {s}, q.vertices, max_len):
                key = (s, p.head, len(p))
                counts[key] = counts.get(key, 0) + 1
        power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for length in range(1, max_len + 1):
            power = [
                [sum(adj[i][k] * power[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            for s in q.vertices:
                for t in q.vertices:
                    found = counts.get((s, t, length), 0)
                    if found != power[idx[t]][idx[s]]:
                        return CheckResult(
                            "path_count_oracle",
                            checked,
                            False,
                            {"from": s, "to": t, "length": length, "count": found},
                        )
    return CheckResult("path_count_oracle", quivers, True)


@dataclass
class VerificationReport:
    seed: int
    bounds: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "bounds": self.bounds,
            "checks": [c.to_jsonable() for c in self.checks],
            "pass": self.passed,
        }


def run_verification(
    pres: Presentation,
    seed: int = 0,
    max_len: int = 2,
    max_u: int = 1,
    max_w: int = 1,
    budget: Optional[ComputeBudget] = None,
    mutate: bool = False,
) -> VerificationReport:
    """Run every property check at the given seed and bounds.

    With ``mutate`` set, the kernel generators are built from a presentation
    with one flipped coefficient while membership is still checked against
    the original ideal; the membership check must then fail with a witness.
    """
    report = VerificationReport(
        seed=seed,
        bounds={"max_len": max_len, "max_u": max_u, "max_w": max_w, "mutate": mutate},
    )
    rng = random.Random(seed)
    gen_pres = _mutated(pres) if mutate else pres
    report.checks.append(_check_product_law(pres, rng, 50))
    report.checks.append(_check_trace_rotation(pres, rng, 50))
    report.checks.append(_check_eval_oracle(pres, rng, 30))
    lusztig = lusztig_generators(pres, max_len) if max_len >= 1 else []
    entries = [(e.label, e.polynomial) for e in lusztig]
    report.checks.append(
        check_invariance(entries, pres, 20, rng.randrange(2**31), "lusztig_invariance")
    )
    kernel = kernel_generators(gen_pres, max_u, max_w)
    entries = [(k.label, k.polynomial) for k in kernel]
    report.checks.append(
        check_invariance(entries, pres, 20, rng.randrange(2**31), "kernel_invariance")
    )
    report.checks.append(_check_kernel_membership(pres, kernel, budget))
    report.checks.append(_check_traversal(pres, rng, 30, budget))
    report.checks.append(_check_lift_independence(pres, rng, 30, budget))
    report.checks.append(_check_framed_correspondence(pres, rng))
    report.checks.append(_check_path_counts(rng))
    return report
