"""Seeded verification suite tying the symbolic layer to matrix arithmetic.

A check is a generator that yields one outcome per trial: ``None`` for a
pass, or a witness dict, and its first witness ends it.  :meth:`CheckResult.of`
runs it and reports the outcomes consumed as its trials; a check that draws
random trials draws until the runner's cap stops it.  Each check is exact: a
pass means literal equality held on every trial.  The suite is deterministic
in the seed and is surfaced through the CLI ``verify`` subcommand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import add
from typing import Optional

from .evaluation import (
    CheckResult,
    check_invariance,
    eval_poly,
    framed_trace,
    identity_matrix,
    mat_mul,
    mat_trace,
    path_product,
    random_rep,
)
from .groebner import ComputeBudget, GroebnerBasis, Ideal
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


def _product_law(pres: Presentation, rng: random.Random, trials: int):
    """Contraction of a composite equals the matrix-product sum of contractions;
    a draw with no continuation is not a trial, and at most ``4 * trials`` are made.
    The right side is summed in a plain {exponents: coefficient} dict, not by ring.polynomial."""
    v = pres.dims
    pool = _path_pool(pres, 3)
    for _ in range(4 * trials if pool else 0):
        p = rng.choice(pool)
        continuations = [qq for qq in pool if qq.tail == p.head]
        if not continuations:
            continue
        q = rng.choice(continuations)
        qp = compose(q, p)
        for i in range(1, v[qp.head] + 1):
            for j in range(1, v[qp.tail] + 1):
                rhs = {}
                for k in range(1, v[p.head] + 1):
                    right = contraction_poly(pres, p, k, j).terms
                    for m1, c1 in contraction_poly(pres, q, i, k).terms:
                        for m2, c2 in right:
                            m = tuple(map(add, m1, m2))
                            rhs[m] = rhs.get(m, 0) + c1 * c2
                rhs = {m: c for m, c in rhs.items() if c}
                if rhs != dict(contraction_poly(pres, qp, i, j).terms):
                    yield {"q": q.word, "p": p.word, "i": i, "j": j}
        yield None


def _trace_rotation(pres: Presentation, rng: random.Random):
    cycles = [p for p in _path_pool(pres, 4) if p.is_cycle]
    while cycles:
        gamma = rng.choice(cycles)
        base = trace_poly(pres, gamma)
        for rot in rotations(gamma, pres.quiver):
            if trace_poly(pres, rot) != base:
                yield {"cycle": gamma.word, "rotation": rot.word}
        yield None


def _evaluation_oracle(pres: Presentation, rng: random.Random):
    """Symbolic-then-evaluate equals multiply-matrices-then-read."""
    v = pres.dims
    pool = _path_pool(pres, 4)
    while pool:
        p = rng.choice(pool)
        point = random_rep(pres, rng.randrange(2**31))
        product = path_product(pres, point, p)
        for i in range(1, v[p.head] + 1):
            for j in range(1, v[p.tail] + 1):
                symb = eval_poly(contraction_poly(pres, p, i, j), pres, point)
                if symb != product[i - 1][j - 1]:
                    yield {"path": p.word, "i": i, "j": j}
        if p.is_cycle and eval_poly(trace_poly(pres, p), pres, point) != mat_trace(product):
            yield {"path": p.word, "kind": "trace"}
        yield None


def _kernel_membership(gb: GroebnerBasis, kernel, budget: Optional[ComputeBudget]):
    """Every kernel generator reduces to zero modulo the representation ideal's basis."""
    for gen in kernel:
        nf = gb.normal_form(gen.polynomial, budget)
        yield None if nf.is_zero else {"generator": gen.label, "normal_form": str(nf)}


def _traversal(pres: Presentation, rng: random.Random, budget: Optional[ComputeBudget]):
    """A contraction lies in an arrow's entry ideal iff the path uses the arrow.

    A zero contraction, from a path through a zero-dimensional vertex, lies in
    every ideal.
    """
    ring = ring_for(pres)
    v = pres.dims
    pool = _path_pool(pres, 4)
    arrows = pres.quiver.arrows
    ideals = {}
    while pool and arrows:
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
                    yield {"path": p.word, "arrow": a.name, "i": i, "j": j}
        yield None


def _lift_independence(
    pres: Presentation,
    rng: random.Random,
    trials: int,
    gb: GroebnerBasis,
    budget: Optional[ComputeBudget],
):
    """Adding a sandwiched relation to a lift does not change the restriction modulo
    the representation ideal's basis ``gb``; a draw with no base path of the
    sandwich's shape is not a trial, and at most ``6 * trials`` are made."""
    q = pres.quiver
    pool = _path_pool(pres, 2)
    for _ in range(6 * trials if pres.relations else 0):
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
        for lhs_row, rhs_row in zip(element_matrix(pres, shifted), element_matrix(pres, base)):
            for lhs, rhs in zip(lhs_row, rhs_row):
                if gb.normal_form(lhs, budget) != gb.normal_form(rhs, budget):
                    yield {"relation": rel.name, "u": u.word, "w": w.word, "base": base.word}
        yield None


def _framed_correspondence(pres: Presentation, rng: random.Random, points: int = 3):
    """Framed trace equals the contraction function, one random point per trial."""
    q = pres.quiver
    v = pres.dims
    K = pres.frozen_vertices
    into = [a for a in q.arrows if a.tail not in K and a.head in K]
    out_of = [a for a in q.arrows if a.tail in K and a.head not in K]
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
                        yield None if lhs == rhs else {"b": b.name, "c": c.name, "i": i, "j": j}


def _random_quiver(rng: random.Random) -> Quiver:
    nv = rng.randint(2, 4)
    vertices = tuple(f"v{i}" for i in range(nv))
    na = rng.randint(3, 6)
    arrows = tuple(
        Arrow(f"a{k}", vertices[rng.randrange(nv)], vertices[rng.randrange(nv)])
        for k in range(na)
    )
    return Quiver(vertices, arrows)


def _path_count_oracle(rng: random.Random, max_len: int = 5):
    """Path counts match powers of the arrow-count matrix, one random quiver per trial."""
    while True:
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
        power = identity_matrix(n)
        for length in range(1, max_len + 1):
            power = mat_mul(adj, power)
            for s in q.vertices:
                for t in q.vertices:
                    found = counts.get((s, t, length), 0)
                    if found != power[idx[t]][idx[s]]:
                        yield {"from": s, "to": t, "length": length, "count": found}
        yield None


@dataclass
class VerificationReport:
    seed: int
    bounds: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


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
    checks = report.checks
    checks.append(CheckResult.of("product_law", _product_law(pres, rng, 50), 50))
    checks.append(CheckResult.of("trace_rotation", _trace_rotation(pres, rng), 50))
    checks.append(CheckResult.of("evaluation_oracle", _evaluation_oracle(pres, rng), 30))
    lusztig = lusztig_generators(pres, max_len) if max_len >= 1 else []
    entries = [(e.label, e.polynomial) for e in lusztig]
    checks.append(check_invariance(entries, pres, 20, rng.randrange(2**31), "lusztig_invariance"))
    kernel = kernel_generators(gen_pres, max_u, max_w)
    entries = [(k.label, k.polynomial) for k in kernel]
    checks.append(check_invariance(entries, pres, 20, rng.randrange(2**31), "kernel_invariance"))
    gb = rep_ideal(pres).groebner_basis(budget=budget)
    checks.append(CheckResult.of("kernel_membership", _kernel_membership(gb, kernel, budget)))
    checks.append(CheckResult.of("traversal", _traversal(pres, rng, budget), 30))
    lift = _lift_independence(pres, rng, 30, gb, budget)
    checks.append(CheckResult.of("lift_independence", lift, 30))
    checks.append(CheckResult.of("framed_correspondence", _framed_correspondence(pres, rng)))
    checks.append(CheckResult.of("path_count_oracle", _path_count_oracle(rng), 5))
    return report
