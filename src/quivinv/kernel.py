"""Kernel generators of the restriction map and invariant-ring presentations.

The kernel of restriction to the representation scheme is generated, inside
the invariant ring, by traces of cycles through one relation and contractions
of paths through one relation.  Both are enumerated as sandwiches u*g*w with
bounded outer path lengths.  A presentation of the invariant ring is obtained
by naming each enumerated generator with a fresh variable and eliminating the
arrow variables from the combined ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .groebner import ComputeBudget, GroebnerBasis, Ideal, eliminate
from .invariants import (
    GeneratorEntry,
    invariant_functions,
    lusztig_generators,
    rep_ideal,
    ring_for,
)
from .polyring import Polynomial, PolynomialRing, RingError, Variable, fresh_var
from .quiver import (
    Path,
    Presentation,
    QuiverError,
    compose,
    enumerate_paths,
    sandwich,
)


class NotExpressibleError(ValueError):
    """A polynomial could not be rewritten in the chosen generators."""


@dataclass(frozen=True)
class KernelGenerator:
    label: str
    kind: str  # "trace" | "contraction"
    u: Path
    relation: str
    w: Path
    i: int
    j: int
    polynomial: Polynomial


def _sandwich_word(u: Path, relation: str, w: Path) -> str:
    parts = []
    if not u.is_trivial:
        parts.append(u.word)
    parts.append(relation)
    if not w.is_trivial:
        parts.append(w.word)
    return "*".join(parts)


def kernel_generators(
    pres: Presentation, max_u: int, max_w: int
) -> tuple[KernelGenerator, ...]:
    """Sandwiches u*g_k*w with |u| <= max_u, |w| <= max_w (trivial allowed).

    A sandwich whose endpoints agree at a frozen vertex yields a trace
    generator (one per rotation class of the outer cycle); a sandwich with
    both endpoints unfrozen yields contraction generators for all index
    pairs.  Zero polynomials are dropped.  Words through two or more relation
    factors are omitted: they are ideal combinations of the single-relation
    sandwiches listed here.
    """
    if max_u < 0 or max_w < 0:
        raise QuiverError("sandwich bounds must be >= 0")
    q = pres.quiver
    K = pres.frozen_vertices
    out: list[KernelGenerator] = []
    seen_traces: set[tuple[int, tuple[str, ...]]] = set()
    for k, rel in enumerate(pres.relations):
        g = rel.element
        us = enumerate_paths(q, {g.head}, q.vertices, max_u, include_trivial=True)
        ws = enumerate_paths(q, q.vertices, {g.tail}, max_w, include_trivial=True)
        for u in us:
            for w in ws:
                if u.head == w.tail and u.head in K:
                    dedup = (k, compose(w, u).arrows)  # the cycle with the relation cut out
                    if dedup in seen_traces:
                        continue
                    seen_traces.add(dedup)
                out.extend(
                    KernelGenerator(label, kind, u, rel.name, w, i, j, poly)
                    for label, kind, i, j, poly in invariant_functions(
                        pres, sandwich(q, u, g, w), _sandwich_word(u, rel.name, w)
                    )
                )
    return tuple(out)


# -- invariant-ring presentation ----------------------------------------------


@dataclass
class InvariantPresentation:
    """Fresh variables for the chosen generators, the combined defining ideal,
    its basis with the arrow variables eliminated first, and the reduced basis
    of the elimination ideal expressing all relations among the generators."""

    dictionary: tuple[tuple[Variable, GeneratorEntry], ...]
    defining_ideal: Ideal
    basis: GroebnerBasis
    elimination_basis: GroebnerBasis


def _fresh_variable(entry: GeneratorEntry) -> Variable:
    label = entry.word.replace("*", ".")
    if entry.kind == "trace":
        return fresh_var(f"tr.{label}", 0, 0)
    return fresh_var(label, entry.i, entry.j)


def present_invariant_ring(
    pres: Presentation,
    max_len: int,
    select: Optional[Sequence[str]] = None,
    budget: Optional[ComputeBudget] = None,
) -> InvariantPresentation:
    """Present the invariant ring on the generators up to the length bound.

    Builds the ideal (fresh variable - generator polynomial) plus the
    representation ideal in the combined ring, then eliminates every arrow
    variable.  The result is the ideal of relations among the chosen
    generators, valid on the representation scheme.
    """
    gens = lusztig_generators(pres, max_len, select)
    arrow_ring = ring_for(pres)
    fresh_vars = [_fresh_variable(e) for e in gens.entries]
    if len(set(fresh_vars)) != len(fresh_vars):
        raise QuiverError("fresh variable labels collide; rename arrows")
    combined = PolynomialRing(arrow_ring.variables + tuple(fresh_vars))
    dictionary = tuple(zip(fresh_vars, gens.entries))
    defining = [combined.var(var) - e.polynomial.to_ring(combined) for var, e in dictionary]
    defining += [g.to_ring(combined) for g in rep_ideal(pres).generators]
    defining_ideal = Ideal(combined, defining)
    basis = defining_ideal.groebner_basis(frozenset(range(arrow_ring.nvars)), budget)
    return InvariantPresentation(dictionary, defining_ideal, basis, eliminate(basis))


def rewrite_in_generators(
    f: Polynomial,
    presentation: InvariantPresentation,
    budget: Optional[ComputeBudget] = None,
) -> Polynomial:
    """Express an arrow-variable polynomial in the chosen generators.

    Reduces modulo ``presentation.basis``, the basis
    :func:`present_invariant_ring` computed with the arrow variables in
    front, and builds no basis of its own; succeeds when the normal form
    involves fresh variables only (the identity then holds modulo the
    representation ideal), and raises :class:`NotExpressibleError` otherwise.
    """
    ip = presentation
    f = f.to_ring(ip.basis.ring)
    nf = ip.basis.normal_form(f, budget)
    try:
        return nf.to_ring(ip.elimination_basis.ring)
    except RingError:
        raise NotExpressibleError(
            f"not expressible at this bound: {f} reduces to {nf}"
        ) from None
