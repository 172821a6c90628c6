"""Trace and contraction polynomials on a representation space.

The contraction polynomial of a path is the symbolic (i,j) entry of the
product of arrow-variable matrices along the path; the trace polynomial of a
cycle is the symbolic trace.  Both extend linearly to path-algebra elements.
Generator enumeration follows the two-list description of the invariant ring:
traces of cycles inside the frozen set, contractions of paths with both
endpoints outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .groebner import Ideal
from .polyring import Polynomial, PolynomialRing, arrow_var
from .quiver import (
    AlgebraElement,
    Path,
    Presentation,
    QuiverError,
    canonical_rotation,
    compose,
    enumerate_cycles_in_k,
    enumerate_paths,
    framed_quiver,
    path_from_arrows,
    path_from_word,
)

Source = Union[Path, AlgebraElement]


def ring_for(pres: Presentation) -> PolynomialRing:
    """Coordinate ring: one variable per arrow and matrix entry, ordered by
    arrow declaration then row-major indices; built once, in ``pres.derived``."""
    if "ring" not in pres.derived:
        v = pres.dims
        pres.derived["ring"] = PolynomialRing(
            arrow_var(a.name, i, j)
            for a in pres.quiver.arrows
            for i in range(1, v[a.head] + 1)
            for j in range(1, v[a.tail] + 1)
        )
    return pres.derived["ring"]


Matrix = tuple[tuple[Polynomial, ...], ...]


def path_matrix(pres: Presentation, path: Path) -> Matrix:
    """Symbolic matrix of the product along a path (rows v_head, cols v_tail).

    With ``a`` the last arrow and ``rest`` the matrix of the path before it,
    entry (i,j) is the sum over k of x[a;i,k] * rest[k][j]; an empty sum, at a
    zero-dimensional vertex, is zero.  Built once, in ``pres.derived``.
    """
    if (matrix := pres.derived.get(path)) is not None:
        return matrix
    ring = ring_for(pres)
    v = pres.dims
    if path.is_trivial:
        n = v[path.tail]
        matrix = tuple(tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n))
    else:
        a = pres.quiver.arrow(path.arrows[-1])
        rest = path_matrix(pres, Path(path.arrows[:-1], path.tail, a.tail))
        # xs[i][k] is the index of x[a;i+1,k+1]; a term m of rest[k][j] times
        # that variable raises m's exponent there by one
        xs = [
            [ring.index[arrow_var(a.name, i, k)] for k in range(1, v[a.tail] + 1)]
            for i in range(1, v[a.head] + 1)
        ]
        matrix = tuple(
            tuple(
                ring.polynomial(
                    (m[:x] + (m[x] + 1,) + m[x + 1 :], c)
                    for x, rest_row in zip(row, rest)
                    for m, c in rest_row[j].terms
                )
                for j in range(v[path.tail])
            )
            for row in xs
        )
    pres.derived[path] = matrix
    return matrix


def element_matrix(pres: Presentation, g: Source) -> Matrix:
    """Linear extension of the path matrix to algebra elements."""
    if isinstance(g, Path):
        return path_matrix(pres, g)
    ring = ring_for(pres)
    v = pres.dims
    mats = [(path_matrix(pres, p), coef) for p, coef in g.terms]
    return tuple(
        tuple(
            ring.polynomial((m, c * coef) for mat, coef in mats for m, c in mat[i][j].terms)
            for j in range(v[g.tail])
        )
        for i in range(v[g.head])
    )


def contraction_poly(pres: Presentation, g: Source, i: int, j: int) -> Polynomial:
    """The (i,j) entry of the symbolic matrix along g (1-based indices).

    A trivial path contributes the Kronecker delta; a sum over an empty
    internal index range is zero.
    """
    v = pres.dims
    if not (1 <= i <= v[g.head] and 1 <= j <= v[g.tail]):
        raise QuiverError(f"index out of range: ({i},{j}) for shape {v[g.head]}x{v[g.tail]}")
    return element_matrix(pres, g)[i - 1][j - 1]


def trace_poly(pres: Presentation, g: Source) -> Polynomial:
    """Symbolic trace along a cycle or cyclic element; trivial path traces to
    the constant dimension of its vertex."""
    if g.head != g.tail:
        raise QuiverError(f"trace needs head = tail, got {g.tail} -> {g.head}")
    m = element_matrix(pres, g)
    return ring_for(pres).polynomial(t for k in range(len(m)) for t in m[k][k].terms)


# -- generator enumeration ----------------------------------------------------


@dataclass(frozen=True)
class GeneratorEntry:
    label: str
    kind: str  # "trace" | "contraction"
    word: str
    i: int
    j: int
    polynomial: Polynomial


@dataclass(frozen=True)
class GeneratorSet:
    entries: tuple[GeneratorEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _apply_selection(
    pres: Presentation, entries: list[GeneratorEntry], select: Sequence[str]
) -> list[GeneratorEntry]:
    """The entries of the selected words.  A cycle inside the frozen set (all
    heads in K) is selected by any rotation; a word naming no path selects nothing."""
    q, wanted = pres.quiver, []
    for word in select:
        try:
            p = path_from_word(q, word)
        except QuiverError:
            wanted.append(None)
            continue
        if p.is_cycle and p.arrows and {q.arrow(n).head for n in p.arrows} <= pres.frozen_vertices:
            p = canonical_rotation(p, q)  # the rotation enumerate_cycles_in_k emits
        wanted.append(p.word)
    present = {e.word for e in entries}
    missing = [w for w, g in zip(select, wanted) if g not in present]
    if missing:
        raise QuiverError(f"selection matches no generator: {missing}")
    return [e for e in entries if e.word in wanted]


def invariant_functions(
    pres: Presentation, g: Source, word: str
) -> list[tuple[str, str, int, int, Polynomial]]:
    """The nonzero generators of a path or algebra element, as
    ``(label, kind, i, j, polynomial)``: the trace ``tr[word]`` of a cycle at a
    frozen vertex, the row-major entries ``x[word;i,j]`` when neither end is
    frozen, and none when an end is frozen otherwise."""
    K = pres.frozen_vertices
    if g.head == g.tail and g.head in K:
        poly = trace_poly(pres, g)
        return [] if poly.is_zero else [(f"tr[{word}]", "trace", 0, 0, poly)]
    if g.head in K or g.tail in K:
        return []
    return [
        (f"x[{word};{i},{j}]", "contraction", i, j, poly)
        for i, row in enumerate(element_matrix(pres, g), 1)
        for j, poly in enumerate(row, 1)
        if not poly.is_zero
    ]


def lusztig_generators(
    pres: Presentation,
    max_len: int,
    select: Optional[Sequence[str]] = None,
) -> GeneratorSet:
    """Invariant-ring generators up to the length bound.

    Emits trace entries for rotation-canonical cycles traversing only arrows
    with both endpoints frozen, then contraction entries (row-major index
    pairs) for paths with both endpoints unfrozen.  Zero polynomials are
    skipped; an optional selection keeps only the generators of listed words.
    """
    if max_len < 1:
        raise QuiverError("max_len must be >= 1")
    q, K, Kc = pres.quiver, pres.frozen_vertices, pres.unfrozen_vertices
    sources = enumerate_cycles_in_k(q, K, max_len) + enumerate_paths(q, Kc, Kc, max_len)
    entries = [
        GeneratorEntry(label, kind, p.word, i, j, poly)
        for p in sources
        for label, kind, i, j, poly in invariant_functions(pres, p, p.word)
    ]
    labels = [e.label for e in entries]
    if len(set(labels)) != len(labels):
        # happens when an arrow name spells a composite word, e.g. arrow "ec"
        # next to arrows "e" and "c"
        raise QuiverError("generator labels collide; rename arrows")
    return GeneratorSet(tuple(entries if select is None else _apply_selection(pres, entries, select)))


def rep_ideal(pres: Presentation) -> Ideal:
    """Ideal cutting out the representation scheme: all contraction
    polynomials of the relations, in declaration then row-major order."""
    gens = [p for rel in pres.relations for row in element_matrix(pres, rel.element) for p in row]
    return Ideal(ring_for(pres), gens)


def framed_correspondence(
    pres: Presentation,
    b: str,
    mid: Path,
    c: str,
    i: int,
    j: int,
) -> tuple[Path, Polynomial]:
    """The framed cycle through infinity matching one contraction function.

    ``b`` must cross into the frozen set, ``c`` out of it, and ``mid`` must
    run inside it; the returned pair is the cycle (row-arrow o mid o
    column-arrow, based at infinity) and the contraction polynomial of
    c o mid o b at (i, j).  Under the framing identification the trace of the
    former equals the latter.
    """
    q = pres.quiver
    K = pres.frozen_vertices
    v = pres.dims
    ab = q.arrow(b)
    ac = q.arrow(c)
    if ab.tail in K or ab.head not in K:
        raise QuiverError(f"arrow {b} does not cross into the frozen set")
    if ac.tail not in K or ac.head in K:
        raise QuiverError(f"arrow {c} does not cross out of the frozen set")
    for name in mid.arrows:
        arr = q.arrow(name)
        if arr.tail not in K or arr.head not in K:
            raise QuiverError(f"mid path leaves the frozen set at {name}")
    if mid.tail != ab.head or mid.head != ac.tail:
        raise QuiverError("mid path does not connect the crossing arrows")
    if not (1 <= i <= v[ac.head] and 1 <= j <= v[ab.tail]):
        raise QuiverError("framed indices out of range")
    fq = framed_quiver(pres)
    added = {source: name for name, source in fq.provenance.items()}
    framed_cycle = Path((added[b, j],) + mid.arrows + (added[c, i],), fq.infinity, fq.infinity)
    p = compose(path_from_arrows(q, [c]), compose(mid, path_from_arrows(q, [b])))
    return framed_cycle, contraction_poly(pres, p, i, j)
