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
from functools import lru_cache
from typing import Optional, Sequence, Union

from .groebner import Ideal
from .polyring import Polynomial, PolynomialRing, arrow_var
from .quiver import (
    AlgebraElement,
    Path,
    Presentation,
    QuiverError,
    compose,
    enumerate_cycles_in_k,
    enumerate_paths,
    framed_quiver,
    path_from_arrows,
)

Source = Union[Path, AlgebraElement]


@lru_cache(maxsize=None)
def ring_for(pres: Presentation) -> PolynomialRing:
    """Coordinate ring: one variable per arrow and matrix entry, ordered by
    arrow declaration then row-major indices."""
    variables = []
    v = pres.dims
    for a in pres.quiver.arrows:
        for i in range(1, v[a.head] + 1):
            for j in range(1, v[a.tail] + 1):
                variables.append(arrow_var(a.name, i, j))
    return PolynomialRing(variables)


Matrix = tuple[tuple[Polynomial, ...], ...]


def _arrow_matrix(pres: Presentation, name: str) -> Matrix:
    ring = ring_for(pres)
    a = pres.quiver.arrow(name)
    v = pres.dims
    return tuple(
        tuple(ring.var(arrow_var(name, i, j)) for j in range(1, v[a.tail] + 1))
        for i in range(1, v[a.head] + 1)
    )


def _identity_matrix(pres: Presentation, n: int) -> Matrix:
    ring = ring_for(pres)
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)
    )


def _mat_mul(
    left: Matrix, right: Matrix, ring: PolynomialRing, rows: int, inner: int, cols: int
) -> Matrix:
    # explicit shape: empty matrices cannot carry their column count
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = ring.zero
            for k in range(inner):
                acc = acc + left[i][k] * right[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=None)
def path_matrix(pres: Presentation, path: Path) -> Matrix:
    """Symbolic matrix of the product along a path (rows v_head, cols v_tail)."""
    ring = ring_for(pres)
    v = pres.dims
    if path.is_trivial:
        return _identity_matrix(pres, v[path.tail])
    if len(path) == 1:
        return _arrow_matrix(pres, path.arrows[0])
    mid_vertex = pres.quiver.arrow(path.arrows[-2]).head
    prefix = Path(path.arrows[:-1], path.tail, mid_vertex)
    last = _arrow_matrix(pres, path.arrows[-1])
    return _mat_mul(
        last,
        path_matrix(pres, prefix),
        ring,
        v[path.head],
        v[mid_vertex],
        v[path.tail],
    )


def element_matrix(pres: Presentation, g: Source) -> Matrix:
    """Linear extension of the path matrix to algebra elements."""
    if isinstance(g, Path):
        return path_matrix(pres, g)
    ring = ring_for(pres)
    v = pres.dims
    rows, cols = v[g.head], v[g.tail]
    acc = [[ring.zero for _ in range(cols)] for _ in range(rows)]
    for p, coef in g.terms:
        m = path_matrix(pres, p)
        for i in range(rows):
            for j in range(cols):
                acc[i][j] = acc[i][j] + m[i][j] * coef
    return tuple(tuple(row) for row in acc)


def contraction_poly(pres: Presentation, g: Source, i: int, j: int) -> Polynomial:
    """The (i,j) entry of the symbolic matrix along g (1-based indices).

    A trivial path contributes the Kronecker delta; a sum over an empty
    internal index range is zero.
    """
    v = pres.dims
    head = g.head
    tail = g.tail
    if not (1 <= i <= v[head] and 1 <= j <= v[tail]):
        raise QuiverError(
            f"index out of range: ({i},{j}) for shape {v[head]}x{v[tail]}"
        )
    return element_matrix(pres, g)[i - 1][j - 1]


def trace_poly(pres: Presentation, g: Source) -> Polynomial:
    """Symbolic trace along a cycle or cyclic element; trivial path traces to
    the constant dimension of its vertex."""
    if g.head != g.tail:
        raise QuiverError(f"trace needs head = tail, got {g.tail} -> {g.head}")
    ring = ring_for(pres)
    m = element_matrix(pres, g)
    acc = ring.zero
    for k in range(len(m)):
        acc = acc + m[k][k]
    return acc


# -- generator enumeration ----------------------------------------------------


@dataclass(frozen=True)
class GeneratorEntry:
    label: str
    kind: str  # "trace" | "contraction"
    word: str
    source: Path
    i: int
    j: int
    polynomial: Polynomial

    def to_jsonable(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "word": self.word,
            "i": self.i,
            "j": self.j,
            "polynomial": str(self.polynomial),
        }


@dataclass(frozen=True)
class GeneratorSet:
    entries: tuple[GeneratorEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_jsonable(self) -> list[dict]:
        return [e.to_jsonable() for e in self.entries]


def _apply_selection(
    entries: list[GeneratorEntry], select: Optional[Sequence[Union[Path, str]]]
) -> list[GeneratorEntry]:
    if select is None:
        return entries
    wanted = [s.word if isinstance(s, Path) else s for s in select]
    present = {e.word for e in entries}
    missing = [w for w in wanted if w not in present]
    if missing:
        raise QuiverError(f"selection matches no generator: {missing}")
    wanted_set = set(wanted)
    return [e for e in entries if e.word in wanted_set]


def lusztig_generators(
    pres: Presentation,
    max_len: int,
    select: Optional[Sequence[Union[Path, str]]] = None,
) -> GeneratorSet:
    """Invariant-ring generators up to the length bound.

    Emits trace entries for rotation-canonical cycles traversing only arrows
    with both endpoints frozen, then contraction entries (row-major index
    pairs) for paths with both endpoints unfrozen.  Constant and zero
    polynomials are skipped; an optional selection keeps only listed words.
    """
    if max_len < 1:
        raise QuiverError("max_len must be >= 1")
    q = pres.quiver
    v = pres.dims
    K = pres.frozen_vertices
    Kc = pres.unfrozen_vertices
    entries: list[GeneratorEntry] = []
    for cyc in enumerate_cycles_in_k(q, K, max_len):
        poly = trace_poly(pres, cyc)
        if poly.is_zero or poly.total_degree == 0:
            continue
        entries.append(GeneratorEntry(f"tr[{cyc.word}]", "trace", cyc.word, cyc, 0, 0, poly))
    for path in enumerate_paths(q, Kc, Kc, max_len):
        mat = path_matrix(pres, path)
        for i in range(1, v[path.head] + 1):
            for j in range(1, v[path.tail] + 1):
                poly = mat[i - 1][j - 1]
                if poly.is_zero or poly.total_degree == 0:
                    continue
                entries.append(
                    GeneratorEntry(
                        f"x[{path.word};{i},{j}]", "contraction", path.word, path, i, j, poly
                    )
                )
    labels = [e.label for e in entries]
    if len(set(labels)) != len(labels):
        # happens when an arrow name spells a composite word, e.g. arrow "ec"
        # next to arrows "e" and "c"
        raise QuiverError("generator labels collide; rename arrows")
    return GeneratorSet(tuple(_apply_selection(entries, select)))


@lru_cache(maxsize=None)
def rep_ideal(pres: Presentation) -> Ideal:
    """Ideal cutting out the representation scheme: all contraction
    polynomials of the relations, in declaration then row-major order."""
    ring = ring_for(pres)
    v = pres.dims
    gens: list[Polynomial] = []
    for rel in pres.relations:
        g = rel.element
        mat = element_matrix(pres, g)
        for i in range(1, v[g.head] + 1):
            for j in range(1, v[g.tail] + 1):
                gens.append(mat[i - 1][j - 1])
    return Ideal(ring, gens)


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
    alpha = fq.added_arrow(b, j)
    beta = fq.added_arrow(c, i)
    framed_cycle = Path((alpha,) + mid.arrows + (beta,), fq.infinity, fq.infinity)
    p = compose(path_from_arrows(q, [c]), compose(mid, path_from_arrows(q, [b])))
    return framed_cycle, contraction_poly(pres, p, i, j)
