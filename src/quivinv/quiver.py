"""Quivers, dimension vectors, paths, and path-algebra elements.

Conventions: a path written ``f*c`` applies ``c`` first and ``f`` second, so
internally arrows are stored in traversal order ``(c, f)``.  A trivial path is
an empty arrow word based at a vertex.  All types are immutable values.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .polyring import exact_number, signed_products, signed_sum


class QuiverError(ValueError):
    """Structurally invalid quiver data (bad endpoints, duplicate ids, ...)."""


class ConnectivityWarning(UserWarning):
    """The quiver is not connected; nothing implemented requires it."""


@dataclass(frozen=True)
class Arrow:
    name: str
    tail: str
    head: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex identifiers")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow identifiers")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.tail not in vs or a.head not in vs:
                raise QuiverError(f"arrow {a.name}: undeclared endpoint {a.tail}->{a.head}")

    @cached_property
    def _arrow_index(self) -> dict[str, int]:
        return {a.name: k for k, a in enumerate(self.arrows)}

    def arrow(self, name: str) -> Arrow:
        return self.arrows[self.arrow_index(name)]

    def arrow_index(self, name: str) -> int:
        """Declaration index of an arrow; fixes all deterministic orderings."""
        try:
            return self._arrow_index[name]
        except KeyError:
            raise QuiverError(f"unknown arrow {name!r}") from None

    def arrows_from(self, vertex: str) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.tail == vertex)

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph."""
        if not self.vertices:
            return True
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a in self.arrows:
            adj[a.tail].add(a.head)
            adj[a.head].add(a.tail)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class DimensionVector:
    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for v, d in self.entries:
            if d < 0:
                raise QuiverError(f"negative dimension {d} at vertex {v}")

    @cached_property
    def _map(self) -> dict[str, int]:
        return dict(self.entries)

    def __getitem__(self, vertex: str) -> int:
        try:
            return self._map[vertex]
        except KeyError:
            raise QuiverError(f"no dimension for vertex {vertex!r}") from None

    @staticmethod
    def of(quiver: Quiver, dims: Mapping[str, int]) -> "DimensionVector":
        missing = [v for v in quiver.vertices if v not in dims]
        if missing:
            raise QuiverError(f"missing dimensions for vertices {missing}")
        extra = [v for v in dims if v not in quiver.vertices]
        if extra:
            raise QuiverError(f"dimensions for undeclared vertices {extra}")
        return DimensionVector(tuple((v, int(dims[v])) for v in quiver.vertices))


@dataclass(frozen=True)
class Path:
    """An arrow word in traversal order, or a trivial path (empty word).

    ``arrows[0]`` is applied first; tail and head are stored explicitly so
    they are total for trivial paths.  Use :func:`path_from_arrows` or
    :func:`trivial_path` to construct validated instances.
    """

    arrows: tuple[str, ...]
    tail: str
    head: str

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    @property
    def is_cycle(self) -> bool:
        return self.head == self.tail

    @property
    def word(self) -> str:
        """Right-to-left composition word, e.g. ``ec`` for e after c."""
        if self.is_trivial:
            return f"triv({self.tail})"
        names = self.arrows[::-1]
        return ("" if all(len(n) == 1 for n in names) else "*").join(names)

    def __str__(self) -> str:
        return self.word


def trivial_path(vertex: str) -> Path:
    return Path((), vertex, vertex)


def path_from_arrows(quiver: Quiver, arrows: Sequence[str]) -> Path:
    """Validated path from arrow names in traversal order."""
    if not arrows:
        raise QuiverError("a nontrivial path needs at least one arrow; use trivial_path")
    objs = [quiver.arrow(n) for n in arrows]
    for a, b in zip(objs, objs[1:]):
        if b.tail != a.head:
            raise QuiverError(f"non-composable word: {b.name} cannot follow {a.name}")
    return Path(tuple(arrows), objs[0].tail, objs[-1].head)


_FACTOR = re.compile(
    r"(?P<number>\d+(?:/\d+)?)|triv\(\s*(?P<vertex>[^)\s]+)\s*\)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
)


def read_terms(quiver: Quiver, text: str) -> list[tuple[Path, Fraction]]:
    """The ``(path, coefficient)`` terms of a signed sum of path words, such as
    ``fc - 1/2 e*d + triv(0)``: see :mod:`quivinv.quiverfile` for the syntax.
    Raises QuiverError only."""
    try:
        terms = signed_products(text, _FACTOR)
    except ValueError as exc:
        raise QuiverError(f"relation: {exc}") from None
    arrows = quiver._arrow_index
    out: list[tuple[Path, Fraction]] = []
    for sign, factors in terms:
        coeff = Fraction(sign)
        names: list[str] = []  # right-to-left, as written
        trivial_at: str | None = None
        for pos, f in enumerate(factors):
            number, vertex, name = f["number"], f["vertex"], f["name"]
            if number is not None:
                if pos != 0:
                    raise QuiverError("coefficient must lead its term")
                try:
                    coeff *= exact_number(number)
                except ValueError as exc:
                    raise QuiverError(str(exc)) from None
            elif vertex is not None:
                if vertex not in quiver.vertices:
                    raise QuiverError(f"unknown vertex {vertex!r} in triv()")
                trivial_at = vertex
            elif name not in arrows and all(a in arrows for a in name):
                names.extend(name)  # one-letter arrow names run together
            else:
                names.append(quiver.arrow(name).name)  # raises on an unknown name
        if names:
            path = path_from_arrows(quiver, names[::-1])
            if trivial_at is not None and trivial_at not in (path.head, path.tail):
                raise QuiverError("triv() factor off the path's endpoints")
        elif trivial_at is not None:
            path = trivial_path(trivial_at)
        else:
            raise QuiverError("term without arrows (use triv(v) for constants)")
        out.append((path, coeff))
    return out


def path_from_word(quiver: Quiver, word: str) -> Path:
    """The path a word names: one term of :func:`read_terms` with coefficient
    1, so ``ec``, ``e*c`` and ``e c`` all mean e after c, and
    ``path_from_word(quiver, p.word) == p``."""
    terms = read_terms(quiver, word)
    if len(terms) != 1 or terms[0][1] != 1:
        raise QuiverError(f"not a path word: {word!r}")
    return terms[0][0]


def compose(q: Path, p: Path) -> Path:
    """The composite qp (apply p first); trivial paths are identities."""
    if q.tail != p.head:
        raise QuiverError(f"non-composable: tail({q}) = {q.tail} != {p.head} = head({p})")
    if p.is_trivial:
        return q
    if q.is_trivial:
        return p
    return Path(p.arrows + q.arrows, p.tail, q.head)


def rotations(path: Path, quiver: Quiver) -> list[Path]:
    """All cyclic rotations of a nontrivial cycle."""
    if not path.is_cycle or path.is_trivial:
        raise QuiverError("rotations are defined for nontrivial cycles only")
    out = []
    arrs = path.arrows
    for k in range(len(arrs)):
        rot = arrs[k:] + arrs[:k]
        base = quiver.arrow(rot[0]).tail
        out.append(Path(rot, base, base))
    return out


def canonical_rotation(path: Path, quiver: Quiver) -> Path:
    """Lexicographically least rotation, by arrow declaration order."""
    return min(
        rotations(path, quiver),
        key=lambda p: tuple(quiver.arrow_index(n) for n in p.arrows),
    )


@dataclass(frozen=True)
class AlgebraElement:
    """A rational linear combination of paths sharing one head and one tail."""

    head: str
    tail: str
    terms: tuple[tuple[Path, Fraction], ...]

    def __post_init__(self):
        for p, c in self.terms:
            if p.head != self.head or p.tail != self.tail:
                raise QuiverError(
                    f"term {p} has endpoints {p.tail}->{p.head}, element is {self.tail}->{self.head}"
                )
            if c == 0:
                raise QuiverError("zero coefficient stored in algebra element")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return signed_sum((p.word, c) for p, c in self.terms)


def _path_sort_key(quiver: Quiver, p: Path):
    return (len(p.arrows), tuple(quiver.arrow_index(n) for n in p.arrows), p.tail)


def algebra_element(
    quiver: Quiver, head: str, tail: str, terms: Iterable[tuple[Path, Fraction]]
) -> AlgebraElement:
    """Normalized element: like terms combined, zeros dropped, canonical order."""
    acc: dict[Path, Fraction] = {}
    for p, c in terms:
        acc[p] = acc.get(p, Fraction(0)) + Fraction(c)
    kept = [(p, c) for p, c in acc.items() if c != 0]
    kept.sort(key=lambda pc: _path_sort_key(quiver, pc[0]))
    return AlgebraElement(head, tail, tuple(kept))


def sandwich(quiver: Quiver, u: Path, g: AlgebraElement, w: Path) -> AlgebraElement:
    """The element u*g*w (apply w first, then g, then u)."""
    if u.tail != g.head or w.head != g.tail:
        raise QuiverError("non-composable sandwich")
    return algebra_element(
        quiver, u.head, w.tail, ((compose(u, compose(p, w)), c) for p, c in g.terms)
    )


@dataclass(frozen=True)
class Relation:
    name: str
    element: AlgebraElement


@dataclass(frozen=True)
class Presentation:
    """A quiver with dimension vector, frozen-vertex set K, and relations;
    ``derived`` holds the ring (key ``"ring"``) and path matrices (keyed by path)
    that :mod:`quivinv.invariants` builds from it, and is not part of its value."""

    quiver: Quiver
    dims: DimensionVector
    frozen_vertices: frozenset[str]
    relations: tuple[Relation, ...] = ()
    derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        bad = self.frozen_vertices - set(self.quiver.vertices)
        if bad:
            raise QuiverError(f"frozen vertices not in quiver: {sorted(bad)}")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate relation names")
        taken = {a.name for a in self.quiver.arrows}
        for r in self.relations:
            if r.name in taken:
                raise QuiverError(f"relation name {r.name!r} clashes with an arrow name")
            if r.element.is_zero:
                raise QuiverError(f"relation {r.name} is zero")
        if not self.quiver.is_connected():
            warnings.warn("quiver is not connected", ConnectivityWarning, stacklevel=2)

    @property
    def unfrozen_vertices(self) -> frozenset[str]:
        return frozenset(self.quiver.vertices) - self.frozen_vertices

    def with_frozen(self, frozen: Iterable[str]) -> "Presentation":
        return replace(self, frozen_vertices=frozenset(frozen))

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise QuiverError(f"unknown relation {name!r}")


def enumerate_paths(
    quiver: Quiver,
    tails: Iterable[str],
    heads: Iterable[str],
    max_len: int,
    include_trivial: bool = False,
) -> list[Path]:
    """All composable arrow words of length 1..max_len with the given endpoints.

    Deterministic order: by length, then lexicographically by arrow
    declaration order on the traversal sequence.  Trivial paths at vertices in
    tails & heads are prepended when requested.
    """
    if max_len < 0:
        raise QuiverError("max_len must be >= 0")
    tails = set(tails)
    heads = set(heads)
    out: list[Path] = []
    if include_trivial:
        for v in quiver.vertices:
            if v in tails and v in heads:
                out.append(trivial_path(v))
    level: list[Path] = [
        Path((a.name,), a.tail, a.head) for a in quiver.arrows if a.tail in tails
    ]
    for n in range(1, max_len + 1):
        out.extend(p for p in level if p.head in heads)
        if n < max_len:
            level = [
                Path(p.arrows + (a.name,), p.tail, a.head)
                for p in level
                for a in quiver.arrows_from(p.head)
            ]
    return out


def enumerate_cycles_in_k(quiver: Quiver, frozen: Iterable[str], max_len: int) -> list[Path]:
    """Cycles of length <= max_len traversing only arrows with both endpoints
    in the frozen set, one representative per rotation class (lexicographically
    least rotation), in the order their first rotation is enumerated.  Trivial
    paths are excluded."""
    if max_len < 1:
        raise QuiverError("max_len must be >= 1")
    frozen = set(frozen)
    inner = Quiver(
        quiver.vertices, tuple(a for a in quiver.arrows if a.tail in frozen and a.head in frozen)
    )
    canon: dict[tuple[str, ...], Path] = {}
    for p in enumerate_paths(inner, frozen, frozen, max_len):
        if p.is_cycle:
            c = canonical_rotation(p, quiver)
            canon.setdefault(c.arrows, c)
    return list(canon.values())


@dataclass(frozen=True)
class FramedQuiver:
    """The auxiliary quiver over K u {infinity} with dimension 1 at infinity.

    ``provenance`` maps each added arrow to its source arrow and column/row
    index; arrows of the original quiver with both endpoints in K keep their
    names and are absent from the map.
    """

    quiver: Quiver
    dims: DimensionVector
    infinity: str
    provenance: Mapping[str, tuple[str, int]]


def framed_quiver(pres: Presentation) -> FramedQuiver:
    """Framing construction: keep arrows inside K, replace each arrow crossing
    the frontier by a fan of column/row arrows through a new vertex."""
    q, v, K = pres.quiver, pres.dims, pres.frozen_vertices
    inf = "inf"
    while inf in q.vertices:
        inf += "'"
    s11 = [a for a in q.arrows if a.tail in K and a.head in K]
    s01 = [a for a in q.arrows if a.tail not in K and a.head in K]
    s10 = [a for a in q.arrows if a.tail in K and a.head not in K]
    arrows: list[Arrow] = list(s11)
    prov: dict[str, tuple[str, int]] = {}
    taken = {a.name for a in s11}

    def fresh(base: str) -> str:
        name = base
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    for b in s01:
        for j in range(1, v[b.tail] + 1):
            name = fresh(f"{b.name}_col{j}")
            arrows.append(Arrow(name, inf, b.head))
            prov[name] = (b.name, j)
    for c in s10:
        for i in range(1, v[c.head] + 1):
            name = fresh(f"{c.name}_row{i}")
            arrows.append(Arrow(name, c.tail, inf))
            prov[name] = (c.name, i)
    verts = tuple(x for x in q.vertices if x in K) + (inf,)
    fq = Quiver(verts, tuple(arrows))
    dims = DimensionVector(tuple((x, 1 if x == inf else v[x]) for x in verts))
    return FramedQuiver(fq, dims, inf, prov)
