"""Line-oriented quiver file format.

::

    # comment
    [vertices] 0 1
    [arrows]
    c: 0 -> 1
    e: 1 -> 0
    [dims]
    0 = 2
    1 = 2
    [K] 1
    [relations]
    g1 = f*c - e*d
    g2 = 1/2 d*e - c*f

A relation is a signed sum of path terms, read by :func:`quiver.read_terms`,
which reads what :attr:`quiver.Path.word` writes.  A term is an optional
leading rational ``p/q``, then a word of arrows read right-to-left as
composition (``f*c`` applies ``c`` first), its factors separated by whitespace
or ``*`` (a ``*`` goes only between two factors).  A declared arrow name is that
arrow; any other name whose letters are all one-letter arrow names is read
letter by letter (``fc`` = ``f*c``).  ``triv(vertex)`` is a trivial path, alone
or next to a word that starts or ends there, so ``f*c - e*d - 2 triv(0)`` is a
relation.  Arrow and relation names must match ``[A-Za-z_][A-Za-z0-9_]*``;
vertex identifiers may be any whitespace-free token.
"""

from __future__ import annotations

import re
from typing import Iterator

from .quiver import (
    AlgebraElement,
    Arrow,
    DimensionVector,
    Presentation,
    Quiver,
    QuiverError,
    Relation,
    algebra_element,
    read_terms,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ARROW_LINE = re.compile(r"(?P<name>\S+)\s*:\s*(?P<tail>\S+)\s*->\s*(?P<head>\S+)\Z")
_DIM_LINE = re.compile(r"(?P<vertex>\S+)\s*=\s*(?P<dim>\d+)\Z")

_SECTIONS = ("vertices", "arrows", "dims", "K", "relations")


class QuiverFileError(QuiverError):
    """Parse error carrying the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each line left nonblank once its ``#`` comment
    is cut: the line rule of quiver files and ``present --compare`` files."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _split_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, line in content_lines(text):
        if line.startswith("["):
            close = line.find("]")
            if close < 0:
                raise QuiverFileError("unterminated section header", lineno)
            tag = line[1:close].strip()
            if tag not in _SECTIONS:
                raise QuiverFileError(f"unknown section [{tag}]", lineno)
            if tag in sections:
                raise QuiverFileError(f"duplicate section [{tag}]", lineno)
            sections[tag] = []
            current = tag
            rest = line[close + 1 :].strip()
            if rest:
                sections[tag].append((lineno, rest))
        else:
            if current is None:
                raise QuiverFileError("content before any section header", lineno)
            sections[current].append((lineno, line))
    return sections


def _parse_relation_element(quiver: Quiver, expr: str, lineno: int) -> AlgebraElement:
    try:
        terms = read_terms(quiver, expr)
    except QuiverError as exc:
        raise QuiverFileError(str(exc), lineno) from None
    heads = {p.head for p, _ in terms}
    tails = {p.tail for p, _ in terms}
    if len(heads) != 1 or len(tails) != 1:
        raise QuiverFileError("mixed bigrading in relation", lineno)
    return algebra_element(quiver, heads.pop(), tails.pop(), terms)


def _whole_file(build, *args):
    """``build(*args)``, a model error reported at line 0: it concerns the file
    as a whole, not one line of it."""
    try:
        return build(*args)
    except QuiverError as exc:
        raise QuiverFileError(str(exc), 0) from None


def parse_presentation(text: str) -> Presentation:
    """Parse a quiver file into a validated presentation."""
    sections = _split_sections(text)
    for required in ("vertices", "dims"):
        if required not in sections:
            raise QuiverFileError(f"missing section [{required}]", 0)

    vertices = [v for _, line in sections["vertices"] for v in line.split()]
    if not vertices:
        raise QuiverFileError("no vertices declared", 0)

    arrows: list[Arrow] = []
    for lineno, line in sections.get("arrows", []):
        m = _ARROW_LINE.match(line)
        if not m:
            raise QuiverFileError("expected 'name: tail -> head'", lineno)
        name = m.group("name")
        if not _NAME_RE.match(name):
            raise QuiverFileError(f"bad arrow name {name!r}", lineno)
        if m.group("tail") not in vertices or m.group("head") not in vertices:
            raise QuiverFileError(f"unknown vertex in arrow {name}", lineno)
        arrows.append(Arrow(name, m.group("tail"), m.group("head")))
    quiver = _whole_file(Quiver, tuple(vertices), tuple(arrows))

    dims: dict[str, int] = {}
    for lineno, line in sections["dims"]:
        m = _DIM_LINE.match(line)
        if not m:
            raise QuiverFileError("expected 'vertex = integer'", lineno)
        v = m.group("vertex")
        if v not in vertices:
            raise QuiverFileError(f"dimension for unknown vertex {v!r}", lineno)
        if v in dims:
            raise QuiverFileError(f"duplicate dimension for vertex {v!r}", lineno)
        try:
            dims[v] = int(m.group("dim"))
        except ValueError as exc:
            raise QuiverFileError(f"dimension: {exc}", lineno) from None
    dimvec = _whole_file(DimensionVector.of, quiver, dims)

    frozen: list[str] = []
    for lineno, line in sections.get("K", []):
        for tok in line.split():
            if tok not in vertices:
                raise QuiverFileError(f"frozen vertex {tok!r} not declared", lineno)
            frozen.append(tok)

    relations: list[Relation] = []
    for lineno, line in sections.get("relations", []):
        if "=" not in line:
            raise QuiverFileError("expected 'name = expression'", lineno)
        name, expr = line.split("=", 1)
        name = name.strip()
        if not _NAME_RE.match(name):
            raise QuiverFileError(f"bad relation name {name!r}", lineno)
        element = _parse_relation_element(quiver, expr.strip(), lineno)
        if element.is_zero:
            raise QuiverFileError(f"relation {name} is zero", lineno)
        relations.append(Relation(name, element))

    return _whole_file(Presentation, quiver, dimvec, frozenset(frozen), tuple(relations))


def read_text(path) -> str:
    """The text of a UTF-8 file; any other bytes raise a QuiverError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            byte, at = exc.object[exc.start], exc.start
            message = f"{path}: not UTF-8 text (byte {byte:#04x} at position {at})"
            raise QuiverError(message) from None


def load_presentation(path) -> Presentation:
    return parse_presentation(read_text(path))
