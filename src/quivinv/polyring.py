"""Exact multivariate polynomials over the rationals.

Variables are either matrix-entry variables attached to an arrow (printed
``x[a;i,j]``) or fresh variables (printed ``label[i,j]``).  A monomial is a
dense exponent tuple with one entry per ring variable.  Terms are kept sorted
descending in degrevlex, the ring's ambient order, which also fixes the
canonical printed form.  Other orders exist only inside the Groebner engine
(:mod:`quivinv.groebner`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable

ARROW = "arrow"
FRESH = "fresh"


class RingError(ValueError):
    """Ring mismatch or malformed polynomial data."""


@dataclass(frozen=True)
class Variable:
    kind: str
    name: str
    row: int
    col: int

    def __post_init__(self):
        if self.kind not in (ARROW, FRESH):
            raise RingError(f"unknown variable kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == ARROW:
            return f"x[{self.name};{self.row},{self.col}]"
        return f"{self.name}[{self.row},{self.col}]"


def arrow_var(name: str, row: int, col: int) -> Variable:
    return Variable(ARROW, name, row, col)


def fresh_var(name: str, row: int, col: int) -> Variable:
    return Variable(FRESH, name, row, col)


_SPACE = re.compile(r"\s*")
_SIGNS = re.compile(r"[-+\s]*")


def signed_products(text: str, factor: re.Pattern) -> list[tuple[int, list[re.Match]]]:
    """Read ``text`` as a signed sum of products: ``[(sign, factor matches)]``.

    Terms are separated by one or more ``+``/``-``; each ``-`` flips the sign
    of the term after it, and the first term may carry signs too.  Factors are
    matches of ``factor`` (which must not match the empty string), separated by
    ``*``, by whitespace or by nothing; a ``*`` stands only between two factors.
    Raises ValueError on a dangling sign or ``*``, on text that no factor
    matches, and on empty text.
    """
    terms: list[tuple[int, list[re.Match]]] = []
    pos = 0
    while True:
        signs = _SIGNS.match(text, pos)
        pos = signs.end()
        if pos == len(text):
            if signs.group().strip():
                raise ValueError("dangling sign at end of expression")
            if not terms:
                raise ValueError("empty expression")
            return terms
        factors = []
        while True:
            f = factor.match(text, pos)
            if f is None:
                raise ValueError(f"expected a factor near {text[pos:pos + 16]!r}")
            factors.append(f)
            pos = _SPACE.match(text, f.end()).end()
            if text.startswith("*", pos):
                pos = _SPACE.match(text, pos + 1).end()
            elif not factor.match(text, pos):
                break
        terms.append((-1 if signs.group().count("-") % 2 else 1, factors))


def signed_sum(terms: Iterable[tuple[str, Fraction]]) -> str:
    """``(atom, coefficient)`` pairs as a signed sum, ``0`` if none; an empty atom
    stands for 1, and a coefficient is written unless its magnitude is 1."""
    bits = []
    for atom, c in terms:
        mag = abs(c)
        if not atom:
            body = str(mag)
        elif mag == 1:
            body = atom
        else:
            body = f"{mag}*{atom}"
        if bits:
            body = f"+ {body}" if c > 0 else f"- {body}"
        elif c < 0:
            body = f"-{body}"
        bits.append(body)
    return " ".join(bits) if bits else "0"


def exact_number(text: str) -> Fraction:
    """The rational ``p`` or ``p/q`` written in ``text``.  Raises ValueError on
    a zero denominator and on a numeral longer than Python converts to int."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _degrevlex_key(exps: tuple[int, ...]):
    return (sum(exps), tuple(-e for e in reversed(exps)))


class PolynomialRing:
    """A polynomial ring with a fixed variable tuple; terms sort by degrevlex."""

    ambient_order: frozenset[int] = frozenset()  # the engine order that eliminates nothing

    def __init__(self, variables: Iterable[Variable]):
        self.variables: tuple[Variable, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise RingError("duplicate variables in ring")
        self.index: dict[Variable, int] = {v: i for i, v in enumerate(self.variables)}
        self.nvars = len(self.variables)
        self._by_str = {str(v): i for i, v in enumerate(self.variables)}

    def __eq__(self, other) -> bool:
        return isinstance(other, PolynomialRing) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"PolynomialRing({len(self.variables)} variables)"

    # -- construction -----------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int | Fraction) -> "Polynomial":
        if not isinstance(c, (int, Fraction)):
            raise RingError(f"constant {c!r} is not an int or Fraction")
        c = Fraction(c)
        if c == 0:
            return self.zero
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, v: Variable | int) -> "Polynomial":
        i = v if isinstance(v, int) else self.index.get(v)
        if i is None or not 0 <= i < self.nvars:
            raise RingError(f"variable {v} not in ring")
        unit = (0,) * i + (1,) + (0,) * (self.nvars - i - 1)
        return Polynomial(self, ((unit, Fraction(1)),))

    def polynomial(self, terms: Iterable[tuple[tuple[int, ...], Fraction]]) -> "Polynomial":
        """Normalize (exponent tuple, coefficient) pairs; coefficients are exact."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for m, c in terms:
            if len(m) != self.nvars:
                raise RingError("monomial has wrong number of variables")
            if not isinstance(c, (int, Fraction)):
                raise RingError(f"coefficient {c!r} is not an int or Fraction")
            acc[m] = acc.get(m, Fraction(0)) + Fraction(c)
        kept = [(m, c) for m, c in acc.items() if c != 0]
        kept.sort(key=lambda mc: _degrevlex_key(mc[0]), reverse=True)
        return Polynomial(self, tuple(kept))

    # -- printing and parsing ----------------------------------------------

    def format_monomial(self, m: tuple[int, ...]) -> str:
        bits = []
        for i, e in enumerate(m):
            if e == 1:
                bits.append(str(self.variables[i]))
            elif e > 1:
                bits.append(f"{self.variables[i]}^{e}")
        return "*".join(bits)

    # a variable, possibly raised to a power, or a rational coefficient
    _FACTOR = re.compile(
        r"(?P<var>[A-Za-z0-9_.']+\[[^\]]*\])(?:\^(?P<exp>\d*))?|(?P<num>\d+(?:/\d+)?)"
    )

    def parse(self, text: str) -> "Polynomial":
        """Parse the canonical printed format (tolerant of whitespace)."""
        if not text.strip():
            return self.zero
        terms: list[tuple[tuple[int, ...], Fraction]] = []
        try:
            for sign, factors in signed_products(text, self._FACTOR):
                coeff = Fraction(sign)
                exps = [0] * self.nvars
                for f in factors:
                    if f["num"] is not None:
                        coeff *= exact_number(f["num"])
                        continue
                    idx = self._by_str.get(f["var"])
                    if idx is None:
                        raise RingError(f"unknown variable {f['var']!r}")
                    if f["exp"] == "":
                        raise RingError("missing exponent after '^'")
                    exps[idx] += int(f["exp"] or 1)
                terms.append((tuple(exps), coeff))
        except ValueError as exc:  # a RingError, or text the reader or int() rejects
            raise RingError(str(exc)) from None
        return self.polynomial(terms)


class Polynomial:
    """Immutable polynomial; terms sorted descending in the ambient order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: tuple[tuple[tuple[int, ...], Fraction], ...]):
        self.ring = ring
        self.terms = terms

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        """The lead's degree, since terms sort by degree first; -1 for zero."""
        return sum(self.terms[0][0]) if self.terms else -1

    def to_ring(self, target: PolynomialRing) -> "Polynomial":
        """The same polynomial in another ring, matching variables by identity.

        Raises :class:`RingError` when a variable the polynomial uses is not a
        variable of ``target``.
        """
        if target == self.ring:
            return self
        source = self.ring.variables
        where = [target.index.get(v) for v in source]
        terms = []
        for m, c in self.terms:
            exps = [0] * target.nvars
            for i, e in enumerate(m):
                if e:
                    if where[i] is None:
                        raise RingError(f"variable {source[i]} not in target ring")
                    exps[where[i]] = e
            terms.append((tuple(exps), c))
        return target.polynomial(terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingError("ring mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return self.ring.polynomial(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero
            return Polynomial(self.ring, tuple((m, cc * c) for m, cc in self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return self.ring.polynomial(
            (tuple(map(add, m1, m2)), c1 * c2) for m1, c1 in self.terms for m2, c2 in other.terms
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise RingError("negative power")
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:  # zero and the constants hash as the scalar they equal
        m, c = self.terms[0] if self.terms else ((), 0)  # the lead has the highest degree
        return hash((self.ring, self.terms)) if any(m) else hash(c)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum((self.ring.format_monomial(m), c) for m, c in self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def integer_terms(polys: Iterable[Polynomial]) -> tuple[list[list[tuple[tuple, int]]], int]:
    """The term lists of D * f for each polynomial f, with int coefficients,
    and D, the lcm of every coefficient denominator."""
    terms = [f.terms for f in polys]
    D = lcm(*(c.denominator for t in terms for _, c in t))
    return [[(m, c.numerator * (D // c.denominator)) for m, c in t] for t in terms], D
