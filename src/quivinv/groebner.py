"""Buchberger engine: reduced Groebner bases, normal forms, elimination.

The engine works fraction-free on integer-coefficient term lists (content
stripped, positive leading coefficient), with Gebauer-Moeller pair pruning and
sugar-degree selection.  Reduction work is metered by a :class:`ComputeBudget`
and aborts with :class:`BudgetExceededError` rather than truncating silently.
Everything runs sequentially; the reduced basis is unique per order, so the
printed result is deterministic by construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from .polyring import MonomialOrder, Polynomial, PolynomialRing, RingError


class BudgetExceededError(RuntimeError):
    """The configured S-pair or reduction-step cap was hit."""


@dataclass
class ComputeBudget:
    max_pairs: int = 1_000_000
    max_steps: int = 10_000_000
    pairs_used: int = 0
    steps_used: int = 0

    def spend_pair(self):
        self.pairs_used += 1
        if self.pairs_used > self.max_pairs:
            raise BudgetExceededError(f"S-pair budget exceeded ({self.max_pairs})")

    def spend_step(self):
        self.steps_used += 1
        if self.steps_used > self.max_steps:
            raise BudgetExceededError(f"reduction-step budget exceeded ({self.max_steps})")


def _memoized_key(keyf):
    """The same monomials recur constantly during reduction; cache their keys.

    The cache is the function's ``memo`` dict.
    """
    memo: dict = {}

    def key(exps):
        k = memo.get(exps)
        if k is None:
            k = keyf(exps)
            memo[exps] = k
        return k

    key.memo = memo
    return key


# -- engine term lists -------------------------------------------------------
#
# An engine polynomial is a list of (key, exps, coeff) triples sorted
# descending by key, with integer coefficients.  Basis elements are kept
# primitive: content 1 and positive leading coefficient.


def _to_engine(poly: Polynomial, key) -> tuple[list, int]:
    """Engine form of denom * poly together with the denominator used."""
    denom_lcm = 1
    for _, c in poly.terms:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    terms = [(key(m), m, int(c * denom_lcm)) for m, c in poly.terms]
    terms.sort(key=lambda t: t[0], reverse=True)
    return terms, denom_lcm


def _primitive(terms: list) -> list:
    """Divide out the content and make the leading coefficient positive."""
    if not terms:
        return terms
    g = 0
    for _, _, c in terms:
        g = gcd(g, c)
        if g == 1:
            break
    if terms[0][2] < 0:
        g = -g
    if g == 1:
        return terms
    return [(k, e, c // g) for k, e, c in terms]


def _mul_monomial(terms: list, mexps: tuple[int, ...], scale: int, key) -> list:
    """scale * monomial * terms; order is preserved by multiplicativity."""
    out = []
    for _, e, c in terms:
        ne = tuple(a + b for a, b in zip(e, mexps))
        out.append((key(ne), ne, c * scale))
    return out


def _add_scaled(a: list, astart: int, sa: int, b: list, sb: int) -> list:
    """sa * a[astart:] + sb * b, both inputs sorted descending."""
    out = []
    i, j = astart, 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ka = a[i][0]
        kb = b[j][0]
        if ka > kb:
            out.append((ka, a[i][1], sa * a[i][2]))
            i += 1
        elif kb > ka:
            out.append((kb, b[j][1], sb * b[j][2]))
            j += 1
        else:
            c = sa * a[i][2] + sb * b[j][2]
            if c:
                out.append((ka, a[i][1], c))
            i += 1
            j += 1
    while i < na:
        out.append((a[i][0], a[i][1], sa * a[i][2]))
        i += 1
    while j < nb:
        out.append((b[j][0], b[j][1], sb * b[j][2]))
        j += 1
    return out


def _mask(exps: tuple[int, ...]) -> int:
    m = 0
    for i, e in enumerate(exps):
        if e:
            m |= 1 << i
    return m


@dataclass
class _Reducer:
    lm: tuple[int, ...]
    mask: int
    deg: int
    lc: int
    terms: list
    tail: list
    sugar: int


def _reducer_of(terms: list, sugar: Optional[int] = None) -> _Reducer:
    _, lm, lc = terms[0]
    deg = sum(lm)
    if sugar is None:
        sugar = max(sum(e) for _, e, _ in terms)
    return _Reducer(lm, _mask(lm), deg, lc, terms, terms[1:], sugar)


def _find_reducer(reducers: list[_Reducer], exps, deg: int, mask: int) -> Optional[_Reducer]:
    for r in reducers:
        if r.deg <= deg and (r.mask & mask) == r.mask:
            rl = r.lm
            for a, b in zip(rl, exps):
                if a > b:
                    break
            else:
                return r
    return None


def _normal_form(f: list, reducers: list[_Reducer], key, budget: ComputeBudget, sugar: int = 0):
    """Fraction-free full reduction.

    Returns (emitted, alpha, sugar) where emitted is a list of
    (key, exps, coeff, alpha_at_emission): the true normal form of f has
    rational coefficients coeff / alpha_at_emission, and alpha * f is
    congruent to the integer polynomial assembled by :func:`_nf_int`.
    """
    out: list = []
    work = f
    pos = 0
    alpha = 1
    while pos < len(work):
        k, m, c = work[pos]
        mdeg = sum(m)
        red = _find_reducer(reducers, m, mdeg, _mask(m))
        if red is None:
            out.append((k, m, c, alpha))
            pos += 1
            continue
        budget.spend_step()
        q = tuple(a - b for a, b in zip(m, red.lm))
        d = gcd(c, red.lc)
        a_scale = red.lc // d
        b_scale = c // d
        tail = _mul_monomial(red.tail, q, -b_scale, key) if red.tail else []
        work = _add_scaled(work, pos + 1, a_scale, tail, 1)
        pos = 0
        if a_scale != 1:
            alpha *= a_scale
        qdeg = mdeg - red.deg
        if red.sugar + qdeg > sugar:
            sugar = red.sugar + qdeg
    return out, alpha, sugar


def _nf_int(emitted: list, alpha: int) -> list:
    """Integer polynomial congruent to alpha * f modulo the reducers."""
    return [(k, m, c * (alpha // a)) for k, m, c, a in emitted]


def _spoly(fi: _Reducer, fj: _Reducer, key) -> list:
    L = tuple(max(a, b) for a, b in zip(fi.lm, fj.lm))
    qi = tuple(a - b for a, b in zip(L, fi.lm))
    qj = tuple(a - b for a, b in zip(L, fj.lm))
    d = gcd(fi.lc, fj.lc)
    left = _mul_monomial(fi.terms, qi, fj.lc // d, key)
    right = _mul_monomial(fj.terms, qj, -(fi.lc // d), key)
    return _add_scaled(left, 0, 1, right, 1)


def _poly_sort_key(terms: list):
    return tuple((k, c) for k, _, c in terms)


def _buchberger(inputs: list[list], key, budget: ComputeBudget) -> list[list]:
    """Reduced Groebner basis of the given engine polynomials."""
    basis: list[_Reducer] = []
    pairs: dict[tuple[int, int], tuple[int, tuple[int, ...], int]] = {}  # (i,j) -> (sugar, lcm, lcm mask)
    heap: list = []  # (sugar, lcm key, i, j); may hold pruned entries

    def add_element(terms: list, sugar: Optional[int] = None):
        # Gebauer-Moeller update.  Group candidate pairs by their lcm: equal
        # lcms keep one representative, lcms divisible by a kept smaller one
        # are dropped, and an lcm witnessed by a coprime pair is dropped
        # entirely.  Old pairs strictly refined by the new lead go too.
        h = _reducer_of(terms, sugar)
        t = len(basis)
        cand = [tuple(max(a, b) for a, b in zip(g.lm, h.lm)) for g in basis]
        groups: dict[tuple[int, ...], int] = {}
        coprime_lcms: set[tuple[int, ...]] = set()
        for i in range(t):
            li = cand[i]
            if (basis[i].mask & h.mask) == 0:
                coprime_lcms.add(li)
            elif li not in groups:
                groups[li] = i
        minimal: list[tuple[tuple[int, ...], int]] = []
        ordered = sorted(
            set(groups) | coprime_lcms, key=lambda L: (sum(L), key(L))
        )
        kept_lcms: list[tuple[int, ...]] = []
        for L in ordered:
            if any(all(x <= y for x, y in zip(Lk, L)) for Lk in kept_lcms):
                continue
            kept_lcms.append(L)
            if L in coprime_lcms:
                continue  # Buchberger's first criterion kills the class
            minimal.append((L, groups[L]))
        hmask = h.mask
        for (i, j), (_, lij, lij_mask) in list(pairs.items()):
            if (hmask & lij_mask) != hmask:
                continue
            if (
                all(x <= y for x, y in zip(h.lm, lij))
                and cand[i] != lij
                and cand[j] != lij
            ):
                del pairs[(i, j)]
        for L, i in minimal:
            ldeg = sum(L)
            sug = max(
                basis[i].sugar + ldeg - basis[i].deg,
                h.sugar + ldeg - h.deg,
            )
            pairs[(i, t)] = (sug, L, _mask(L))
            heapq.heappush(heap, (sug, key(L), i, t))
        basis.append(h)

    for f in sorted(inputs, key=_poly_sort_key, reverse=True):
        if f:
            add_element(f)

    while heap:
        sug, _, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue  # pruned by a later update
        budget.spend_pair()
        s = _spoly(basis[i], basis[j], key)
        if not s:
            continue
        emitted, alpha, hsug = _normal_form(s, basis, key, budget, sug)
        if emitted:
            add_element(_primitive(_nf_int(emitted, alpha)), hsug)

    return _interreduce([r.terms for r in basis], key, budget)


def _interreduce(polys: list[list], key, budget: ComputeBudget) -> list[list]:
    polys = [p for p in polys if p]
    polys.sort(key=lambda p: (p[0][0], _poly_sort_key(p)))
    minimal: list[list] = []
    minimal_reducers: list[_Reducer] = []
    for p in polys:
        lm = p[0][1]
        if _find_reducer(minimal_reducers, lm, sum(lm), _mask(lm)) is None:
            minimal.append(p)
            minimal_reducers.append(_reducer_of(p))
    reduced: list[list] = list(minimal)
    for idx in range(len(reduced)):
        others = [_reducer_of(q) for k, q in enumerate(reduced) if k != idx]
        emitted, alpha, _ = _normal_form(reduced[idx], others, key, budget)
        reduced[idx] = _primitive(_nf_int(emitted, alpha))
    reduced.sort(key=lambda p: p[0][0])
    return reduced


# -- public layer -------------------------------------------------------------


class GroebnerBasis:
    """The unique reduced, monic Groebner basis for an ideal and order.

    ``key`` is the order's (memoized) key function on exponent tuples, the one
    the basis was computed with.
    """

    def __init__(self, ring: PolynomialRing, order: MonomialOrder, key, engine_polys: list[list]):
        self.ring = ring
        self.order = order
        self._key = key
        self._reducers = [_reducer_of(p) for p in engine_polys]
        self.polys: tuple[Polynomial, ...] = tuple(
            ring.polynomial([(e, Fraction(c, p[0][2])) for _, e, c in p]) for p in engine_polys
        )

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def normal_form(self, f: Polynomial, budget: Optional[ComputeBudget] = None) -> Polynomial:
        """The unique remainder of f modulo this basis."""
        if f.ring != self.ring:
            raise RingError("ring mismatch")
        engine_f, denom = _to_engine(f, self._key)
        emitted, _, _ = _normal_form(engine_f, self._reducers, self._key, budget or ComputeBudget())
        return self.ring.polynomial([(m, Fraction(c, a * denom)) for _, m, c, a in emitted])

    def reduces_to_zero(self, f: Polynomial, budget: Optional[ComputeBudget] = None) -> bool:
        """Ideal membership: whether f has normal form zero."""
        return self.normal_form(f, budget).is_zero


class Ideal:
    """An ideal given by generators, with cached reduced bases per order."""

    def __init__(self, ring: PolynomialRing, generators: Iterable[Polynomial]):
        self.ring = ring
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise RingError("generator from a different ring")
        self.generators = gens
        self._cache: dict[MonomialOrder, GroebnerBasis] = {}

    def __repr__(self) -> str:
        return f"Ideal({len(self.generators)} generators)"

    def groebner_basis(
        self, order: Optional[MonomialOrder] = None, budget: Optional[ComputeBudget] = None
    ) -> GroebnerBasis:
        order = order or self.ring.ambient_order
        cached = self._cache.get(order)
        if cached is not None:
            return cached
        key = _memoized_key(order.key_function(self.ring.nvars))
        engine = [_primitive(_to_engine(g, key)[0]) for g in self.generators]
        basis = _buchberger([e for e in engine if e], key, budget or ComputeBudget())
        # the cached basis keeps the key for its normal forms; without this the
        # keys of every monomial the build met would stay alive with it
        key.memo.clear()
        gb = GroebnerBasis(self.ring, order, key, basis)
        self._cache[order] = gb
        return gb


def eliminate(
    ideal: Ideal, drop: Iterable, budget: Optional[ComputeBudget] = None
) -> Ideal:
    """Eliminate the given variables (Variable objects or indices).

    Computes a Groebner basis for the block order with the dropped variables
    in front and returns, as an ideal of the retained subring, the basis
    elements free of dropped variables.
    """
    ring = ideal.ring
    drop_idx: set[int] = set()
    for v in drop:
        i = v if isinstance(v, int) else ring.index.get(v)
        if i is None or not 0 <= i < ring.nvars:
            raise RingError(f"cannot drop {v}: not a ring variable")
        drop_idx.add(i)
    order = MonomialOrder.block(drop_idx)
    gb = ideal.groebner_basis(order, budget)
    subring = PolynomialRing([v for i, v in enumerate(ring.variables) if i not in drop_idx])
    return Ideal(
        subring, [p.to_ring(subring) for p in gb.polys if not p.variables_used() & drop_idx]
    )


def ideal_equal(
    left: Ideal,
    right: Ideal,
    order: Optional[MonomialOrder] = None,
    budget: Optional[ComputeBudget] = None,
) -> bool:
    """Whether two ideals of the same ring are equal.

    Equivalent to mutual membership of generators; decided by comparing the
    unique reduced bases.
    """
    if left.ring != right.ring:
        raise RingError("ideals live in different rings")
    order = order or left.ring.ambient_order
    return (
        left.groebner_basis(order, budget).polys
        == right.groebner_basis(order, budget).polys
    )
