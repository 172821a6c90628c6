"""Buchberger engine: reduced Groebner bases, normal forms, elimination.

The engine works fraction-free on integer-coefficient term lists (content
stripped, positive leading coefficient), with Gebauer-Moeller pair pruning and
sugar-degree selection.  Inside the engine a monomial is a pair of plain ints,
its order key and its packed exponent vector (see :class:`_Packing`), so that
multiplying, dividing and comparing monomials are a few int operations;
:class:`Polynomial` keeps exponent tuples, and the conversion happens only on
the way in and out.  Reducers are looked up through a divisor index
(:class:`_Reducers`) that narrows the candidates by which variables a term
lacks and returns the same first divisor a linear scan would.  Reduction
work is metered by a :class:`ComputeBudget` and aborts with
:class:`BudgetExceededError` rather than truncating silently.
Everything runs sequentially; the reduced basis is unique per order, so the
printed result is deterministic by construction.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Optional

from .polyring import Polynomial, PolynomialRing, RingError


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


# -- packed monomials ----------------------------------------------------------


class _Overflow(Exception):
    """A degree reached the packing's limit; the caller repacks at double width."""


class _Packing:
    """Engine monomials as int pairs (K, E), for one order and field width.

    An order is the frozenset of the variables eliminated first: a block
    order with degrevlex inside each block, the empty front being plain
    degrevlex.  K is a linear form sum(e_i * w_i) whose integer order is the
    monomial order.  With W = 2**bits, a block of n variables gets the
    degrevlex weights W**n - W**k at its k-th variable (the degree on top,
    reversed exponents subtracted below it), and the front block is scaled
    above any back-block key.  E holds exponent i in bits
    [i*(bits+1), i*(bits+1)+bits), each field topped by a zero guard bit, and
    the total degree above all fields, so b divides a iff
    ((a | guard) - b) & guard == guard.  A product of monomials adds the Ks
    and the Es.  Both stay exact while every degree is below W; the engine
    checks that on packing, per new pair and per reduction step (the sugar
    bounds the degree of every term a step creates) and raises _Overflow.
    """

    def __init__(self, order: frozenset[int], nvars: int, bits: int):
        self.nvars, self.bits, self.limit = nvars, bits, 1 << bits
        self.stride = bits + 1
        self.shift = nvars * self.stride  # the total degree sits above the fields
        self.ones = sum(1 << (i * self.stride) for i in range(nvars))
        self.guard = self.ones << bits
        W = self.limit
        back = [i for i in range(nvars) if i not in order]
        self.weights = [0] * nvars
        for block, scale in ((sorted(order), W ** (len(back) + 1)), (back, 1)):
            n = len(block)
            for k, i in enumerate(block):
                self.weights[i] = scale * (W**n - W**k)

    def pack(self, m: tuple[int, ...]) -> tuple[int, int]:
        e = sum(m)
        if e >= self.limit:
            raise _Overflow
        for x in reversed(m):
            e = (e << self.stride) | x
        return sum(map(mul, m, self.weights)), e

    def unpack(self, e: int) -> tuple[int, ...]:
        return tuple((e >> (i * self.stride)) & (self.limit - 1) for i in range(self.nvars))

    def key(self, e: int) -> int:
        return sum(map(mul, self.unpack(e), self.weights))

    def lcm(self, a: int, b: int) -> int:
        g = self.guard
        ge = ((a | g) - b) & g  # guard bits of the fields where a >= b
        take_a = ge - (ge >> self.bits)
        fields = (a & take_a) | (b & ~take_a & (g - self.ones))
        # the fields summed into the top one; the sum is below 2 * limit
        deg = (fields * self.ones >> max(self.shift - self.stride, 0)) & (2 * self.limit - 1)
        return fields | (deg << self.shift)


# -- engine term lists -------------------------------------------------------
#
# An engine polynomial is a list of (K, E, coeff) triples sorted descending
# by K, with integer coefficients.  Basis elements are kept primitive:
# content 1 and positive leading coefficient.


def _to_engine(poly: Polynomial, packing: _Packing) -> tuple[list, int]:
    """Engine form of denom * poly together with the denominator used."""
    denom_lcm = 1
    for _, c in poly.terms:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    terms = [(*packing.pack(m), int(c * denom_lcm)) for m, c in poly.terms]
    terms.sort(reverse=True)
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


def _add_into(work: list, terms: list, qk: int, qe: int, scale: int):
    """Add scale * (qk, qe) * terms into ``work``, which is sorted ascending."""
    hi = len(work)
    for k, e, c in terms:  # descending, so each lands below the one before
        k += qk
        hi = bisect_left(work, (k,), 0, hi)
        if hi < len(work) and work[hi][0] == k:
            c = work[hi][2] + c * scale
            if c:
                work[hi] = (k, work[hi][1], c)
            else:
                del work[hi]
        else:
            work.insert(hi, (k, e + qe, c * scale))


@dataclass(slots=True)
class _Reducer:
    lk: int
    lm: int
    deg: int
    lc: int
    terms: list
    tail: list
    sugar: int


def _reducer_of(terms: list, shift: int, sugar: Optional[int] = None) -> _Reducer:
    lk, lm, lc = terms[0]
    if sugar is None:
        sugar = max(e for _, e, _ in terms) >> shift  # E orders by degree first
    return _Reducer(lk, lm, lm >> shift, lc, terms, terms[1:], sugar)


_CHUNK = 4  # variables per chunk of the divisor index: 2**_CHUNK table entries each


def _subsets(bits: int):
    """Every int whose set bits are a subset of those of ``bits``."""
    sub = bits
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & bits


class _Reducers:
    """Reducers in order, with a divisor index over their leading monomials.

    :meth:`find` returns the first reducer, by position, whose lead divides a
    monomial, as a linear scan would.  A lead divides m only if it is zero at
    every variable where m is zero.  The variables are cut into chunks of
    _CHUNK; per chunk, a table maps each pattern of the chunk's guard bits to
    the bitset of reducers (bit r for reducer r) whose lead is zero at every
    variable of the pattern.  One lookup and one AND per chunk, keyed by m's
    zero pattern, leaves the candidates, tested lowest bit first.
    """

    def __init__(self, packing: _Packing, reducers: Iterable[_Reducer] = ()):
        self.packing = packing
        self.reducers: list[_Reducer] = []
        self._tables = []  # (the chunk's guard bits, pattern -> reducer bitset)
        first = (1 << _CHUNK * packing.stride) - 1  # the fields of variables 0.._CHUNK-1
        for start in range(0, packing.nvars, _CHUNK):
            mask = packing.guard & (first << start * packing.stride)
            self._tables.append((mask, dict.fromkeys(_subsets(mask), 0)))
        for r in reducers:
            self.append(r)

    def _zeros(self, guarded: int) -> int:
        """The guard bits of the fields that are zero in ``guarded ^ guard``."""
        g = self.packing.guard
        return g ^ ((guarded - self.packing.ones) & g)

    def append(self, r: _Reducer):
        bit = 1 << len(self.reducers)
        self.reducers.append(r)
        zeros = self._zeros(r.lm | self.packing.guard)
        for mask, table in self._tables:
            for pattern in _subsets(zeros & mask):
                table[pattern] |= bit

    def find(self, m: int, skip: int = 0) -> Optional[_Reducer]:
        """The first reducer not in the bitset ``skip`` whose lead divides m."""
        g = self.packing.guard
        guarded = m | g
        zeros = self._zeros(guarded)
        cand = ((1 << len(self.reducers)) - 1) & ~skip
        for mask, table in self._tables:
            cand &= table[zeros & mask]
        reducers = self.reducers
        while cand:
            low = cand & -cand
            r = reducers[low.bit_length() - 1]
            if (guarded - r.lm) & g == g:
                return r
            cand ^= low
        return None


def _normal_form(
    f: list, reducers: _Reducers, budget: ComputeBudget, sugar: int = 0, skip: int = 0
):
    """Fraction-free full reduction by the reducers not in the bitset ``skip``.

    Returns (emitted, alpha, sugar) where emitted is a list of
    (K, E, coeff, alpha_at_emission): the true normal form of f has
    rational coefficients coeff / alpha_at_emission, and alpha * f is
    congruent to the integer polynomial assembled by :func:`_nf_int`.
    """
    packing = reducers.packing
    shift, limit = packing.shift, packing.limit
    out: list = []
    work = f[::-1]  # ascending: the leading term is popped off the end
    alpha = 1
    while work:
        k, m, c = work.pop()
        red = reducers.find(m, skip)
        if red is None:
            out.append((k, m, c, alpha))
            continue
        budget.spend_step()
        step_sugar = red.sugar + (m >> shift) - red.deg
        if step_sugar > sugar:
            if step_sugar >= limit:
                raise _Overflow
            sugar = step_sugar
        d = gcd(c, red.lc)
        a_scale = red.lc // d
        if a_scale != 1:
            alpha *= a_scale
            work = [(wk, we, wc * a_scale) for wk, we, wc in work]
        _add_into(work, red.tail, k - red.lk, m - red.lm, -(c // d))
    return out, alpha, sugar


def _nf_int(emitted: list, alpha: int) -> list:
    """Integer polynomial congruent to alpha * f modulo the reducers."""
    return [(k, m, c * (alpha // a)) for k, m, c, a in emitted]


def _spoly(fi: _Reducer, fj: _Reducer, lk: int, lm: int) -> list:
    d = gcd(fi.lc, fj.lc)
    qk, qe, scale = lk - fi.lk, lm - fi.lm, fj.lc // d
    work = [(k + qk, e + qe, c * scale) for k, e, c in reversed(fi.terms)]  # ascending
    _add_into(work, fj.terms, lk - fj.lk, lm - fj.lm, -(fi.lc // d))
    return work[::-1]


def _poly_sort_key(terms: list):
    return tuple((k, c) for k, _, c in terms)


def _buchberger(inputs: list[list], packing: _Packing, budget: ComputeBudget) -> list[list]:
    """Reduced Groebner basis of the given engine polynomials."""
    g, shift = packing.guard, packing.shift
    reducers = _Reducers(packing)
    basis = reducers.reducers
    pairs: dict[tuple[int, int], int] = {}  # (i,j) -> E of the lcm
    heap: list = []  # (sugar, lcm K, i, j); may hold pruned entries

    def add_element(terms: list, sugar: Optional[int] = None):
        # Gebauer-Moeller update.  Group candidate pairs by their lcm: equal
        # lcms keep one representative, lcms divisible by a kept smaller one
        # are dropped, and an lcm witnessed by a coprime pair is dropped
        # entirely.  Old pairs strictly refined by the new lead go too.
        h = _reducer_of(terms, shift, sugar)
        t = len(basis)
        cand = [packing.lcm(r.lm, h.lm) for r in basis]
        groups: dict[int, int] = {}
        coprime_lcms: set[int] = set()
        for i, L in enumerate(cand):
            if L >> shift == basis[i].deg + h.deg:
                coprime_lcms.add(L)
            elif L not in groups:
                groups[L] = i
        minimal: list[tuple[int, int]] = []
        kept_lcms: list[int] = []
        # E sorts by degree first, so a divisor is met before its multiples
        for L in sorted(set(groups) | coprime_lcms):
            guarded = L | g
            if any((guarded - Lk) & g == g for Lk in kept_lcms):
                continue
            kept_lcms.append(L)
            if L in coprime_lcms:
                continue  # Buchberger's first criterion kills the class
            minimal.append((L, groups[L]))
        for (i, j), lij in list(pairs.items()):
            if ((lij | g) - h.lm) & g == g and cand[i] != lij and cand[j] != lij:
                del pairs[(i, j)]
        for L, i in minimal:
            ldeg = L >> shift
            sug = max(basis[i].sugar + ldeg - basis[i].deg, h.sugar + ldeg - h.deg)
            if sug >= packing.limit:
                raise _Overflow
            pairs[(i, t)] = L
            heapq.heappush(heap, (sug, packing.key(L), i, t))
        reducers.append(h)

    for f in sorted(inputs, key=_poly_sort_key, reverse=True):
        if f:
            add_element(f)

    while heap:
        sug, lk, i, j = heapq.heappop(heap)
        lm = pairs.pop((i, j), None)
        if lm is None:
            continue  # pruned by a later update
        budget.spend_pair()
        s = _spoly(basis[i], basis[j], lk, lm)
        if not s:
            continue
        emitted, alpha, hsug = _normal_form(s, reducers, budget, sug)
        if emitted:
            add_element(_primitive(_nf_int(emitted, alpha)), hsug)

    return _interreduce([r.terms for r in basis], packing, budget)


def _interreduce(polys: list[list], packing: _Packing, budget: ComputeBudget) -> list[list]:
    shift = packing.shift
    polys = [p for p in polys if p]
    polys.sort(key=lambda p: (p[0][0], _poly_sort_key(p)))
    index = _Reducers(packing)
    for p in polys:  # keep the leads no kept lead divides
        if index.find(p[0][1]) is None:
            index.append(_reducer_of(p, shift))
    # each element is reduced by the others as they stand, earlier ones
    # already reduced; no other lead divides an element's lead, so reducing
    # keeps it and the index stays valid as each element is replaced
    reducers = index.reducers
    for idx, r in enumerate(reducers):
        emitted, alpha, _ = _normal_form(r.terms, index, budget, skip=1 << idx)
        reducers[idx] = _reducer_of(_primitive(_nf_int(emitted, alpha)), shift)
    return sorted((r.terms for r in reducers), key=lambda p: p[0][0])


# -- public layer -------------------------------------------------------------


class GroebnerBasis:
    """The unique reduced, monic Groebner basis for an ideal and order.

    ``packing`` is the monomial encoding the basis was computed with;
    :meth:`normal_form` repacks the basis, and rebuilds its divisor index,
    wider when an input needs it.
    """

    def __init__(self, ring: PolynomialRing, order: frozenset[int], packing, engine_polys: list[list]):
        self.ring = ring
        self.order = order
        self.polys: tuple[Polynomial, ...] = tuple(
            ring.polynomial([(packing.unpack(e), Fraction(c, p[0][2])) for _, e, c in p])
            for p in engine_polys
        )
        self._reducers = _Reducers(packing, (_reducer_of(p, packing.shift) for p in engine_polys))

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def normal_form(self, f: Polynomial, budget: Optional[ComputeBudget] = None) -> Polynomial:
        """The unique remainder of f modulo this basis."""
        if f.ring != self.ring:
            raise RingError("ring mismatch")
        budget = budget or ComputeBudget()
        spent = budget.steps_used
        while True:
            packing = self._reducers.packing
            try:
                engine_f, denom = _to_engine(f, packing)
                emitted, _, _ = _normal_form(engine_f, self._reducers, budget)
                break
            except _Overflow:
                budget.steps_used = spent
                wider = _Packing(self.order, self.ring.nvars, 2 * packing.bits)
                engine_polys = [_primitive(_to_engine(p, wider)[0]) for p in self.polys]
                self._reducers = _Reducers(
                    wider, (_reducer_of(p, wider.shift) for p in engine_polys)
                )
        return self.ring.polynomial(
            [(packing.unpack(m), Fraction(c, a * denom)) for _, m, c, a in emitted]
        )

    def reduces_to_zero(self, f: Polynomial, budget: Optional[ComputeBudget] = None) -> bool:
        """Ideal membership: whether f has normal form zero."""
        return self.normal_form(f, budget).is_zero


class Ideal:
    """An ideal given by generators, with cached reduced bases per order.

    An order is the frozenset of the variable indices eliminated first, with
    degrevlex inside each block; the empty set is plain degrevlex.
    """

    def __init__(self, ring: PolynomialRing, generators: Iterable[Polynomial]):
        self.ring = ring
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise RingError("generator from a different ring")
        self.generators = gens
        self._cache: dict[frozenset[int], GroebnerBasis] = {}

    def __repr__(self) -> str:
        return f"Ideal({len(self.generators)} generators)"

    def groebner_basis(
        self, order: frozenset[int] = frozenset(), budget: Optional[ComputeBudget] = None
    ) -> GroebnerBasis:
        if not all(0 <= i < self.ring.nvars for i in order):
            raise RingError(f"order {set(order)} names a variable outside the ring")
        cached = self._cache.get(order)
        if cached is not None:
            return cached
        budget = budget or ComputeBudget()
        spent = budget.pairs_used, budget.steps_used
        # first field width: room for four times the largest input degree
        bits = max(4, (4 * max((g.total_degree for g in self.generators), default=0)).bit_length())
        while True:
            packing = _Packing(order, self.ring.nvars, bits)
            try:
                engine = [_primitive(_to_engine(g, packing)[0]) for g in self.generators]
                basis = _buchberger([e for e in engine if e], packing, budget)
                break
            except _Overflow:  # start over at double width, as if never begun
                budget.pairs_used, budget.steps_used = spent
                bits *= 2
        gb = GroebnerBasis(self.ring, order, packing, basis)
        self._cache[order] = gb
        return gb


def eliminate(
    ideal: Ideal, drop: Iterable, budget: Optional[ComputeBudget] = None
) -> Ideal:
    """Eliminate the given variables (Variable objects or indices).

    Computes a Groebner basis for the order with the dropped variables in
    front and returns, as an ideal of the retained subring, the basis
    elements free of dropped variables.
    """
    ring = ideal.ring
    drop_idx: set[int] = set()
    for v in drop:
        i = v if isinstance(v, int) else ring.index.get(v)
        if i is None or not 0 <= i < ring.nvars:
            raise RingError(f"cannot drop {v}: not a ring variable")
        drop_idx.add(i)
    gb = ideal.groebner_basis(frozenset(drop_idx), budget)
    subring = PolynomialRing([v for i, v in enumerate(ring.variables) if i not in drop_idx])
    return Ideal(
        subring, [p.to_ring(subring) for p in gb.polys if not p.variables_used() & drop_idx]
    )


def ideal_equal(left: Ideal, right: Ideal, budget: Optional[ComputeBudget] = None) -> bool:
    """Whether two ideals of the same ring are equal.

    Equivalent to mutual membership of generators; decided by comparing the
    unique reduced bases.
    """
    if left.ring != right.ring:
        raise RingError("ideals live in different rings")
    return left.groebner_basis(budget=budget).polys == right.groebner_basis(budget=budget).polys
