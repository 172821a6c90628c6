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
printed result is deterministic by construction.  Nothing is cached: each
:meth:`Ideal.groebner_basis` call builds a basis that its caller owns, and
:func:`eliminate` reads an elimination ideal's reduced basis off such a basis.

On homogeneous input the sugar of a pair is its degree, so a run that leaves
out generators and pairs above a degree D (``max_degree``) is exact through D
(Kreuzer and Robbiano, *Computational Commutative Algebra 2*, on truncated
bases): it yields the reduced basis's elements of degree at most D.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional

from .polyring import Polynomial, PolynomialRing, RingError, integer_terms


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
    degrevlex.  E holds exponent i in bits [i*(bits+1), i*(bits+1)+bits),
    each field topped by a zero guard bit, and the total degree above all
    fields, at ``shift``, so b divides a iff ((a | guard) - b) & guard == guard.
    K is read off E: a block's key is its degree times 2**shift less its
    fields as they lie in E (the degree on top, reversed exponents subtracted
    below it), and the front block's key is scaled above any back-block key.
    K is linear in the exponents and its integer order is the monomial order,
    so a product of monomials adds the Ks and the Es.
    Both stay exact while every degree is below W = 2**bits; the engine
    checks that on packing, per new pair and per reduction step (the sugar
    bounds the degree of every term a step creates) and raises _Overflow.
    """

    def __init__(self, order: frozenset[int], nvars: int, bits: int):
        self.nvars, self.bits, self.limit = nvars, bits, 1 << bits
        self.stride = bits + 1
        self.shift = nvars * self.stride  # the total degree sits above the fields
        self.ones = sum(1 << (i * self.stride) for i in range(nvars))
        self.guard = self.ones << bits
        self.fields = self.guard - self.ones  # every field's bits, no guard bits
        self.top = max(self.shift - self.stride, 0)  # where lcm sums the fields
        self.front = sum(self.limit - 1 << i * self.stride for i in order)  # the front block

    def pack(self, m: tuple[int, ...]) -> tuple[int, int]:
        e = sum(m)
        if e >= self.limit:
            raise _Overflow
        for x in reversed(m):
            e = (e << self.stride) | x
        return self.key(e), e

    def unpack(self, e: int) -> tuple[int, ...]:
        return tuple((e >> (i * self.stride)) & (self.limit - 1) for i in range(self.nvars))

    def key(self, e: int) -> int:
        front = e & self.front
        d = (front * self.ones >> self.top) & (2 * self.limit - 1)  # the front block's degree
        back = (((e >> self.shift) - d) << self.shift) - ((e & self.fields) - front)
        return (((d << self.shift) - front) << (self.shift + self.stride)) + back

    def lcm(self, a: int, b: int) -> int:
        ge = ((a | self.guard) - b) & self.guard  # guard bits of the fields where a >= b
        take_a = ge - (ge >> self.bits)
        fields = (a & take_a) | (b & ~take_a & self.fields)
        # the fields summed into the top one; the sum is below 2 * limit
        deg = (fields * self.ones >> self.top) & (2 * self.limit - 1)
        return fields | (deg << self.shift)


# -- engine term lists -------------------------------------------------------
#
# An engine polynomial is a list of (K, E, coeff) triples sorted descending
# by K, with integer coefficients.  Basis elements are kept primitive:
# content 1 and positive leading coefficient.


def _to_engine(poly: Polynomial, packing: _Packing) -> tuple[list, int]:
    """Engine form of denom * poly together with the denominator used."""
    (terms,), denom = integer_terms([poly])
    terms = [(*packing.pack(m), c) for m, c in terms]
    terms.sort(reverse=True)
    return terms, denom


def _primitive(terms: list) -> list:
    """Divide out the content and make the leading coefficient positive."""
    if not terms:
        return terms
    g = gcd(*(c for _, _, c in terms))
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

    def append(self, r: _Reducer):
        bit = 1 << len(self.reducers)
        self.reducers.append(r)
        g = self.packing.guard
        zeros = g ^ (((r.lm | g) - self.packing.ones) & g)  # guard bits of the zero fields
        for mask, table in self._tables:
            for pattern in _subsets(zeros & mask):
                table[pattern] |= bit

    def candidates(self, guarded: int, skip: int = 0) -> int:
        """The bitset of reducers not in ``skip`` whose lead is zero wherever
        ``guarded ^ guard`` is: a superset of those whose lead divides it."""
        g = self.packing.guard
        zeros = g ^ ((guarded - self.packing.ones) & g)
        cand = ((1 << len(self.reducers)) - 1) & ~skip
        for mask, table in self._tables:
            cand &= table[zeros & mask]
        return cand

    def find(self, m: int, skip: int = 0) -> Optional[_Reducer]:
        """The first reducer not in the bitset ``skip`` whose lead divides m."""
        g = self.packing.guard
        guarded = m | g
        cand = self.candidates(guarded, skip)
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

    Returns (out, alpha, sugar): out is an engine polynomial congruent to
    alpha * f and reduced, so the normal form of f is out / alpha.  When
    alpha grows, the terms already emitted are rescaled with the rest.
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
            out.append((k, m, c))
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
            out = [(ok, oe, oc * a_scale) for ok, oe, oc in out]
        _add_into(work, red.tail, k - red.lk, m - red.lm, -(c // d))
    return out, alpha, sugar


def _spoly(fi: _Reducer, fj: _Reducer, lk: int, lm: int) -> list:
    d = gcd(fi.lc, fj.lc)
    qk, qe, scale = lk - fi.lk, lm - fi.lm, fj.lc // d
    work = [(k + qk, e + qe, c * scale) for k, e, c in reversed(fi.terms)]  # ascending
    _add_into(work, fj.terms, lk - fj.lk, lm - fj.lm, -(fi.lc // d))
    return work[::-1]


def _poly_sort_key(terms: list):
    return tuple((k, c) for k, _, c in terms)


def _buchberger(inputs: list[list], packing: _Packing, budget: ComputeBudget, max_degree=None):
    """Reduced Groebner basis of the given engine polynomials; with
    ``max_degree``, of homogeneous ones through that degree."""
    g, shift, lcm = packing.guard, packing.shift, packing.lcm
    reducers = _Reducers(packing)
    basis = reducers.reducers
    heap: list = []  # (sugar, lcm K, i, j, lcm E)

    def add_element(terms: list, sugar: Optional[int] = None):
        # Gebauer-Moeller update.  Group the new pairs by their lcm: equal
        # lcms keep one representative, lcms divisible by a kept smaller one
        # are dropped, and an lcm witnessed by a coprime pair is dropped
        # entirely.  Old pairs the new lead refines go when selected (B_k).
        h = _reducer_of(terms, shift, sugar)
        t, hm = len(basis), h.lm
        groups: dict[int, int] = {}
        coprime_lcms: set[int] = set()
        for i, r in enumerate(basis):
            L = lcm(r.lm, hm)
            if L >> shift == r.deg + h.deg:
                coprime_lcms.add(L)
            elif L not in groups:
                groups[L] = i
        kept_lcms: list[int] = []
        # E sorts by degree first, so a divisor is met before its multiples
        for L in sorted(set(groups) | coprime_lcms):
            guarded = L | g
            for Lk in kept_lcms:
                if (guarded - Lk) & g == g:
                    break
            else:
                kept_lcms.append(L)
                if L in coprime_lcms:
                    continue  # Buchberger's first criterion kills the class
                i = groups[L]
                sug = max(basis[i].sugar - basis[i].deg, h.sugar - h.deg) + (L >> shift)
                if max_degree is not None and sug > max_degree:
                    continue  # on homogeneous input the sugar is the degree
                if sug >= packing.limit:
                    raise _Overflow
                heapq.heappush(heap, (sug, packing.key(L), i, t, L))
        reducers.append(h)

    for f in sorted(inputs, key=_poly_sort_key, reverse=True):
        if f and (max_degree is None or f[0][1] >> shift <= max_degree):
            add_element(f)

    while heap:
        sug, lk, i, j, lm = heapq.heappop(heap)
        # criterion B_k: drop the pair if a lead added after j divides its
        # lcm and has a different lcm with both i and j
        guarded, mi, mj = lm | g, basis[i].lm, basis[j].lm
        later = reducers.candidates(guarded, (2 << j) - 1)
        while later:
            low = later & -later
            mk = basis[low.bit_length() - 1].lm
            if (guarded - mk) & g == g and lcm(mi, mk) != lm and lcm(mj, mk) != lm:
                break
            later ^= low
        if later:
            continue
        budget.spend_pair()
        s = _spoly(basis[i], basis[j], lk, lm)
        if not s:
            continue
        h, _, hsug = _normal_form(s, reducers, budget, sug)
        if h:
            add_element(_primitive(h), hsug)

    return _interreduce([r.terms for r in basis], packing, budget)


def _interreduce(polys: list[list], packing: _Packing, budget: ComputeBudget) -> _Reducers:
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
        h, _, _ = _normal_form(r.terms, index, budget, skip=1 << idx)
        reducers[idx] = _reducer_of(_primitive(h), shift)
    return index  # in ascending-lead order: the leads are distinct, and each is kept


# -- public layer -------------------------------------------------------------


class GroebnerBasis:
    """The unique reduced, monic Groebner basis for an ideal and order.

    The basis keeps the divisor index over packed term lists that the engine
    built, and builds :attr:`polys` when first read.  :meth:`normal_form` repacks
    the basis, and rebuilds its index, wider when an input needs it.  With
    ``max_degree`` not None the basis holds only the elements up to that
    degree, and :meth:`normal_form` refuses polynomials above it.
    """

    def __init__(self, ring, order: frozenset[int], reducers: _Reducers, max_degree=None):
        self.ring = ring
        self.order = order
        self.max_degree = max_degree
        self._reducers = reducers

    def _polynomial(self, terms: list, denom: int) -> Polynomial:
        unpack = self._reducers.packing.unpack
        return self.ring.polynomial([(unpack(e), Fraction(c, denom)) for _, e, c in terms])

    @cached_property
    def polys(self) -> tuple[Polynomial, ...]:
        return tuple(self._polynomial(r.terms, r.terms[0][2]) for r in self._reducers.reducers)

    def __len__(self) -> int:
        return len(self._reducers.reducers)

    def __iter__(self):
        return iter(self.polys)

    def normal_form(self, f: Polynomial, budget: Optional[ComputeBudget] = None) -> Polynomial:
        """The unique remainder of f modulo this basis."""
        if f.ring != self.ring:
            raise RingError("ring mismatch")
        if self.max_degree is not None and f.total_degree > self.max_degree:
            raise ValueError(f"degree {f.total_degree} is above the basis bound {self.max_degree}")
        budget = budget or ComputeBudget()
        spent = budget.steps_used
        while True:
            packing = self._reducers.packing
            try:
                engine_f, denom = _to_engine(f, packing)
                h, alpha, _ = _normal_form(engine_f, self._reducers, budget)
                break
            except _Overflow:
                budget.steps_used = spent
                wider = _Packing(self.order, self.ring.nvars, 2 * packing.bits)
                repacked = (
                    [(*wider.pack(packing.unpack(e)), c) for _, e, c in r.terms]
                    for r in self._reducers.reducers
                )
                self._reducers = _Reducers(wider, (_reducer_of(p, wider.shift) for p in repacked))
        return self._polynomial(h, denom * alpha)

    def reduces_to_zero(self, f: Polynomial, budget: Optional[ComputeBudget] = None) -> bool:
        """Ideal membership: whether f has normal form zero."""
        return self.normal_form(f, budget).is_zero


class Ideal:
    """An ideal given by generators; :meth:`groebner_basis` builds a new basis per call.

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

    def __repr__(self) -> str:
        return f"Ideal({len(self.generators)} generators)"

    def groebner_basis(
        self, order: frozenset[int] = frozenset(), budget: Optional[ComputeBudget] = None,
        *, max_degree: Optional[int] = None,
    ) -> GroebnerBasis:
        """The reduced basis for ``order``: only its elements up to ``max_degree``
        when that is set and every generator is homogeneous, else all of them."""
        if not all(isinstance(i, int) and 0 <= i < self.ring.nvars for i in order):
            raise RingError(f"order {set(order)} names a variable outside the ring")
        if any(len({sum(m) for m, _ in g.terms}) > 1 for g in self.generators):
            max_degree = None
        budget = budget or ComputeBudget()
        spent = budget.pairs_used, budget.steps_used
        # first field width: room for four times the largest input degree
        bits = max(4, (4 * max((g.total_degree for g in self.generators), default=0)).bit_length())
        while True:
            packing = _Packing(order, self.ring.nvars, bits)
            try:
                engine = [_primitive(_to_engine(g, packing)[0]) for g in self.generators]
                basis = _buchberger([e for e in engine if e], packing, budget, max_degree)
                break
            except _Overflow:  # start over at double width, as if never begun
                budget.pairs_used, budget.steps_used = spent
                bits *= 2
        return GroebnerBasis(self.ring, order, basis, max_degree)


def eliminate(basis: GroebnerBasis) -> GroebnerBasis:
    """The reduced degrevlex basis, on the ring of the remaining variables, of
    the elimination ideal of a basis computed with variables in front.

    By the elimination theorem (Cox, Little and O'Shea, ch. 3 section 1) it is
    the elements free of the front block (``basis.order``), repacked by their
    exponents: the back block's order is the subring's degrevlex order, so the
    leads and their order stay.  No polynomial is built until read.
    """
    ring, front, old = basis.ring, basis.order, basis._reducers
    back = [i for i in range(ring.nvars) if i not in front]
    subring = PolynomialRing([ring.variables[i] for i in back])
    packing = _Packing(frozenset(), len(back), old.packing.bits)
    reducers = _Reducers(packing)
    for r in old.reducers:
        if not any(e & old.packing.front for _, e, _ in r.terms):
            exps = ((old.packing.unpack(e), c) for _, e, c in r.terms)
            terms = [(*packing.pack(tuple(m[i] for i in back)), c) for m, c in exps]
            reducers.append(_reducer_of(terms, packing.shift))
    return GroebnerBasis(subring, frozenset(), reducers, basis.max_degree)


def ideal_equal(left: Ideal, right: Ideal, budget: Optional[ComputeBudget] = None) -> bool:
    """Whether two ideals of the same ring are equal.

    Equivalent to mutual membership of generators; decided by comparing the
    unique reduced bases.
    """
    if left.ring != right.ring:
        raise RingError("ideals live in different rings")
    return left.groebner_basis(budget=budget).polys == right.groebner_basis(budget=budget).polys
