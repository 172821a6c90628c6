"""Exact evaluation oracle: representation points, group action, invariance.

Everything is computed exactly, never in floats: only the group inverses, and
so the moved points, are rational, and only :func:`mat_inverse` and the last
step of :func:`eval_poly` divide.  Equality checks are therefore literal
polynomial identities at points; there is no tolerance policy.
Randomness is always seeded and the seeds are recorded in reports.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Optional, Sequence, Union

from .polyring import ARROW, Polynomial, RingError
from .quiver import Path, Presentation, QuiverError, framed_quiver

Number = Union[int, Fraction]
Matrix = tuple[tuple[Number, ...], ...]
RepPoint = dict[str, Matrix]  # arrow -> matrix, shaped v_head x v_tail
GroupElement = dict[str, tuple[Matrix, Matrix]]  # vertex -> (g, g^-1); absent is identity


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix, cols: Optional[int] = None) -> Matrix:
    """a * b.  A matrix with no rows cannot show its column count, so pass
    ``cols``, the column count of b, whenever b may have zero rows."""
    inner = len(b)
    if cols is None:
        cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)) for row in a
    )


def mat_trace(a: Matrix) -> Number:
    return sum(a[i][i] for i in range(len(a)))


class SingularMatrixError(ValueError):
    pass


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    inv = [list(row) for row in identity_matrix(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is not invertible")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def _random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return tuple(tuple(rng.randint(-5, 5) for _ in range(cols)) for _ in range(rows))


def random_rep(pres: Presentation, seed: int) -> RepPoint:
    """Deterministic point with integer entries in [-5, 5]."""
    rng = random.Random(seed)
    v = pres.dims
    return {a.name: _random_matrix(rng, v[a.head], v[a.tail]) for a in pres.quiver.arrows}


def random_group(pres: Presentation, seed: int) -> GroupElement:
    """Invertible integer matrices at the frozen vertices, with exact inverses."""
    rng = random.Random(seed)
    v = pres.dims
    factors = {}
    for vertex in pres.quiver.vertices:
        if vertex not in pres.frozen_vertices:
            continue
        n = v[vertex]
        while vertex not in factors:
            g = _random_matrix(rng, n, n)
            try:
                factors[vertex] = (g, mat_inverse(g))
            except SingularMatrixError:
                pass
    return factors


def act(pres: Presentation, g: GroupElement, point: RepPoint) -> RepPoint:
    """Conjugation: each arrow matrix maps to g_head * B * g_tail^{-1},
    multiplying only at the vertices where g has a factor."""
    v = pres.dims
    out = {}
    for a in pres.quiver.arrows:
        m = point[a.name]
        if a.head in g:
            m = mat_mul(g[a.head][0], m, v[a.tail])
        if a.tail in g:
            m = mat_mul(m, g[a.tail][1], v[a.tail])
        out[a.name] = m
    return out


def eval_poly(f: Polynomial, pres: Presentation, point: RepPoint) -> Number:
    """Substitute matrix entries for arrow variables, exactly: over a common
    denominator D of the used entries, a monomial of degree d is an int over
    D^d, summed in ints per (coefficient denominator, d) and divided once."""
    if not f.terms:
        return 0
    values = []  # an int or a Fraction per variable; 0 where no term uses it
    for var, used in zip(f.ring.variables, map(any, zip(*(m for m, _ in f.terms)))):
        x = 0
        if used:
            if var.kind != ARROW:
                raise RingError(f"unknown variable {var} at evaluation")
            try:
                x = point[var.name][var.row - 1][var.col - 1]
            except (KeyError, IndexError):
                raise RingError(f"unknown variable {var} at evaluation") from None
        values.append(x)
    D = lcm(*(x.denominator for x in values))
    nums = [x.numerator * (D // x.denominator) for x in values]
    sums: dict[tuple[int, int], int] = {}
    for m, c in f.terms:
        key = (c.denominator, sum(m))
        sums[key] = sums.get(key, 0) + c.numerator * prod(map(pow, nums, m))
    den = lcm(*(c for c, _ in sums))
    top = max(d for _, d in sums)
    num = sum(s * (den // c) * D ** (top - d) for (c, d), s in sums.items())
    return Fraction(num, den * D**top)


def _product(matrices: RepPoint, path: Path, cols: int) -> Matrix:
    """Product of the matrices along a path whose tail has dimension ``cols``."""
    if path.is_trivial:
        return identity_matrix(cols)
    m = matrices[path.arrows[0]]
    for name in path.arrows[1:]:
        m = mat_mul(matrices[name], m, cols)
    return m


def path_product(pres: Presentation, point: RepPoint, path: Path) -> Matrix:
    """Direct matrix product along a path: the evaluation oracle."""
    return _product(point, path, pres.dims[path.tail])


def framed_trace(pres: Presentation, framed_path: Path, point: RepPoint) -> Number:
    """Trace of the matrix product along a framed cycle at the image of a point
    under the framing identification: arrows inside the frozen set keep their
    matrices, a column arrow takes its source's column and a row arrow its row."""
    fq = framed_quiver(pres)
    mats = dict(point)
    for name, (source, index) in fq.provenance.items():
        m = point[source]
        if fq.quiver.arrow(name).tail == fq.infinity:
            mats[name] = tuple((row[index - 1],) for row in m)
        else:
            mats[name] = (m[index - 1],)
    return mat_trace(_product(mats, framed_path, fq.dims[framed_path.tail]))


@dataclass
class CheckResult:
    name: str
    trials: int
    passed: bool
    witness: Optional[dict] = None

    @classmethod
    def of(cls, name: str, outcomes: Iterable, trials: Optional[int] = None) -> CheckResult:
        """Run a check given as one outcome per trial: ``None`` for a pass, or
        a witness dict, which ends the check.  At most ``trials`` outcomes are
        consumed, and the trials reported are the outcomes consumed."""
        done = 0
        for done, witness in enumerate(itertools.islice(outcomes, trials), 1):
            if witness is not None:
                return cls(name, done, False, witness)
        return cls(name, done, True)


def _invariance_outcomes(entries, pres: Presentation, seed: int):
    rng = random.Random(seed)
    for trial in itertools.count() if entries else ():
        rep_seed = rng.randrange(2**31)
        grp_seed = rng.randrange(2**31)
        point = random_rep(pres, rep_seed)
        moved = act(pres, random_group(pres, grp_seed), point)
        for label, f in entries:
            lhs = eval_poly(f, pres, moved)
            rhs = eval_poly(f, pres, point)
            if lhs != rhs:
                yield dict(
                    trial=trial, rep_seed=rep_seed, group_seed=grp_seed, generator=label,
                    moved=str(lhs), original=str(rhs), polynomial=str(f),
                )
        yield None


def check_invariance(
    entries: Sequence[tuple[str, Polynomial]],
    pres: Presentation,
    trials: int,
    seed: int,
    name: str = "invariance",
) -> CheckResult:
    """Compare each ``(label, polynomial)`` entry at a point and at its
    translate by a random group element, exactly, over seeded trials that
    every entry shares; reports the first counterexample."""
    if trials < 1:
        raise QuiverError("trials must be >= 1")
    return CheckResult.of(name, _invariance_outcomes(entries, pres, seed), trials)
