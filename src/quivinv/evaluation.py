"""Exact evaluation oracle: representation points, group action, invariance.

Everything is computed over exact rationals, so equality checks are literal
polynomial identities at points; there is no tolerance policy.  Randomness is
always seeded and the seeds are recorded in reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .polyring import ARROW, Polynomial, RingError
from .quiver import Path, Presentation, QuiverError, framed_quiver

Matrix = tuple[tuple[Fraction, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix, cols: Optional[int] = None) -> Matrix:
    """a * b.  A matrix with no rows cannot show its column count, so pass
    ``cols``, the column count of b, whenever b may have zero rows."""
    inner = len(b)
    if cols is None:
        cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols))
        for row in a
    )


def mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


class SingularMatrixError(ValueError):
    pass


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(a)
    work = [list(row) for row in a]
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


@dataclass(frozen=True)
class RepPoint:
    """One matrix per arrow, shaped v_head x v_tail."""

    matrices: tuple[tuple[str, Matrix], ...]

    @cached_property
    def _map(self) -> dict[str, Matrix]:
        return dict(self.matrices)

    def matrix(self, arrow: str) -> Matrix:
        return self._map[arrow]


@dataclass(frozen=True)
class GroupElement:
    """An invertible matrix, with its exact inverse, per vertex; a vertex
    without a factor carries the identity, so ``GroupElement(())`` is the
    identity element."""

    factors: tuple[tuple[str, Matrix, Matrix], ...]


def random_rep(pres: Presentation, seed: int) -> RepPoint:
    """Deterministic point with integer entries in [-5, 5]."""
    rng = random.Random(seed)
    v = pres.dims
    out = []
    for a in pres.quiver.arrows:
        m = tuple(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(v[a.tail]))
            for _ in range(v[a.head])
        )
        out.append((a.name, m))
    return RepPoint(tuple(out))


def random_group(pres: Presentation, seed: int) -> GroupElement:
    """Invertible integer matrices at the frozen vertices, with exact inverses."""
    rng = random.Random(seed)
    v = pres.dims
    factors = []
    for vertex in pres.quiver.vertices:
        if vertex not in pres.frozen_vertices:
            continue
        n = v[vertex]
        while True:
            g = tuple(
                tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)) for _ in range(n)
            )
            try:
                ginv = mat_inverse(g)
            except SingularMatrixError:
                continue
            factors.append((vertex, g, ginv))
            break
    return GroupElement(tuple(factors))


def act(pres: Presentation, g: GroupElement, point: RepPoint) -> RepPoint:
    """Conjugation: each arrow matrix maps to g_head * B * g_tail^{-1},
    multiplying only at the vertices where g has a factor."""
    v = pres.dims
    factors = {vertex: (m, inv) for vertex, m, inv in g.factors}
    out = []
    for a in pres.quiver.arrows:
        m = point.matrix(a.name)
        if a.head in factors:
            m = mat_mul(factors[a.head][0], m, v[a.tail])
        if a.tail in factors:
            m = mat_mul(m, factors[a.tail][1], v[a.tail])
        out.append((a.name, m))
    return RepPoint(tuple(out))


def eval_poly(f: Polynomial, pres: Presentation, point: RepPoint) -> Fraction:
    """Substitute matrix entries for arrow variables, exactly."""
    ring = f.ring
    cache: dict[int, Fraction] = {}

    def value(i: int) -> Fraction:
        got = cache.get(i)
        if got is None:
            var = ring.variables[i]
            if var.kind != ARROW:
                raise RingError(f"unknown variable {var} at evaluation")
            try:
                got = point.matrix(var.name)[var.row - 1][var.col - 1]
            except (KeyError, IndexError):
                raise RingError(f"unknown variable {var} at evaluation") from None
            cache[i] = got
        return got

    acc = Fraction(0)
    for m, c in f.terms:
        term = c
        for i, e in enumerate(m):
            if e:
                term *= value(i) ** e
        acc += term
    return acc


def _product(matrix, path: Path, cols: int) -> Matrix:
    """Product of ``matrix(name)`` along a path whose tail has dimension ``cols``."""
    if path.is_trivial:
        return identity_matrix(cols)
    m = matrix(path.arrows[0])
    for name in path.arrows[1:]:
        m = mat_mul(matrix(name), m, cols)
    return m


def path_product(pres: Presentation, point: RepPoint, path: Path) -> Matrix:
    """Direct matrix product along a path: the evaluation oracle."""
    return _product(point.matrix, path, pres.dims[path.tail])


def framed_point(pres: Presentation, point: RepPoint) -> dict[str, Matrix]:
    """Image of a point under the framing identification.

    Arrows inside the frozen set keep their matrices; a crossing arrow into
    the set contributes its columns, one per added arrow, and a crossing arrow
    out of the set contributes its rows.
    """
    fq = framed_quiver(pres)
    out: dict[str, Matrix] = {}
    prov = fq.provenance_map
    for a in fq.quiver.arrows:
        if a.name not in prov:
            out[a.name] = point.matrix(a.name)
            continue
        source, index = prov[a.name]
        m = point.matrix(source)
        if a.tail == fq.infinity:  # column arrow
            out[a.name] = tuple((row[index - 1],) for row in m)
        else:  # row arrow
            out[a.name] = (m[index - 1],)
    return out


def framed_trace(pres: Presentation, framed_path: Path, point: RepPoint) -> Fraction:
    """Trace of the matrix product along a framed cycle at the framed point."""
    mats = framed_point(pres, point)
    cols = framed_quiver(pres).dims[framed_path.tail]
    return mat_trace(_product(mats.__getitem__, framed_path, cols))


@dataclass
class CheckResult:
    name: str
    trials: int
    passed: bool
    witness: Optional[dict] = None

    def to_jsonable(self) -> dict:
        out = {"name": self.name, "trials": self.trials, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


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
    if not entries:
        return CheckResult(name, 0, True)
    rng = random.Random(seed)
    for trial in range(trials):
        rep_seed = rng.randrange(2**31)
        grp_seed = rng.randrange(2**31)
        point = random_rep(pres, rep_seed)
        moved = act(pres, random_group(pres, grp_seed), point)
        for label, f in entries:
            lhs = eval_poly(f, pres, moved)
            rhs = eval_poly(f, pres, point)
            if lhs != rhs:
                witness = dict(
                    trial=trial, rep_seed=rep_seed, group_seed=grp_seed, generator=label,
                    moved=str(lhs), original=str(rhs), polynomial=str(f),
                )
                return CheckResult(name, trial + 1, False, witness)
    return CheckResult(name, trials, True)
