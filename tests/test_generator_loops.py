"""``lusztig_generators`` and ``kernel_generators`` against test-local copies
of the two separate loops they replaced, which built trace and contraction
generators each on their own."""

import itertools
import warnings
from importlib import resources

import pytest

from quivinv import (
    DimensionVector,
    Presentation,
    compose,
    enumerate_cycles_in_k,
    enumerate_paths,
    kernel_generators,
    lusztig_generators,
    parse_presentation,
    sandwich,
    trace_poly,
)
from quivinv.invariants import element_matrix, path_matrix

from test_second_examples import LOOP_WITH_LEGS, NILPOTENT_JORDAN


def lusztig_loop(pres, max_len):
    q, v = pres.quiver, pres.dims
    out = []
    for cyc in enumerate_cycles_in_k(q, pres.frozen_vertices, max_len):
        poly = trace_poly(pres, cyc)
        if poly.is_zero or poly.total_degree == 0:
            continue
        out.append((f"tr[{cyc.word}]", "trace", cyc.word, 0, 0, poly))
    Kc = pres.unfrozen_vertices
    for path in enumerate_paths(q, Kc, Kc, max_len):
        mat = path_matrix(pres, path)
        for i in range(1, v[path.head] + 1):
            for j in range(1, v[path.tail] + 1):
                poly = mat[i - 1][j - 1]
                if poly.is_zero or poly.total_degree == 0:
                    continue
                out.append((f"x[{path.word};{i},{j}]", "contraction", path.word, i, j, poly))
    return out


def sandwich_word(u, relation, w):
    return "*".join(([u.word] if u.arrows else []) + [relation] + ([w.word] if w.arrows else []))


def kernel_loop(pres, max_u, max_w):
    q, v = pres.quiver, pres.dims
    K, Kc = pres.frozen_vertices, pres.unfrozen_vertices
    out = []
    seen = set()
    for k, rel in enumerate(pres.relations):
        g = rel.element
        us = enumerate_paths(q, {g.head}, q.vertices, max_u, include_trivial=True)
        ws = enumerate_paths(q, q.vertices, {g.tail}, max_w, include_trivial=True)
        for u in us:
            for w in ws:
                base, other = u.head, w.tail
                word = sandwich_word(u, rel.name, w)
                if base == other and base in K:
                    dedup = (k, compose(w, u).arrows)
                    if dedup in seen:
                        continue
                    seen.add(dedup)
                    poly = trace_poly(pres, sandwich(q, u, g, w))
                    if not poly.is_zero:
                        out.append((f"tr[{word}]", "trace", u, rel.name, w, 0, 0, poly))
                elif base in Kc and other in Kc:
                    mat = element_matrix(pres, sandwich(q, u, g, w))
                    for i in range(1, v[base] + 1):
                        for j in range(1, v[other] + 1):
                            poly = mat[i - 1][j - 1]
                            if not poly.is_zero:
                                label = f"x[{word};{i},{j}]"
                                out.append((label, "contraction", u, rel.name, w, i, j, poly))
    return out


def every_frozen_set(pres):
    vs = pres.quiver.vertices
    for r in range(len(vs) + 1):
        for K in itertools.combinations(vs, r):
            yield pres.with_frozen(K)


def bundled_at_every_dims():
    text = resources.files("quivinv").joinpath("data/a1_preprojective.quiver").read_text("utf-8")
    pres = parse_presentation(text)
    for d0, d1 in itertools.product(range(3), repeat=2):
        dims = DimensionVector.of(pres.quiver, {"0": d0, "1": d1})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield from every_frozen_set(
                Presentation(pres.quiver, dims, pres.frozen_vertices, pres.relations)
            )


PRESENTATIONS = [
    *bundled_at_every_dims(),
    *every_frozen_set(parse_presentation(LOOP_WITH_LEGS)),
    *every_frozen_set(parse_presentation(NILPOTENT_JORDAN)),
]


def case_id(pres):
    arrows = "".join(a.name for a in pres.quiver.arrows)
    dims = ",".join(str(d) for _, d in pres.dims.entries)
    return f"{arrows}-v{dims}-K{''.join(sorted(pres.frozen_vertices))}"


@pytest.mark.parametrize("pres", PRESENTATIONS, ids=case_id)
def test_lusztig_generators_equal_the_two_loops(pres):
    for max_len in (1, 2, 3):
        got = [
            (e.label, e.kind, e.word, e.i, e.j, e.polynomial)
            for e in lusztig_generators(pres, max_len)
        ]
        assert got == lusztig_loop(pres, max_len)


@pytest.mark.parametrize("pres", PRESENTATIONS, ids=case_id)
def test_kernel_generators_equal_the_two_loops(pres):
    for max_u, max_w in ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2)):
        got = [
            (k.label, k.kind, k.u, k.relation, k.w, k.i, k.j, k.polynomial)
            for k in kernel_generators(pres, max_u, max_w)
        ]
        assert got == kernel_loop(pres, max_u, max_w)
