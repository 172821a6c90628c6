"""Span tracer for one quivinv job, installed from outside the package.

``install()`` wraps the public functions of each ``quivinv`` module, in every
module namespace that imported them by name, so that each call records a span:
its name (``<module>.<function>``), the span open when it started (its parent),
start and end times, and counts read at that boundary.  Spans are kept in
memory; ``layer_metrics()`` turns them into the per-layer metrics and
``dump()`` writes them out when the job ends.

A layer is one module of ``src/quivinv``.  Its self time is the time its spans
were open minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = (
    "cli",
    "quiverfile",
    "quiver",
    "polyring",
    "invariants",
    "kernel",
    "groebner",
    "evaluation",
    "verification",
)

# (module, function) pairs wrapped by name; methods are listed in METHODS.
FUNCTIONS = (
    ("cli", "main"),
    ("quiverfile", "load_presentation"),
    ("quiver", "enumerate_paths"),
    ("quiver", "enumerate_cycles_in_k"),
    ("invariants", "lusztig_generators"),
    ("invariants", "rep_ideal"),
    ("invariants", "path_matrix"),
    ("invariants", "element_matrix"),
    ("invariants", "contraction_poly"),
    ("invariants", "trace_poly"),
    ("invariants", "framed_correspondence"),
    ("kernel", "kernel_generators"),
    ("kernel", "present_invariant_ring"),
    ("groebner", "eliminate"),
    ("groebner", "ideal_equal"),
    ("evaluation", "eval_poly"),
    ("evaluation", "check_invariance"),
    ("evaluation", "path_product"),
    ("evaluation", "framed_trace"),
    ("evaluation", "random_rep"),
    ("evaluation", "random_group"),
    ("evaluation", "act"),
    ("verification", "run_verification"),
)
METHODS = (
    ("polyring", "Polynomial", "__mul__"),
    ("polyring", "Polynomial", "__rmul__"),
    ("polyring", "Polynomial", "__str__"),
    ("groebner", "Ideal", "groebner_basis"),
    ("groebner", "GroebnerBasis", "normal_form"),
)

# path_matrix recurses and element_matrix calls it: only the outermost of
# these spans counts towards invariants.matrix_s.
_MATRIX_SPANS = ("invariants.path_matrix", "invariants.element_matrix")


class Tracer:
    """Spans of one job, as lists ``[name, parent, start, end, covered, counts]``.

    ``parent`` is the index of the enclosing span or -1; ``covered`` is the
    time taken by direct children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None, before=None):
        """``fn`` recording a span per call.

        ``before(args, kwargs)`` may rewrite the arguments and returns
        ``(args, kwargs, state)``; ``count(state, result)`` returns the span's
        counts as a dict.
        """
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            parent = stack[-1] if stack else -1
            record = [name, parent, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += record[3] - record[2]
            if count is not None:
                record[5] = count(state, result)
            return result

        return traced

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": n, "parent": p, "start": s, "end": e, "counts": c}
                    for n, p, s, e, _, c in self.spans
                ],
                fh,
            )


def _terms(value) -> int:
    """Polynomial terms in a value an invariants function returns."""
    if hasattr(value, "terms") and hasattr(value, "ring"):
        return len(value.terms)
    if hasattr(value, "generators"):  # Ideal
        return sum(len(g.terms) for g in value.generators)
    if hasattr(value, "entries"):  # GeneratorSet
        return sum(len(e.polynomial.terms) for e in value.entries)
    if isinstance(value, tuple):  # matrix of polynomials
        return sum(_terms(x) for x in value)
    return 0


def _budget_hook(ComputeBudget, extra=None):
    """``before`` hook for ``method(self, x, budget=None)``.

    Passes a default-cap budget of its own when the caller gave none, so that
    the count hook can read what the call spent from it.
    """

    def before(args, kwargs):
        budget = args[2] if len(args) > 2 else kwargs.pop("budget", None)
        args = args[:2]
        budget = budget if budget is not None else ComputeBudget()
        kwargs["budget"] = budget
        state = (budget, budget.pairs_used, budget.steps_used)
        return args, kwargs, state + (extra(args, kwargs) if extra else ())

    return before


def _basis_built(args, kwargs):
    """Whether the call will build a basis rather than return a cached one.

    Reads the ideal's per-order cache; without one every call builds.
    """
    ideal = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order")
    return ((order or ideal.ring.ambient_order) not in getattr(ideal, "_cache", {}),)


def _basis_count(state, gb):
    budget, pairs, steps, built = state
    return {
        "built": int(built),
        "pairs": budget.pairs_used - pairs,
        "steps": budget.steps_used - steps,
        "basis_len": len(gb) if built else 0,
        "nvars": gb.ring.nvars,
    }


def _hooks(ComputeBudget) -> dict:
    """Span name -> (before, count) for the spans that carry counts."""
    return {
        "groebner.Ideal.groebner_basis": (
            _budget_hook(ComputeBudget, _basis_built),
            _basis_count,
        ),
        "groebner.GroebnerBasis.normal_form": (
            _budget_hook(ComputeBudget),
            lambda state, _: {"steps": state[0].steps_used - state[2]},
        ),
        "quiver.enumerate_paths": (None, lambda _, r: {"paths": len(r)}),
        "quiver.enumerate_cycles_in_k": (None, lambda _, r: {"paths": len(r)}),
        "kernel.kernel_generators": (None, lambda _, r: {"generators": len(r)}),
        "verification.run_verification": (
            None,
            lambda _, r: {"trials": sum(c.trials for c in r.checks)},
        ),
    }


def install() -> Tracer:
    """Wrap the quivinv public functions; ``quivinv.cli`` must be imported."""
    tracer = Tracer()
    modules = {name: sys.modules[f"quivinv.{name}"] for name in LAYERS}
    hooks = _hooks(modules["groebner"].ComputeBudget)
    namespaces = [m for n, m in sys.modules.items() if n == "quivinv" or n.startswith("quivinv.")]
    for module, fname in FUNCTIONS:
        original = getattr(modules[module], fname)
        name = f"{module}.{fname}"
        before, count = hooks.get(name, (None, None))
        if module == "invariants" and count is None:
            count = lambda _, result: {"terms": _terms(result)}
        traced = tracer.wrap(name, original, count, before)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, traced)
    for module, cls_name, meth in METHODS:
        cls = getattr(modules[module], cls_name)
        name = f"{module}.{cls_name}.{meth}"
        before, count = hooks.get(name, (None, None))
        setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], count, before))
    return tracer


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced job (times in seconds)."""
    spans = tracer.spans
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    def total(name):
        return sum(s[3] - s[2] for s in spans if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    for name, parent, start, end, covered, counts in spans:
        add(f"{_layer(name)}.self_s", end - start - covered)
        outer = parent < 0 or _layer(spans[parent][0]) != _layer(name)
        if name == "groebner.Ideal.groebner_basis":
            add("groebner.basis_calls", counts["built"])
            for key in ("pairs", "steps", "basis_len"):
                add(f"groebner.{key}", counts[key])
        elif name == "groebner.GroebnerBasis.normal_form":
            add("groebner.nf_steps", counts["steps"])
        elif name.startswith("quiver.enumerate"):
            add("quiver.paths_enumerated", counts["paths"])
        elif name == "kernel.kernel_generators":
            add("kernel.generators_n", counts["generators"])
        elif name == "verification.run_verification":
            add("verification.trials", counts["trials"])
        if name in _MATRIX_SPANS and (parent < 0 or spans[parent][0] not in _MATRIX_SPANS):
            add("invariants.matrix_s", end - start)
        if _layer(name) == "invariants" and outer:
            add("invariants.terms_out", counts["terms"])

    basis_s = total("groebner.Ideal.groebner_basis")
    out.update(
        {
            "groebner.basis_s": basis_s,
            "groebner.nf_calls": calls("groebner.GroebnerBasis.normal_form"),
            "groebner.nf_s": total("groebner.GroebnerBasis.normal_form"),
            "invariants.generators_s": total("invariants.lusztig_generators"),
            "invariants.trace_calls": calls("invariants.trace_poly"),
            "invariants.trace_s": total("invariants.trace_poly"),
            "kernel.kernel_generators_s": total("kernel.kernel_generators"),
            "kernel.present_s": total("kernel.present_invariant_ring"),
            "kernel.present_self_s": sum(
                s[3] - s[2] - s[4] for s in spans if s[0] == "kernel.present_invariant_ring"
            ),
            "polyring.mul_calls": calls("polyring.Polynomial.__mul__")
            + calls("polyring.Polynomial.__rmul__"),
            "polyring.mul_s": total("polyring.Polynomial.__mul__")
            + total("polyring.Polynomial.__rmul__"),
            "polyring.format_s": total("polyring.Polynomial.__str__"),
            "evaluation.eval_calls": calls("evaluation.eval_poly"),
            "evaluation.eval_s": total("evaluation.eval_poly"),
            "evaluation.invariance_s": total("evaluation.check_invariance"),
            "verification.run_s": total("verification.run_verification"),
        }
    )
    for key in (
        "groebner.basis_calls", "groebner.pairs", "groebner.steps", "groebner.basis_len",
        "groebner.nf_steps", "quiver.paths_enumerated", "kernel.generators_n",
        "verification.trials", "invariants.matrix_s", "invariants.terms_out",
    ):
        out.setdefault(key, 0)
    out["groebner.steps_per_s"] = out["groebner.steps"] / basis_s if basis_s else 0.0
    return out


def basis_calls(tracer: Tracer) -> list[dict]:
    """Counts of each basis computation that built a basis, in call order."""
    return [
        {"seconds": s[3] - s[2], **s[5]}
        for s in tracer.spans
        if s[0] == "groebner.Ideal.groebner_basis" and s[5]["built"]
    ]
