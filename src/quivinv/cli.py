"""Command-line frontend.

Subcommands: ``generators``, ``kernel``, ``present``, ``verify``, and
``example-a1`` (runs the full pipeline on the bundled two-vertex example).
Output is plain text by default or deterministic JSON with ``--format json``;
``example-a1`` always prints JSON.  Library functions return plain data
(dataclasses, polynomials, paths); this module alone defines the JSON and text
shapes of what they return.
Exit codes: 0 success, 1 verification/comparison failure, 2 input error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Callable, Optional, Sequence

from .groebner import BudgetExceededError, ComputeBudget, Ideal
from .invariants import lusztig_generators, rep_ideal
from .kernel import InvariantPresentation, kernel_generators, present_invariant_ring
from .polyring import RingError
from .quiver import Presentation, QuiverError
from .quiverfile import content_lines, load_presentation, parse_presentation, read_text
from .verification import VerificationReport, run_verification

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _budget(args: argparse.Namespace) -> Optional[ComputeBudget]:
    return None if args.budget is None else ComputeBudget(max_steps=args.budget)


def _comma_list(text: Optional[str]) -> Optional[list[str]]:
    """The nonempty items of a comma-list option, or None when it is not given."""
    return None if text is None else [item for item in text.split(",") if item]


def _load(args: argparse.Namespace) -> Presentation:
    pres = load_presentation(args.file)
    frozen = _comma_list(args.K)  # "" unfreezes every vertex
    return pres if frozen is None else pres.with_frozen(frozen)


def _data_text(name: str) -> str:
    return resources.files("quivinv").joinpath("data").joinpath(name).read_text("utf-8")


def _emit(args: argparse.Namespace, payload: dict, render: Callable[[dict], list[str]]):
    """Print the payload as JSON, or as the text lines ``render(payload)``."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in render(payload):
            print(line)


def _records(entries) -> list[dict]:
    """Generator records as JSON objects: their fields by name, polynomials and
    paths as text."""
    return [
        {k: v if isinstance(v, (int, str)) else str(v) for k, v in vars(e).items()}
        for e in entries
    ]


def _presentation(ip: InvariantPresentation) -> dict:
    return {
        "dictionary": [
            {"fresh": str(var), "generator": e.label, "word": e.word, "kind": e.kind,
             "i": e.i, "j": e.j}
            for var, e in ip.dictionary
        ],
        "elimination_ideal": [str(p) for p in ip.elimination_basis.polys],
    }


def _report(report: VerificationReport) -> dict:
    checks = [
        {"name": c.name, "trials": c.trials, "pass": c.passed}
        | ({} if c.witness is None else {"witness": c.witness})
        for c in report.checks
    ]
    return {"seed": report.seed, "bounds": report.bounds, "checks": checks, "pass": report.passed}


def _generator_lines(payload: dict) -> list[str]:
    return [f"{g['label']} = {g['polynomial']}" for g in payload["generators"]]


def _present_lines(payload: dict) -> list[str]:
    ideal = payload["elimination_ideal"]
    lines = [f"{d['fresh']} = {d['generator']}" for d in payload["dictionary"]]
    lines.append(f"elimination ideal ({len(ideal)} generators):")
    lines.extend(f"  {p}" for p in ideal)
    if "compare" in payload:
        lines.append(f"compare: {'equal' if payload['compare']['equal'] else 'NOT EQUAL'}")
    return lines


def _verify_lines(payload: dict) -> list[str]:
    lines = [
        f"{'PASS' if c['pass'] else 'FAIL'} {c['name']} ({c['trials']} trials)"
        + (f" witness={json.dumps(c['witness'], sort_keys=True)}" if c.get("witness") else "")
        for c in payload["checks"]
    ]
    lines.append(f"seed {payload['seed']}: {'all checks passed' if payload['pass'] else 'FAILED'}")
    return lines


def _emit_listing(args: argparse.Namespace, pres: Presentation, entries, **bounds) -> int:
    payload = {"command": args.subcommand, "K": sorted(pres.frozen_vertices), **bounds,
               "count": len(entries), "generators": _records(entries)}
    _emit(args, payload, _generator_lines)
    return EXIT_OK


def cmd_generators(args: argparse.Namespace) -> int:
    pres = _load(args)
    gens = lusztig_generators(pres, args.max_len, _comma_list(args.select))
    return _emit_listing(args, pres, gens, max_len=args.max_len)


def cmd_kernel(args: argparse.Namespace) -> int:
    pres = _load(args)
    kernel = kernel_generators(pres, args.max_u, args.max_w)
    return _emit_listing(args, pres, kernel, max_u=args.max_u, max_w=args.max_w)


def _compare_against(ip, compare_text: str, budget: Optional[ComputeBudget]) -> bool:
    ring = ip.elimination_basis.ring
    polys = [ring.parse(line) for _, line in content_lines(compare_text)]
    return Ideal(ring, polys).groebner_basis(budget=budget).polys == ip.elimination_basis.polys


def cmd_present(args: argparse.Namespace) -> int:
    pres = _load(args)
    budget = _budget(args)
    # read before the elimination, so a bad path fails fast
    compare_text = read_text(args.compare) if args.compare else None
    ip = present_invariant_ring(pres, args.max_len, _comma_list(args.select), budget)
    payload = {
        "command": "present",
        "K": sorted(pres.frozen_vertices),
        "max_len": args.max_len,
        **_presentation(ip),
    }
    equal = None
    if args.compare:
        equal = _compare_against(ip, compare_text, budget)
        payload["compare"] = {"file": args.compare, "equal": equal}
    _emit(args, payload, _present_lines)
    return EXIT_OK if equal in (None, True) else EXIT_VERIFY


def cmd_verify(args: argparse.Namespace) -> int:
    pres = _load(args)
    report = run_verification(
        pres,
        seed=args.seed,
        max_len=args.max_len,
        max_u=args.max_u,
        max_w=args.max_w,
        budget=_budget(args),
        mutate=args.mutate,
    )
    _emit(args, {"command": "verify", **_report(report)}, _verify_lines)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_example_a1(args: argparse.Namespace) -> int:
    pres = parse_presentation(_data_text("a1_preprojective.quiver"))
    budget = _budget(args)
    selection = ["ec", "fc", "fd"]

    ideal = rep_ideal(pres)
    gens = lusztig_generators(pres, 2, selection)
    kernel_free = kernel_generators(pres.with_frozen([]), 0, 0)
    kernel = kernel_generators(pres, 1, 1)
    ip = present_invariant_ring(pres, 2, selection, budget)
    compare_equal = _compare_against(ip, _data_text("paper13.txt"), budget)
    report = run_verification(pres, seed=args.seed, budget=budget)

    payload = {
        "command": "example-a1",
        "presentation": {
            "vertices": list(pres.quiver.vertices),
            "arrows": [[a.name, a.tail, a.head] for a in pres.quiver.arrows],
            "dims": {v: d for v, d in pres.dims.entries},
            "K": sorted(pres.frozen_vertices),
            "relations": {r.name: str(r.element) for r in pres.relations},
        },
        "representation_ideal": [str(g) for g in ideal.generators],
        "generators": _records(gens),
        "kernel_unfrozen": _records(kernel_free),
        "kernel": _records(kernel),
        "invariant_presentation": _presentation(ip),
        "compare_with_reference": compare_equal,
        "verification": _report(report),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if compare_equal and report.passed else EXIT_VERIFY


# Each option once, by dest: its flag and argparse keywords.
_OPTIONS = {
    "file": ("file", {"help": "quiver presentation file"}),
    "K": ("--K", {"help": "override the frozen vertex set (comma list; empty for none)"}),
    "format": ("--format", {"choices": ("text", "json"), "default": "text"}),
    "budget": ("--budget", {"type": int, "help": "reduction-step cap for the basis engine"}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "max_len": ("--max-len", {"type": int, "default": 2}),
    "max_u": ("--max-u", {"type": int, "default": 1}),
    "max_w": ("--max-w", {"type": int, "default": 1}),
    "select": ("--select", {"help": "comma list of path words to keep"}),
    "compare": ("--compare", {"help": "file of reference generators to compare against"}),
    "mutate": ("--mutate", {"action": "store_true", "help": "flip one relation coefficient (must fail)"}),
}

# Each subcommand's help, handler and option dests in --help order; example-a1
# reads the bundled file and always prints JSON.
_SUBCOMMANDS = {
    "generators": ("invariant-ring generators up to a length bound", cmd_generators,
                   "file K format budget max_len select"),
    "kernel": ("generators of the restriction-map kernel", cmd_kernel,
               "file K format budget max_u max_w"),
    "present": ("present the invariant ring by elimination", cmd_present,
                "file K format budget max_len select compare"),
    "verify": ("run the seeded verification suite", cmd_verify,
               "file K format budget seed max_len max_u max_w mutate"),
    "example-a1": ("run the bundled worked example end to end", cmd_example_a1, "budget seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivinv",
        description="Invariant-ring generators and relations for quivers with relations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, func, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in options.split():
            flag, keywords = _OPTIONS[dest]
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if min(getattr(args, bound, 0) for bound in ("max_len", "max_u", "max_w")) < 0:
            raise QuiverError("bounds must be nonnegative")
        if args.budget is not None and args.budget < 0:
            raise QuiverError("budget must be nonnegative")
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (QuiverError, RingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
