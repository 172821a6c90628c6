"""Command-line frontend.

Subcommands: ``generators``, ``kernel``, ``present``, ``verify``, and
``example-a1`` (runs the full pipeline on the bundled two-vertex example).
Output is plain text by default or deterministic JSON with ``--format json``;
``example-a1`` always prints JSON.
Exit codes: 0 success, 1 verification/comparison failure, 2 input error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Callable, Optional, Sequence

from .groebner import BudgetExceededError, ComputeBudget, Ideal, ideal_equal
from .invariants import lusztig_generators, rep_ideal
from .kernel import kernel_generators, present_invariant_ring
from .polyring import RingError
from .quiver import Presentation, QuiverError, path_from_word
from .quiverfile import load_presentation, parse_presentation
from .verification import run_verification

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _budget(args: argparse.Namespace) -> Optional[ComputeBudget]:
    return None if args.budget is None else ComputeBudget(max_steps=args.budget)


def _load(args: argparse.Namespace) -> Presentation:
    pres = load_presentation(args.file)
    if args.K is not None:
        pres = pres.with_frozen([v for v in args.K.split(",") if v != ""])
    return pres


def _selection(args: argparse.Namespace, pres: Presentation):
    if args.select is None:
        return None
    return [path_from_word(pres.quiver, w) for w in args.select.split(",") if w]


def _data_text(name: str) -> str:
    return resources.files("quivinv").joinpath("data").joinpath(name).read_text("utf-8")


def _emit(args: argparse.Namespace, payload: dict, render: Callable[[dict], list[str]]):
    """Print the payload as JSON, or as the text lines ``render(payload)``."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in render(payload):
            print(line)


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


def cmd_generators(args: argparse.Namespace) -> int:
    pres = _load(args)
    gens = lusztig_generators(pres, args.max_len, _selection(args, pres))
    payload = {
        "command": "generators",
        "K": sorted(pres.frozen_vertices),
        "max_len": args.max_len,
        "count": len(gens),
        "generators": gens.to_jsonable(),
    }
    _emit(args, payload, _generator_lines)
    return EXIT_OK


def cmd_kernel(args: argparse.Namespace) -> int:
    pres = _load(args)
    kernel = kernel_generators(pres, args.max_u, args.max_w)
    payload = {
        "command": "kernel",
        "K": sorted(pres.frozen_vertices),
        "max_u": args.max_u,
        "max_w": args.max_w,
        "count": len(kernel),
        "generators": [k.to_jsonable() for k in kernel],
    }
    _emit(args, payload, _generator_lines)
    return EXIT_OK


def _compare_against(ip, compare_text: str, budget: Optional[ComputeBudget]) -> bool:
    ring = ip.fresh_ring
    polys = []
    for line in compare_text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            polys.append(ring.parse(line))
    return ideal_equal(ip.elimination_ideal, Ideal(ring, polys), budget=budget)


def cmd_present(args: argparse.Namespace) -> int:
    pres = _load(args)
    budget = _budget(args)
    compare_text = None
    if args.compare:  # read before the elimination, so a bad path fails fast
        with open(args.compare, "r", encoding="utf-8") as fh:
            compare_text = fh.read()
    ip = present_invariant_ring(pres, args.max_len, _selection(args, pres), budget)
    payload = {
        "command": "present",
        "K": sorted(pres.frozen_vertices),
        "max_len": args.max_len,
        **ip.to_jsonable(),
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
    _emit(args, {"command": "verify", **report.to_jsonable()}, _verify_lines)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_example_a1(args: argparse.Namespace) -> int:
    pres = parse_presentation(_data_text("a1_preprojective.quiver"))
    budget = _budget(args)
    selection = [path_from_word(pres.quiver, w) for w in ("ec", "fc", "fd")]

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
        "generators": gens.to_jsonable(),
        "kernel_unfrozen": [k.to_jsonable() for k in kernel_free],
        "kernel": [k.to_jsonable() for k in kernel],
        "invariant_presentation": ip.to_jsonable(),
        "compare_with_reference": compare_equal,
        "verification": report.to_jsonable(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not compare_equal:
        return EXIT_VERIFY
    return EXIT_OK if report.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivinv",
        description="Invariant-ring generators and relations for quivers with relations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_file=True):
        if with_file:  # example-a1 reads the bundled file and always prints JSON
            p.add_argument("file", help="quiver presentation file")
            p.add_argument("--K", default=None, help="override the frozen vertex set (comma list; empty for none)")
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--budget", type=int, default=None, help="reduction-step cap for the basis engine")

    p = sub.add_parser("generators", help="invariant-ring generators up to a length bound")
    common(p)
    p.add_argument("--max-len", type=int, default=2, dest="max_len")
    p.add_argument("--select", default=None, help="comma list of path words to keep")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("kernel", help="generators of the restriction-map kernel")
    common(p)
    p.add_argument("--max-u", type=int, default=1, dest="max_u")
    p.add_argument("--max-w", type=int, default=1, dest="max_w")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("present", help="present the invariant ring by elimination")
    common(p)
    p.add_argument("--max-len", type=int, default=2, dest="max_len")
    p.add_argument("--select", default=None, help="comma list of path words to keep")
    p.add_argument("--compare", default=None, help="file of reference generators to compare against")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("verify", help="run the seeded verification suite")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=2, dest="max_len")
    p.add_argument("--max-u", type=int, default=1, dest="max_u")
    p.add_argument("--max-w", type=int, default=1, dest="max_w")
    p.add_argument("--mutate", action="store_true", help="flip one relation coefficient (must fail)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example-a1", help="run the bundled worked example end to end")
    common(p, with_file=False)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_example_a1)

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
