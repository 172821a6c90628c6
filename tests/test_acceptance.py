"""Acceptance suite for the worked two-vertex example.

Each test prints one PASS line (visible with ``pytest -s``); every value
asserted below was transcribed by hand or derived from an independent oracle,
never from the code under test.  CLI-level criteria run the installed package
in a subprocess.
"""

import json
import subprocess
import sys
import time
from importlib import resources

import pytest

from quivinv import (
    Ideal,
    ideal_equal,
    kernel_generators,
    parse_presentation,
    rep_ideal,
    ring_for,
    run_verification,
)

from conftest import monic

# -- transcriptions -----------------------------------------------------------

KERNEL_8 = [
    "x[c;1,1]*x[f;1,1] + x[c;2,1]*x[f;1,2] - x[d;1,1]*x[e;1,1] - x[d;2,1]*x[e;1,2]",
    "x[c;1,2]*x[f;1,1] + x[c;2,2]*x[f;1,2] - x[d;1,2]*x[e;1,1] - x[d;2,2]*x[e;1,2]",
    "x[c;1,1]*x[f;2,1] + x[c;2,1]*x[f;2,2] - x[d;1,1]*x[e;2,1] - x[d;2,1]*x[e;2,2]",
    "x[c;1,2]*x[f;2,1] + x[c;2,2]*x[f;2,2] - x[d;1,2]*x[e;2,1] - x[d;2,2]*x[e;2,2]",
    "x[d;1,1]*x[e;1,1] + x[d;1,2]*x[e;2,1] - x[c;1,1]*x[f;1,1] - x[c;1,2]*x[f;2,1]",
    "x[d;1,1]*x[e;1,2] + x[d;1,2]*x[e;2,2] - x[c;1,1]*x[f;1,2] - x[c;1,2]*x[f;2,2]",
    "x[d;2,1]*x[e;1,1] + x[d;2,2]*x[e;2,1] - x[c;2,1]*x[f;1,1] - x[c;2,2]*x[f;2,1]",
    "x[d;2,1]*x[e;1,2] + x[d;2,2]*x[e;2,2] - x[c;2,1]*x[f;1,2] - x[c;2,2]*x[f;2,2]",
]

TABLE_12 = [
    "x[c;1,1]*x[e;1,1] + x[c;2,1]*x[e;1,2]",
    "x[c;1,2]*x[e;1,1] + x[c;2,2]*x[e;1,2]",
    "x[c;1,1]*x[e;2,1] + x[c;2,1]*x[e;2,2]",
    "x[c;1,2]*x[e;2,1] + x[c;2,2]*x[e;2,2]",
    "x[c;1,1]*x[f;1,1] + x[c;2,1]*x[f;1,2]",
    "x[c;1,2]*x[f;1,1] + x[c;2,2]*x[f;1,2]",
    "x[c;1,1]*x[f;2,1] + x[c;2,1]*x[f;2,2]",
    "x[c;1,2]*x[f;2,1] + x[c;2,2]*x[f;2,2]",
    "x[d;1,1]*x[f;1,1] + x[d;2,1]*x[f;1,2]",
    "x[d;1,2]*x[f;1,1] + x[d;2,2]*x[f;1,2]",
    "x[d;1,1]*x[f;2,1] + x[d;2,1]*x[f;2,2]",
    "x[d;1,2]*x[f;2,1] + x[d;2,2]*x[f;2,2]",
]


def bundled(name: str) -> str:
    with resources.as_file(resources.files("quivinv").joinpath("data", name)) as path:
        return str(path)


def run_cli(*argv):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "quivinv", *argv], capture_output=True, text=True
    )
    return proc, time.monotonic() - start


@pytest.fixture(scope="module")
def shipped():
    with open(bundled("a1_preprojective.quiver"), encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def report(number: int, label: str, elapsed: float = None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} PASS: {label}{timing}")


def test_criterion_1_representation_ideal(shipped):
    proc, elapsed = run_cli(
        "kernel", bundled("a1_preprojective.quiver"),
        "--max-u", "0", "--max-w", "0", "--K", "", "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["count"] == 8
    ring = ring_for(shipped)
    got = {str(monic(ring.parse(g["polynomial"]))) for g in payload["generators"]}
    want = {str(monic(ring.parse(s))) for s in KERNEL_8}
    assert got == want
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report(1, "kernel at bound (0,0) with nothing frozen equals the 8 displayed generators", elapsed)


def test_criterion_2_generator_table(shipped):
    proc, elapsed = run_cli(
        "generators", bundled("a1_preprojective.quiver"),
        "--max-len", "2", "--select", "ec,fc,fd", "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["count"] == 12
    ring = ring_for(shipped)
    got = [ring.parse(g["polynomial"]) for g in payload["generators"]]
    want = [ring.parse(s) for s in TABLE_12]
    assert got == want
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"

    proc2, _ = run_cli(
        "generators", bundled("a1_preprojective.quiver"), "--max-len", "2", "--format", "json"
    )
    payload2 = json.loads(proc2.stdout)
    assert payload2["count"] == 16
    extra = {g["word"] for g in payload2["generators"]} - {g["word"] for g in payload["generators"]}
    assert extra == {"ed"}
    report(2, "generator table: 12 selected polynomials exact, 16 without selection", elapsed)


def test_criterion_3_elimination_matches_reference():
    proc, elapsed = run_cli(
        "present", bundled("a1_preprojective.quiver"),
        "--max-len", "2", "--select", "ec,fc,fd",
        "--compare", bundled("paper13.txt"), "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr  # code 3 would mean budget exceeded
    payload = json.loads(proc.stdout)
    assert payload["compare"]["equal"] is True
    assert elapsed < 600, f"took {elapsed:.2f}s, budget 600s"
    report(3, "elimination ideal equals the 13 reference generators", elapsed)


def test_criterion_4_kernel_containment(shipped):
    start = time.monotonic()
    proc, _ = run_cli(
        "kernel", bundled("a1_preprojective.quiver"),
        "--max-u", "2", "--max-w", "2", "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["count"] > 0
    ring = ring_for(shipped)
    gb = rep_ideal(shipped).groebner_basis()
    failures = [
        g["label"]
        for g in payload["generators"]
        if not gb.reduces_to_zero(ring.parse(g["polynomial"]))
    ]
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed < 120, f"took {elapsed:.2f}s, budget 120s"
    report(
        4,
        f"all {payload['count']} kernel generators at bound (2,2) lie in the defining ideal",
        elapsed,
    )


def test_criterion_5_property_suites(shipped):
    start = time.monotonic()
    result = run_verification(shipped, seed=0, max_len=2, max_u=1, max_w=1)
    elapsed = time.monotonic() - start
    by_name = {c.name: c for c in result.checks}
    assert by_name["product_law"].passed and by_name["product_law"].trials == 50
    assert by_name["trace_rotation"].passed and by_name["trace_rotation"].trials == 50
    assert by_name["lusztig_invariance"].passed
    assert by_name["kernel_invariance"].passed
    assert by_name["traversal"].passed and by_name["traversal"].trials == 30
    assert by_name["lift_independence"].passed and by_name["lift_independence"].trials == 30
    assert by_name["framed_correspondence"].passed
    assert by_name["path_count_oracle"].passed and by_name["path_count_oracle"].trials == 5
    assert result.passed
    assert elapsed < 60, f"took {elapsed:.2f}s, budget 60s"
    report(5, "all property suites pass at seed 0", elapsed)


def test_criterion_6_unfrozen_degeneration(shipped):
    start = time.monotonic()
    free = shipped.with_frozen([])
    gens = kernel_generators(free, 0, 0)
    got = Ideal(ring_for(free), [g.polynomial for g in gens])
    assert ideal_equal(got, rep_ideal(free))
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"took {elapsed:.2f}s, budget 5s"
    report(6, "kernel at bound (0,0) with nothing frozen generates the defining ideal", elapsed)


def test_criterion_7_example_pipeline_deterministic():
    first, t1 = run_cli("example-a1")
    second, t2 = run_cli("example-a1")
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["compare_with_reference"] is True
    report(7, "two pipeline runs emit byte-identical JSON", t1 + t2)
