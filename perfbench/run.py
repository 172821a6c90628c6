"""quivinv benchmark: command-line jobs on the bundled A1 quiver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory.  Each job is one ``quivinv.cli.main(argv)`` call in a fresh
interpreter (perfbench/job.py), because the package caches its ring, path
matrices and representation ideal per presentation for the life of the
process, and a command-line user pays the cold cost on every run.  Jobs run
one after another, each single-threaded, in a closed loop for S seconds.

Every job is checked: the exit code must be 0, the standard output must match
the sha256 recorded from the reference commit (perfbench/digests.json), the
``present`` job must report equality with the hand-written reference, and the
``kernel`` output gets an independent spot check against direct matrix
products at random points.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json: medians of job wall time, job CPU time, set-up time and peak
RSS.  With ``--trace 1`` untraced and traced jobs alternate; the traced ones
wrap each quivinv module's public functions (perfbench/spans.py) and the last
line reports the per-layer metrics, medians over traced jobs, together with
the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BUNDLED = "src/quivinv/data/a1_preprojective.quiver"
BUNDLED_DIMS = (2, 2)
PAPER13 = "src/quivinv/data/paper13.txt"

# verify seeds 0..3, so that every run's jobs cover nearly the same seeds: the
# verify time differs by up to 20 % from seed to seed
VERIFY_SEEDS = 4
SETUP_PROBES = 8  # set-up-only children per run, besides one per job
KERNEL_SAMPLES = 32  # kernel generators spot-checked per distinct output
JOB_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # present | kernel | verify
    dims: tuple[int, int]
    reference: str = PAPER13  # hand-written relations for ``present --compare``

    def quiver(self) -> str:
        """Path of the A1 quiver file at this workload's dims, relative to ROOT.

        Other dims are written from the bundled file with only [dims] changed.
        """
        if self.dims == BUNDLED_DIMS:
            return BUNDLED
        text = (ROOT / BUNDLED).read_text("utf-8")
        dims = "[dims]\n0 = {}\n1 = {}\n"
        changed = text.replace(dims.format(*BUNDLED_DIMS), dims.format(*self.dims))
        if changed == text:
            raise RuntimeError(f"no [dims] section {BUNDLED_DIMS} in {BUNDLED}")
        path = WORK / f"a1_{self.dims[0]}{self.dims[1]}.quiver"
        path.write_text(changed, encoding="utf-8")
        return str(path.relative_to(ROOT))

    def argv(self, quiver: str, verify_seed: int) -> list[str]:
        if self.command == "present":
            return ["present", quiver, "--select", "ec,fc,fd", "--compare", self.reference,
                    "--format", "json"]
        if self.command == "kernel":
            return ["kernel", quiver, "--max-u", "2", "--max-w", "2", "--format", "json"]
        return ["verify", quiver, "--seed", str(verify_seed), "--format", "json"]

    def digest_key(self, verify_seed: int) -> str:
        return f"{self.name}@{verify_seed}" if self.command == "verify" else self.name


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("present-a1-22", "present", (2, 2)),
        Workload("kernel-a1-32", "kernel", (3, 2)),
        Workload("verify-a1-32", "verify", (3, 2)),
    )
}
# Dims (1,1): the same three shapes in about 0.01 s per job, for smoke.py.
SMOKE = {
    w.name: w
    for w in (
        Workload(f"{command}-a1-11", command, (1, 1), reference="perfbench/a1_11_reference.txt")
        for command in ("present", "kernel", "verify")
    )
}


@dataclass
class Job:
    kind: str  # "probe", "untraced" or "traced"
    verify_seed: int = 0
    setup_s: float = 0.0
    job_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    wall_s: float = 0.0  # spawn to reap, for pacing the run
    output: bytes = b""
    layers: dict | None = None
    basis_calls: list | None = None
    failure: str | None = None


def spawn(kind: str, argv: list[str], index: int) -> Job:
    """Run one child to completion; read its CPU time and peak RSS with wait4."""
    out_path = WORK / f"job{index}.out"
    err_path = WORK / f"job{index}.err"
    result_path = WORK / f"job{index}.json"
    trace_arg = {"probe": "--probe", "untraced": "-"}.get(kind, str(WORK / f"trace{index}.json"))
    args = [sys.executable, str(BENCH / "job.py"), str(result_path), trace_arg, *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    job = Job(kind)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
    # block in wait4 rather than poll; the alarm kills a child that hangs
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(JOB_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    job.wall_s = time.monotonic() - start
    if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
        job.failure = f"killed after {JOB_TIMEOUT_S} s"
        return job
    job.cpu_s = usage.ru_utime + usage.ru_stime
    job.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
    job.output = out_path.read_bytes()
    code = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(result_path.read_text("utf-8"))
    except (OSError, ValueError):
        result = None
    if result is None or code != 0 or result["exit"] != 0:
        stderr = err_path.read_text("utf-8", "replace").strip().splitlines()
        job.failure = f"exit {code}: {stderr[-1] if stderr else 'no result'}"
        return job
    if Path(result["module"]).resolve().parent.parent != SRC:
        job.failure = f"imported quivinv from {result['module']}, not from {SRC}"
        return job
    job.setup_s = result["ready"] - start
    job.job_s = result.get("job_s", 0.0)
    job.layers = result.get("layers")
    job.basis_calls = result.get("basis_calls")
    return job


def check_output(workload: Workload, job: Job, digests: dict) -> str | None:
    """Why the job's output is wrong, or None."""
    want = digests.get(workload.digest_key(job.verify_seed))
    got = hashlib.sha256(job.output).hexdigest()
    if want is None:
        return f"no recorded digest for {workload.digest_key(job.verify_seed)}"
    if got != want:
        return f"stdout sha256 {got[:12]} differs from the recorded {want[:12]}"
    payload = json.loads(job.output)
    if workload.command == "present" and payload.get("compare", {}).get("equal") is not True:
        return "present does not match the reference relations"
    if workload.command == "verify" and payload.get("pass") is not True:
        return "verification failed"
    return None


def check_kernel(quiver: str, output: bytes, seed: int) -> str | None:
    """Spot-check emitted kernel generators against direct matrix products.

    Each sampled generator u*g*w is evaluated at a random point twice: by
    substituting the point into the emitted polynomial, and by multiplying the
    arrow matrices along u, the relation g and w.
    """
    from quivinv.evaluation import eval_poly, mat_mul, mat_trace, path_product, random_rep
    from quivinv.invariants import ring_for
    from quivinv.quiver import path_from_word
    from quivinv.quiverfile import load_presentation

    pres = load_presentation(str(ROOT / quiver))
    ring = ring_for(pres)
    gens = json.loads(output)["generators"]
    rng = random.Random(seed)
    for gen in rng.sample(gens, min(KERNEL_SAMPLES, len(gens))):
        point = random_rep(pres, rng.randrange(2**31))
        relation = pres.relation(gen["relation"]).element
        g = None
        for path, coef in relation.terms:
            term = tuple(tuple(coef * x for x in row) for row in path_product(pres, point, path))
            g = term if g is None else tuple(
                tuple(a + b for a, b in zip(r, s)) for r, s in zip(g, term)
            )
        u = path_product(pres, point, path_from_word(pres.quiver, gen["u"]))
        w = path_product(pres, point, path_from_word(pres.quiver, gen["w"]))
        m = mat_mul(mat_mul(u, g), w)
        want = mat_trace(m) if gen["kind"] == "trace" else m[gen["i"] - 1][gen["j"] - 1]
        got = eval_poly(ring.parse(gen["polynomial"]), pres, point)
        if got != want:
            return f"kernel generator {gen['label']} is {got} at a point where u*g*w gives {want}"
    return None


def run_jobs(workload: Workload, quiver: str, seed: int, seconds: float, trace: bool):
    """Set-up probes, then jobs until the next one would overrun ``seconds``."""
    spawn("probe", [], 0)  # unmeasured: writes the bytecode caches
    start = time.monotonic()
    jobs = [spawn("probe", [], 0) for _ in range(SETUP_PROBES)]
    kinds = ("untraced", "traced") if trace else ("untraced",)
    ran = 0
    while True:
        kind = kinds[ran % len(kinds)]
        # successive jobs take successive verify seeds; a traced job takes
        # the seed of the untraced job before it, which it is compared with
        verify_seed = (seed + ran // len(kinds)) % VERIFY_SEEDS
        job = spawn(kind, workload.argv(quiver, verify_seed), ran + 1)
        job.verify_seed = verify_seed
        jobs.append(job)
        ran += 1
        typical = statistics.median(j.wall_s for j in jobs[SETUP_PROBES:])
        if ran >= len(kinds) and time.monotonic() + typical > start + seconds:
            return jobs
        if job.failure and job.failure.startswith("killed"):  # do not try again
            return jobs


def check_jobs(workload: Workload, quiver: str, jobs: list[Job], digests: dict, seed: int):
    """Check each job's output and print one line per job; the jobs, no probes."""
    report = [j for j in jobs if j.kind != "probe"]
    kernel_checked: dict[bytes, str | None] = {}
    for n, job in enumerate(report, 1):
        if job.failure is None:
            job.failure = check_output(workload, job, digests)
        if job.failure is None and workload.command == "kernel":
            if job.output not in kernel_checked:
                kernel_checked[job.output] = check_kernel(quiver, job.output, seed)
            job.failure = kernel_checked[job.output]
        seed_note = f" seed={job.verify_seed}" if workload.command == "verify" else ""
        print(
            f"{workload.name} job {n} {job.kind}{seed_note} job_s={job.job_s:.4f} "
            f"cpu_s={job.cpu_s:.4f} setup_s={job.setup_s:.4f} rss_mb={job.rss_mb:.1f} "
            f"{job.failure or 'ok'}"
        )
    return report


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(jobs: list[Job]) -> dict[str, float]:
    untraced = [j for j in jobs if j.kind == "untraced" and not j.failure]
    return {
        "job_s": median([j.job_s for j in untraced]),
        "cpu_s": median([j.cpu_s for j in untraced]),
        "setup_s": median([j.setup_s for j in jobs if not j.failure]),
        "peak_rss_mb": median([j.rss_mb for j in untraced]),
    }


def per_layer(jobs: list[Job]) -> dict[str, float]:
    untraced = [j for j in jobs if j.kind == "untraced" and not j.failure]
    traced = [j for j in jobs if j.kind == "traced" and not j.failure]
    if not traced:
        return {}
    for call in traced[0].basis_calls:
        print("basis call: " + " ".join(f"{k}={v}" for k, v in call.items()))
    values = {key: median([j.layers[key] for j in traced]) for key in traced[0].layers}
    values["cli.output_bytes"] = median([len(j.output) for j in traced])
    values["trace.overhead_s"] = median([j.job_s for j in traced]) - median(
        [j.job_s for j in untraced]
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, *SMOKE])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # job arguments are paths relative to the checkout root

    if not (SRC / "quivinv" / "cli.py").is_file() or not (ROOT / PAPER13).is_file():
        print(f"error: no quivinv sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    digests = json.loads((BENCH / "digests.json").read_text("utf-8"))
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS.get(args.workload) or SMOKE[args.workload]
    quiver = workload.quiver()
    jobs = run_jobs(workload, quiver, args.seed, args.seconds, bool(args.trace))
    report = check_jobs(workload, quiver, jobs, digests, args.seed)
    failed = sum(1 for j in report if j.failure)
    values = per_layer(jobs) if args.trace else end_to_end(jobs)
    names = {m["name"] for m in declared}
    if values and set(values) != names:
        print(f"error: metrics {sorted(set(values) ^ names)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(report),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
