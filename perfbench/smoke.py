"""Smoke check of the benchmark harness on the A1 quiver at dims (1,1).

    python3 perfbench/smoke.py

Runs the three workload shapes through run.py, untraced and traced, at about
0.01 s per job; checks each result line against BENCHMARK.json and
layers.json; and checks that the output checks reject tampered output.
Prints each problem found and exits 1 if there is any.
"""

import json
import os
import sys

import run
from spread import result_line


def harness_problems(spec: dict) -> list[str]:
    problems = []
    layers = json.loads((run.BENCH / "layers.json").read_text("utf-8"))
    if [m["name"] for m in spec["per_layer"]] != list(layers):
        problems.append("layers.json does not list exactly the per_layer metrics")
    for workload in run.SMOKE:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = result_line(workload, 3, 1, trace)
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
            if not trace and not all(v["value"] > 0 for v in result["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric is not positive")
    return problems


def check_problems() -> list[str]:
    """The output checks must pass real output and reject tampered output."""
    problems = []
    digests = json.loads((run.BENCH / "digests.json").read_text("utf-8"))
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    workload = run.SMOKE["kernel-a1-11"]
    quiver = workload.quiver()
    job = run.spawn("untraced", workload.argv(quiver, 0), 0)
    if job.failure or run.check_output(workload, job, digests):
        problems.append(f"kernel-a1-11 output rejected: {job.failure or 'digest'}")
    if run.check_kernel(quiver, job.output, 0):
        problems.append("independent kernel check rejects the real output")
    payload = json.loads(job.output)
    for gen in payload["generators"]:
        gen["polynomial"] += " + 1"
    tampered = json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n"
    if run.check_kernel(quiver, tampered, 0) is None:
        problems.append("independent kernel check accepts tampered polynomials")
    job.output = tampered
    if run.check_output(workload, job, digests) is None:
        problems.append("digest check accepts tampered output")
    return problems


def main() -> int:
    os.chdir(run.ROOT)  # job arguments are paths relative to the checkout root
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    problems = check_problems() + harness_problems(spec)
    for problem in problems:
        print(problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
