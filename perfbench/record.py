"""Record the sha256 of every benchmark job's standard output in digests.json.

Run once, on the commit whose outputs are the reference, from the root of a
checkout:

    python3 perfbench/record.py

Later commits must reproduce these bytes exactly; run.py checks every job
against them.
"""

import hashlib
import json
import os
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)  # job arguments are paths relative to the checkout root
    run.WORK.mkdir(exist_ok=True)
    digests = {}
    for workload in (*run.WORKLOADS.values(), *run.SMOKE.values()):
        quiver = workload.quiver()
        seeds = range(run.VERIFY_SEEDS) if workload.command == "verify" else (0,)
        for seed in seeds:
            job = run.spawn("untraced", workload.argv(quiver, seed), 0)
            key = workload.digest_key(seed)
            if job.failure:
                print(f"error: {key}: {job.failure}", file=sys.stderr)
                return 1
            digests[key] = hashlib.sha256(job.output).hexdigest()
            print(f"{key} {digests[key]} ({job.job_s:.2f} s)", flush=True)
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
