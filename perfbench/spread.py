"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads present-a1-22,kernel-a1-32 --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

For each workload, runs ``run.py --trace 0`` once per seed for BENCHMARK.json's
``run_seconds`` and prints, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound.  With ``--baseline`` it also makes one
traced run per workload and writes every value to the given file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys

import run


def result_line(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--baseline", default=None, help="write all values to this JSON file")
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        results = [result_line(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in results]) for name in bounds
            },
        }
        for name, s in entry["end_to_end"].items():
            ok = name == "setup_s" or s["spread"] <= bounds[name] / 3
            steady = steady and ok
            print(f"{workload:14} {name:12} {units[name]:3} median {s['median']:10.4f}  "
                  f"q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f}  bound {bounds[name]}"
                  f"{'' if ok else '  (above a third of the bound)'}", flush=True)
        print(f"{workload:14} jobs per run {entry['attempted']}, failed {sum(entry['failed'])}")
        if args.baseline:
            traced = result_line(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
