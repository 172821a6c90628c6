"""The benchmark's jobs print exactly what ``perfbench/digests.json`` records.

Each of the six (1,1) jobs of ``perfbench/run.py``'s ``SMOKE``, the
``present-a1-22`` and ``kernel-a1-32`` workloads, and the four seeds of the
``verify-a1-32`` workload that a benchmark run cycles through, runs through
``cli.main`` with the harness's own argv, and the sha256 of its stdout is
compared with the recorded digest. A change to a random stream or to the
output format (the 1.5 MB kernel JSON, the present dictionary) then fails
here, not only in the benchmark. Files under ``perfbench/`` are only read;
the quiver is written to a temporary directory.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from quivinv.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


RUN = _load_run()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text("utf-8"))
def jobs(workloads):
    """Each job a benchmark run of these workloads can make, by digest key."""
    return {
        w.digest_key(seed): (w, seed)
        for w in workloads
        for seed in (range(RUN.VERIFY_SEEDS) if w.command == "verify" else [0])
    }


JOBS = jobs(RUN.SMOKE.values())
PINNED = {**JOBS, **jobs(RUN.WORKLOADS.values())}


def test_every_smoke_job_has_a_digest():
    assert len(JOBS) == 6  # present, kernel and four verify seeds
    assert set(JOBS) <= set(DIGESTS)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_smoke_stdout_matches_the_recorded_digest(key, capsys, monkeypatch, tmp_path):
    workload, seed = PINNED[key]
    # the quiver Workload.quiver() writes: the bundled file with [dims] changed
    dims = "[dims]\n0 = {}\n1 = {}\n"
    text = (RUN.ROOT / RUN.BUNDLED).read_text("utf-8")
    quiver = tmp_path / "a1.quiver"
    quiver.write_text(
        text.replace(dims.format(*RUN.BUNDLED_DIMS), dims.format(*workload.dims)), "utf-8"
    )
    monkeypatch.chdir(RUN.ROOT)  # the argv names the reference file relative to the root
    assert main(workload.argv(str(quiver), seed)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == DIGESTS[key]
