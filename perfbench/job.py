"""One quivinv command-line job in a fresh interpreter.

Started by run.py, one child at a time:

    python3 perfbench/job.py RESULT.json TRACE.json|- [quivinv CLI arguments...]
    python3 perfbench/job.py RESULT.json --probe

The job's standard output is the CLI's.  RESULT.json receives the monotonic
time at which ``quivinv.cli`` had been imported (the parent subtracts its own
spawn time to get the set-up time), the wall time of ``main(argv)``, the exit
code, and with a trace path the per-layer metrics of the traced job, whose
spans go to TRACE.json.  With ``--probe`` the child only imports and reports.
"""

import time

from quivinv import cli

READY = time.monotonic()

import json  # noqa: E402  (after the set-up measurement)
import sys  # noqa: E402


def main(result_path: str, trace_path: str, argv: list[str]) -> int:
    result = {"ready": READY, "module": cli.__file__}
    if trace_path == "--probe":
        code = 0
    else:
        tracer = None
        if trace_path != "-":
            import spans

            tracer = spans.install()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()
        result["job_s"] = time.perf_counter() - start
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer)
            result["basis_calls"] = spans.basis_calls(tracer)
            tracer.dump(trace_path)
    result["exit"] = code
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
