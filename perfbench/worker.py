"""One repetition of a workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON line. Set-up ends once ``liprec`` is
imported and the problem file is written, and is stamped with
``time.monotonic``, which is system-wide on Linux, so the parent can time
set-up from the moment it spawned this process. The calibration scan runs
next; with ``--setup-only`` the process stops there. Otherwise it makes
one in-process call to ``liprec.cli.main``, runs the calibration scan
again, and reports the call's wall time and exit code, both calibration
times and the peak resident memory of the process, plus per-layer spans
when traced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--problem", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # liprec first: it sizes the BLAS pool from LIPREC_THREADS before numpy loads.
    sys.path.insert(0, SRC)
    import liprec.cli

    if not os.path.abspath(liprec.__file__).startswith(SRC + os.sep):
        print(f"imported liprec from {liprec.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import workloads

    if args.workload == "selftest":
        argv = ["selftest", "--out", args.report]
    else:
        with open(args.problem, "w") as handle:
            json.dump(workloads.problem_for(args.workload, args.seed), handle)
        argv = ["run", args.problem, "--out", args.report]
    setup_done = time.monotonic()
    calibration = [workloads.calibration_scan()]
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "calibration_s": calibration}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = liprec.cli.main(argv)
        run_s = time.perf_counter() - start
    calibration.append(workloads.calibration_scan())
    record = {
        "setup_done": setup_done,
        "calibration_s": calibration,
        "run_s": run_s,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "version": liprec.__version__,
    }
    if tracer is not None:
        record["layers"] = tracer.summary()
        record["self_total_s"] = tracer.self_total()
        record["spans"] = tracer.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
