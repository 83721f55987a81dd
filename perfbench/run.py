"""Benchmark for liprec: four workloads timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs made from --seed by perfbench/workloads.py):
  theorem3_sheet  `liprec run` on a theorem3 task, n = 4000 signals on a
                  2-D sheet in R^6: pair scans dominate
  mwet_dense      `liprec run` on an mwet task, n = 1500 Gaussian signals in
                  R^8, 2e4 audit queries: min-form evaluation dominates
  rip_exhaust     `liprec run` on a rip task, 12x28 operator, S = 3: the
                  exhaustive subset-spectra enumeration dominates
  selftest        `liprec selftest`: hundreds of small calls into the same
                  kernels (fixed inputs; the seed does not change them)

Every repetition is one `liprec.cli.main` call in a fresh interpreter, one
at a time (a closed loop with a single client), so module-level caches
such as the acceptance suite's fitted instances never carry over and the
peak resident memory belongs to one workload. A run makes one warm-up
repetition, then SETUP_SAMPLES set-up-only processes, then timed
repetitions until --seconds is used up, and at least MIN_REPS of them.
Every report is gated against the seed's reference
(perfbench/workloads.py); a repetition fails on a non-zero exit code, a
failed assertion or any difference in a certified payload.

--trace 0 prints the end-to-end metrics, as medians over the timed
repetitions:
  run_s        wall time of the `liprec.cli.main` call, calibrated
  setup_s      interpreter start, `import liprec`, problem generated and
               written; median over the set-up-only processes and the
               timed repetitions, calibrated
  peak_rss_mb  peak resident memory of the repetition's process
  pass_frac    repetitions that passed the gate / repetitions attempted,
               warm-up included (the complement of the failure fraction,
               so that it is never 0)
"Calibrated" means that each sample is multiplied by CAL_REF_S over the
time of a fixed kernel (workloads.calibration_scan) that the same worker
process runs right after set-up and again right after the liprec call.
The shared host this benchmark was built on changes speed by up to 50%
for tens of seconds at a time; the per-process factor takes most of that
out (IQR/median of 8-repetition medians of mwet_dense run_s: 0.15
uncalibrated, 0.04 calibrated), and liprec cannot change the kernel.
Uncalibrated medians are printed and kept in the output record.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of perfbench/spans.py (medians over traced
repetitions, seconds calibrated), the tracing overhead and the share of
run_s the traced functions account for.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A fuller record, with the environment block, every
repetition and, when traced, every span, is written once at the end to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

MIN_REPS = 3          # timed repetitions in a --trace 0 run
MIN_TRACE_PAIRS = 2   # untraced/traced pairs in a --trace 1 run
SETUP_SAMPLES = 6
TIME_LIMIT_S = 170.0  # whole run, set-up and reference included

# Time of workloads.calibration_scan on the machine the bounds were set on
# (2-vCPU Firecracker VM, Python 3.11.7, numpy 2.4.6) in a quiet period.
CAL_REF_S = 0.09

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(seed: int, child_env: Dict[str, str]) -> Dict[str, Any]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "seed": seed,
        "LIPREC_THREADS": child_env["LIPREC_THREADS"],
        "blas_env": {k: child_env[k] for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in child_env},
    }


class Runner:
    """Spawns worker processes one at a time inside a work directory."""

    def __init__(self, workload: str, seed: int, workdir: str, env: Dict[str, str],
                 time_limit: float):
        self.workload, self.seed, self.workdir, self.env = workload, seed, workdir, env
        self.time_limit = time_limit
        self.count = 0

    def spawn(self, *, traced: bool = False, setup_only: bool = False) -> Dict[str, Any]:
        """Run one worker; returns its record, or {"error": ...} when it broke."""
        self.count += 1
        tag = f"{self.count:04d}"
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(int(traced)),
               "--problem", os.path.join(self.workdir, f"problem-{tag}.json"),
               "--report", os.path.join(self.workdir, f"report-{tag}.json")]
        if setup_only:
            cmd.append("--setup-only")
        timeout = self.time_limit - time.monotonic()
        if timeout <= 0:
            return {"error": "time limit reached"}
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=self.env,
                                  cwd=ROOT, timeout=timeout, text=True)
        except subprocess.TimeoutExpired:
            return {"error": f"worker exceeded {timeout:.0f} s"}
        wall = time.monotonic() - spawned
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"worker exited with {proc.returncode}"}
        record = json.loads(lines[-1])
        record["setup_s"] = record.pop("setup_done") - spawned
        record["speed"] = CAL_REF_S / statistics.fmean(record["calibration_s"])
        record["wall_s"] = wall
        record["report"] = cmd[cmd.index("--report") + 1]
        return record


def gate(workload: str, record: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
    """Reasons this repetition failed; empty when it passed."""
    import workloads

    if "error" in record:
        return [record["error"]]
    if record["exit_code"] != 0:
        return [f"liprec exited with {record['exit_code']}"]
    try:
        with open(record["report"]) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable report: {exc}"]
    finally:
        if os.path.exists(record["report"]):
            os.unlink(record["report"])
    try:
        return workloads.check_report(workload, report, ref)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(args: argparse.Namespace, runner: Runner, ref: Dict[str, Any]) -> Dict[str, Any]:
    """A warm-up repetition, the set-up samples, then repetitions for --seconds."""

    def repetition(traced: bool, warmup: bool = False) -> Dict[str, Any]:
        record = runner.spawn(traced=traced)
        record.update(traced=traced, warmup=warmup,
                      failures=gate(args.workload, record, ref))
        return record

    # The warm-up fills bytecode, file and page caches; it is gated and
    # counted as an attempt, but its times are not used.
    reps = [repetition(traced=False, warmup=True)]
    setups = []
    for _ in range(SETUP_SAMPLES):
        record = runner.spawn(setup_only=True)
        if "error" in record:
            raise RuntimeError(f"set-up failed: {record['error']}")
        setups.append(record)

    kinds = [False, True] if args.trace else [False]
    minimum = MIN_TRACE_PAIRS if args.trace else MIN_REPS
    timed: List[Dict[str, Any]] = []
    deadline = time.monotonic() + args.seconds
    while True:
        record = repetition(traced=kinds[len(timed) % len(kinds)])
        timed.append(record)
        if record.get("error") == "time limit reached":
            break
        enough = all(sum(1 for r in timed if r["traced"] == k) >= minimum for k in kinds)
        typical = median([r.get("wall_s", 0.0) for r in timed])
        if enough and time.monotonic() + typical > deadline:
            break
    setups += [r for r in timed if "setup_s" in r]
    return {"reps": reps + timed, "setups": setups}


def e2e_metrics(result: Dict[str, Any], calibrated: bool = True) -> Dict[str, float]:
    reps = result["reps"]
    passed = [r for r in reps if not r["failures"]]
    timed = [r for r in passed if not r["warmup"] and not r["traced"]]

    def seconds(records: List[Dict[str, Any]], key: str) -> float:
        return median([r[key] * (r["speed"] if calibrated else 1.0) for r in records])

    return {
        "run_s": seconds(timed, "run_s"),
        "setup_s": seconds(result["setups"], "setup_s"),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in timed]),
        "pass_frac": len(passed) / len(reps),
    }


def layer_metrics(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer medians over traced repetitions; seconds are calibrated."""
    import spans

    traced = [r for r in reps if r["traced"] and not r["failures"]]
    plain = [r for r in reps if not r["traced"] and not r["warmup"] and not r["failures"]]
    out = {name: median([r["layers"][name] * (r["speed"] if unit == "s" else 1.0)
                         for r in traced])
           for name, unit in spans.metric_units().items()}
    traced_run = median([r["run_s"] * r["speed"] for r in traced])
    plain_run = median([r["run_s"] * r["speed"] for r in plain])
    out["trace_overhead_frac"] = traced_run / plain_run - 1.0 if plain_run else 0.0
    out["trace_coverage_frac"] = median([r["self_total_s"] / r["run_s"] for r in traced])
    return out


def layer_units() -> Dict[str, str]:
    import spans

    return {**spans.metric_units(), "trace_overhead_frac": "ratio",
            "trace_coverage_frac": "ratio"}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "liprec", "cli.py")):
        print(f"error: no liprec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import workloads

    env = dict(os.environ, LIPREC_THREADS=str(os.cpu_count() or 1))
    info = environment(args.seed, env)
    print("env " + json.dumps(info, sort_keys=True), flush=True)

    ref_start = time.monotonic()
    if args.workload == "selftest":
        ref = workloads.load_selftest_reference()
    else:
        ref = workloads.reference(args.workload, workloads.problem_for(args.workload, args.seed))
    print(f"reference computed in {time.monotonic() - ref_start:.2f} s", flush=True)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, args.seed, workdir, env, started + TIME_LIMIT_S)
        result = measure(args, runner, ref)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = result["reps"]
    failed = sum(1 for r in reps if r["failures"])
    if args.trace:
        metrics, units = layer_metrics(reps), layer_units()
    else:
        metrics, units = e2e_metrics(result), E2E_UNITS
    raw = e2e_metrics(result, calibrated=False)

    for i, r in enumerate(reps):
        for reason in r["failures"]:
            print(f"FAIL repetition {i} ({'traced' if r['traced'] else 'untraced'}): {reason}")
    print(f"{args.workload} seed {args.seed}: {len(reps)} attempted, {failed} failed, "
          f"{len(result['setups'])} set-up samples, {time.monotonic() - started:.1f} s total; "
          f"uncalibrated medians: run {raw['run_s']:.4f} s, set-up {raw['setup_s']:.4f} s")
    for name, value in metrics.items():
        print(f"{name:<58} {value:>14.6g} {units[name]}")

    record = {"environment": info, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "metrics": metrics,
              "uncalibrated": {k: raw[k] for k in ("run_s", "setup_s")},
              "setup_samples": [{k: r[k] for k in ("setup_s", "speed")} for r in result["setups"]],
              "repetitions": [{k: v for k, v in r.items() if k not in ("spans", "report")}
                              for r in reps]}
    if args.trace:
        record["spans"] = [r.get("spans", []) for r in reps if r["traced"]]
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as handle:
        json.dump(record, handle)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
