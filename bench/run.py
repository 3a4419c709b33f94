"""squareprop benchmark: one workload per call, every metric by name and unit.

    python3 bench/run.py --workload {fuzz,manifest,hn,structure} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout that has ``src/squareprop``; the package is imported
from there, never from site-packages.  Each call starts fresh workload
processes (``worker.py``), so peak RSS belongs to one workload:

* ``--trace 0``: SETUP_PROCESSES processes that only set up, then
  PROCESSES processes in turn, each measuring for ``--seconds`` /
  PROCESSES and at least one sweep, with distinct sweep inputs.  Prints
  the ``end_to_end`` metrics of ``BENCHMARK.json``, taken over the sweeps
  and ops of all measuring processes; ``setup_s`` is the median set-up
  time of all processes, ``peak_rss_mb`` the largest peak of the
  measuring ones.  Times are in reference seconds (``reference.py``): each
  measured time is rescaled by a fixed reference task timed next to it in
  the same process, so that the shared machine's drift in speed cancels.
  The line ``raw ...`` before the result gives the unscaled medians.
  Every workload process runs on the same single core.
* ``--trace 1``: one process that runs each sweep untraced and traced.
  Prints the ``per_layer`` metrics: counts from the first traced sweep
  (they repeat exactly at a fixed seed), times as medians over traced
  sweeps, and ``trace.overhead_frac`` = traced / untraced wall - 1.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``.  ``failed`` counts ops whose output was wrong or that raised;
they are never dropped, and the line before gives ``ops_failed_frac`` =
failed / attempted.
``correct`` is false when the run cannot vouch for its own numbers: a
traced and an untraced execution of the same sweep disagree, or a layer
the workload must reach recorded no call.  Earlier lines give the
environment (Python, numpy, scipy, BLAS, OpenBLAS threads, nproc, seed),
which must match before two results are compared.

Exit code 2 for bad arguments or a missing ``src/squareprop``; 1 if a
workload process fails or the run overruns its time budget.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
PROCESSES = 2
SETUP_PROCESSES = 3
SWEEP_STRIDE = 1000     # process k starts at sweep index k * SWEEP_STRIDE
BUDGET_S = 170.0
# every matrix here is at most 65x65: one BLAS thread, so the two cores of
# a small box are not fought over by one op
BLAS_THREADS = "1"


class WorkerFailed(Exception):
    pass


def _parse(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _spawn(mode, args, deadline, seconds, first_sweep=0):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--mode", mode, "--first-sweep", str(first_sweep)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              cwd=ROOT, timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} process overran the time budget") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} process exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["first_op"] - launched
    result["setup_s"] = (result["raw_setup_s"] * REFERENCE_S
                         / result["setup_reference_s"])
    return result


def _end_to_end(setups, results):
    """Pool the measuring processes' sweeps and ops into one result."""
    walls = [w for r in results for w in r["sweep_walls"]]
    raw_walls = [w for r in results for w in r["raw_sweep_walls"]]
    latencies = [1e3 * t for r in results for t in r["latencies"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return dict(
        results[0], attempted=attempted, failed=failed,
        correct=all(r["correct"] for r in results), sweeps=len(walls),
        wall_s=statistics.median(walls),
        raw_wall_s=statistics.median(raw_walls),
        reference_s=statistics.median(r["reference_s"] for r in results),
        latency_p50_ms=statistics.median(latencies),
        latency_p90_ms=statistics.quantiles(latencies, n=10,
                                            method="inclusive")[-1],
        peak_rss_mb=max(r["peak_rss_mb"] for r in results),
        setup_s=statistics.median(r["setup_s"] for r in setups + results),
        raw_setup_s=statistics.median(r["raw_setup_s"]
                                      for r in setups + results))


def _select(wanted, values):
    """{name: {"value", "unit"}} for each metric declared in BENCHMARK.json."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise WorkerFailed(f"no value for declared metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "squareprop" / "__init__.py").is_file():
        print(f"error: no squareprop source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # every workload process on one fixed core: which core a process
    # landed on moved its speed by 5-10 %, more than the reference tracks
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            res = _spawn("trace", args, deadline, args.seconds)
            metrics = _select(spec["per_layer"], res["layers"])
        else:
            setups = [_spawn("setup", args, deadline, args.seconds)
                      for _ in range(SETUP_PROCESSES)]
            res = _end_to_end(setups, [
                _spawn("measure", args, deadline, args.seconds / PROCESSES,
                       first_sweep=SWEEP_STRIDE * k)
                for k in range(PROCESSES)])
            metrics = _select(spec["end_to_end"], res)
    except WorkerFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(res["env"], sort_keys=True))
    if not args.trace:
        print(f"raw wall_s={res['raw_wall_s']:.4f} "
              f"setup_s={res['raw_setup_s']:.4f} "
              f"reference_s={res['reference_s']:.5f} "
              f"(REFERENCE_S={REFERENCE_S})")
    print(f"run workload={args.workload} sweeps={res['sweeps']} "
          f"ops={res['attempted']} failed={res['failed']} "
          f"ops_failed_frac={res['failed'] / res['attempted']:.4f} "
          f"digest={res['digest']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
