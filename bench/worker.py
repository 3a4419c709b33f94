"""One workload in one fresh process; started by ``run.py``, not by hand.

Every mode imports squareprop, builds the workload's fixed inputs and its
first sweep, notes the moment the first op would start and times the
reference task a few times, to rescale set-up time.  Then:
  setup    stop there;
  measure  time sweeps with tracing off, starting a new one while less
           than ``--seconds`` have passed (at least one); runs of the
           reference task (``reference.py``) follow every op, and times
           are reported in reference seconds as well as raw;
  trace    run each sweep twice, untraced and traced (alternating which
           goes first), compare their output digests and summarise the
           traced spans per layer; new pairs start while less than
           ``--seconds`` have passed.

Sweep indices start at ``--first-sweep``, so processes of one run that
start at different indices never repeat each other's inputs.

One closed loop, one op at a time, no threads.  The result is one JSON
object written to the original stdout; anything the library prints goes
to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from reference import Reference, rescale

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
SETUP_REFERENCES = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--first-sweep", type=int, default=0)
    return ap.parse_args(argv)


class Harness:
    """Runs ops, judges each output, counts attempted and failed ops.

    An op fails when it raises or when its checked output differs from
    the expected one; either way it is reported on stderr and the run goes
    on.  ``tracer.op`` is kept at the id of the op in flight.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def run(self, op):
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception:
            latency = time.perf_counter() - t0
            self.failed += 1
            print(f"FAILED {op.label}: raised\n{traceback.format_exc()}",
                  file=sys.stderr)
            return latency, "raised"
        latency = time.perf_counter() - t0
        try:
            check, digest = op.observe(result)
        except Exception:
            self.failed += 1
            print(f"FAILED {op.label}: output could not be read\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            return latency, "unreadable"
        if check != op.expected:
            self.failed += 1
            print(f"FAILED {op.label}: expected {op.expected!r}, "
                  f"got {check!r}", file=sys.stderr)
        return latency, digest

    def sweep(self, ops, after_op=None):
        """(sweep wall time, op latencies, op digests); ``after_op(latency)``
        is called after each op, outside its timing."""
        latencies, digests = [], []
        for op in ops:
            latency, digest = self.run(op)
            latencies.append(latency)
            digests.append(digest)
            if after_op is not None:
                after_op(latency)
        return sum(latencies), latencies, digests


def _digest(digests) -> str:
    text = json.dumps(digests, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _measure(workload, ops, index, seconds, harness, reference):
    """Sweeps until ``seconds`` have passed (at least one), with runs of
    the reference task before the first op and after every op; sweep walls
    and op latencies are returned in reference seconds."""
    start = time.perf_counter()
    references = [reference.sample()]
    sizes, latencies, digests = [], [], None
    while True:
        _, lats, sweep_digests = harness.sweep(
            ops, after_op=lambda t: references.append(reference.sample(t)))
        digests = digests or sweep_digests
        sizes.append(len(lats))
        latencies.extend(lats)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
        ops = workload.sweep(index)
    scaled = rescale(latencies, references)
    ends = list(itertools.accumulate(sizes))
    return {
        "correct": True,
        "digest": _digest(digests),
        "sweep_walls": [sum(scaled[e - n:e]) for n, e in zip(sizes, ends)],
        "latencies": scaled,
        "raw_sweep_walls": [sum(latencies[e - n:e])
                            for n, e in zip(sizes, ends)],
        "reference_s": statistics.median(t for runs in references
                                         for t in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _trace(workload, ops, index, seconds, harness, spans_path):
    from tracing import Tracer, all_layer_names

    tracer = Tracer()
    start = time.perf_counter()
    plain, traced, summaries, marks = [], [], [], []
    correct, first_digest = True, None
    while True:
        runs = {}
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                harness.tracer = tracer
                since = tracer.mark()
                marks.append(since[0])
            try:
                runs[with_trace] = harness.sweep(ops)
            finally:
                tracer.uninstall()
                harness.tracer = None
        plain.append(runs[False][0])
        traced.append(runs[True][0])
        summaries.append(tracer.layer_metrics(since))
        digest, traced_digest = _digest(runs[False][2]), _digest(runs[True][2])
        first_digest = first_digest or digest
        if digest != traced_digest:
            correct = False
            print(f"MISMATCH sweep {index}: untraced digest {digest}, "
                  f"traced {traced_digest}", file=sys.stderr)
        silent = [n for n in workload.layers if not summaries[-1][n + ".calls"]]
        if silent:
            correct = False
            print(f"SILENT sweep {index}: no calls recorded for {silent}",
                  file=sys.stderr)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
        ops = workload.sweep(index)
    _write_spans(tracer, marks, spans_path)

    first = summaries[0]
    layers = {}
    for name in all_layer_names():
        if name.endswith("_s"):
            layers[name] = statistics.median(s[name] for s in summaries)
        else:
            layers[name] = first[name]
    restarts = first["characters.find.restarts"]
    layers["characters.find.yield"] = (
        first["characters.find.found"] / restarts if restarts else 0.0)
    layers["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
    return {"correct": correct, "sweeps": len(plain), "digest": first_digest,
            "untraced_wall_s": statistics.median(plain),
            "traced_wall_s": statistics.median(traced), "layers": layers}


def _write_spans(tracer, marks, path):
    """All spans as JSON lines [sweep, id, parent, op, name, start, end],
    times in seconds from the first span."""
    path.parent.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    bounds = marks + [len(tracer.spans)]
    with open(path, "w", encoding="utf-8") as fh:
        for sweep in range(len(marks)):
            for idx in range(bounds[sweep], bounds[sweep + 1]):
                name, start, end, parent, op = tracer.spans[idx][:5]
                fh.write(json.dumps([sweep, idx, parent, op, name,
                                     round(start - t0, 6),
                                     round(end - t0, 6)]) + "\n")


def _environment(seed):
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    out = sys.stdout
    sys.stdout = sys.stderr     # keep library prints out of the result
    sys.path.insert(0, str(SRC))
    import squareprop
    if Path(squareprop.__file__).resolve().parent != SRC / "squareprop":
        print(f"squareprop imported from {squareprop.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    index = args.first_sweep
    ops = workload.sweep(index)
    result = {"first_op": time.monotonic()}
    reference = Reference()
    # how fast the machine was around set-up, to rescale set-up time
    result["setup_reference_s"] = statistics.median(
        reference.run() for _ in range(SETUP_REFERENCES))
    if args.mode != "setup":
        harness = Harness()
        if args.mode == "measure":
            result.update(_measure(workload, ops, index, args.seconds,
                                   harness, reference))
        else:
            spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result.update(_trace(workload, ops, index, args.seconds, harness,
                                 spans))
        result.update(attempted=harness.attempted, failed=harness.failed,
                      env=_environment(args.seed))
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
