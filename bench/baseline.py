"""Record a baseline: every workload at several seeds, plus a trace check.

    python3 bench/baseline.py [--seeds 10] [--workloads fuzz hn ...]
                              [--out bench/baseline.json]

For each workload it runs ``run.py --trace 0`` once per seed (seeds 1..N)
and reports, per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
next to the metric's bound, and the same for the unscaled wall-clock
medians of the ``raw`` line.  It then runs ``run.py --trace 1`` twice at
seed 1 and checks that every count (each per-layer metric whose unit is
not ``s`` and that is not ``trace.overhead_frac``) repeats exactly, and
that the traced runs' output digest equals the untraced one at seed 1.
Results from another machine are only comparable when ``env`` matches.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    info = dict(line.split(" ", 1) for line in lines[:-1])
    env = json.loads(info["env"])
    digest = info["run"].rsplit("digest=", 1)[1]
    raw = {k: float(v) for k, v in
           re.findall(r"(\w+)=([\d.]+)", info.get("raw", ""))}
    return env, digest, raw, json.loads(lines[-1])


def _stats(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread,
           "values": values}
    if bound is not None:
        out.update(bound=bound,
                   spread_within_third_of_bound=spread < bound / 3)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report = {"run_seconds": seconds, "seeds": list(range(1, args.seeds + 1)),
              "workloads": {}}
    started = time.monotonic()
    for workload in args.workloads:
        runs, digests, raws = [], [], []
        for seed in report["seeds"]:
            env, digest, raw, res = _run(workload, seed, seconds, 0)
            runs.append(res)
            digests.append(digest)
            raws.append(raw)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in res["metrics"].items()),
                  file=sys.stderr)
        report["env"] = dict(env, seed=None)
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "ops_failed_frac": [r["failed"] / r["attempted"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {
                m["name"]: _stats([r["metrics"][m["name"]]["value"]
                                   for r in runs], m["bound"])
                for m in spec["end_to_end"]},
            "raw": {name: _stats([r[name] for r in raws], None)
                    for name in ("wall_s", "setup_s", "reference_s")},
        }
        traced = [_run(workload, 1, seconds, 1) for _ in range(2)]
        entry["trace_digest_matches_untraced"] = all(
            digest == digests[0] for _, digest, _, _ in traced)
        traced = [res for *_, res in traced]
        counts = [{name: t["metrics"][name]["value"]
                   for name, unit in per_layer_units.items()
                   if unit != "s" and name != "trace.overhead_frac"}
                  for t in traced]
        entry["trace_counts_repeat"] = counts[0] == counts[1]
        entry["trace_correct"] = all(t["correct"] for t in traced)
        entry["per_layer_seed1"] = {name: v["value"] for name, v
                                    in traced[0]["metrics"].items()}
        report["workloads"][workload] = entry
        print(f"{workload}: done at {time.monotonic() - started:.0f} s",
              file=sys.stderr)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
