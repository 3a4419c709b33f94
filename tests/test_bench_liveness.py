"""The benchmark's required trace layers still record calls.

``bench/workloads.py`` names, per workload, the trace layers that must
record calls in every traced sweep; a silent layer, or a traced run whose
outputs differ from the untraced one, makes a traced benchmark run report
``correct: false``.  This runs a small slice of each workload under
``bench/tracing.Tracer`` so that a library change which stops calling a
required layer fails here, not first in the benchmark.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench(request):
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(BENCH))
    request.addfinalizer(mp.undo)
    return (importlib.import_module("tracing"),
            importlib.import_module("workloads"))


def _slice(workloads, name):
    """The workload and the ops of its first sweep: one fuzz chunk, one
    manifest sweep, the H^2 ops of hn, and structure at dim 11 (H^2 and
    the null algebra)."""
    class H2(workloads.Hn):
        POINTS = (2,)

    class Structure11(workloads.Structure):
        COPIES = (2,)

    kinds = {"fuzz": workloads.Fuzz, "manifest": workloads.Manifest, "hn": H2,
             "structure": Structure11}
    workload = kinds[name](1)
    ops = workload.sweep(0)
    return workload, ops[:1] if name == "fuzz" else ops


def _run(ops):
    checks, digests = [], []
    for op in ops:
        check, digest = op.observe(op.call())
        checks.append(check == op.expected)
        digests.append(digest)
    return checks, digests


@pytest.mark.parametrize("name", ["fuzz", "manifest", "hn", "structure"])
def test_required_layers_record_calls(bench, name):
    tracing, workloads = bench
    workload, ops = _slice(workloads, name)
    checks, plain = _run(ops)
    assert all(checks)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        _, traced = _run(ops)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(since)
    silent = [layer for layer in workload.layers
              if not metrics[layer + ".calls"]]
    assert silent == []
    assert traced == plain
