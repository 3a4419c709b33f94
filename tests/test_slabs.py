"""Stage 1 and the ratio scan of stages 2 and 9 stream their rows in slabs.

Each check walks its rows a slab of at most seminorm._SLAB_BYTES at a time
and keeps one value per row, so it returns what one evaluation of the
whole stack returns: the same verdicts and values bit for bit at any
budget, a NaN first where np.argmax puts it, and the same empty-scan
results.  A stack that fits one slab makes the calls of one
stack, and the working set no longer grows with the stacks.
"""

import contextlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from squareprop import cli, corpus, pipeline, seminorm
from squareprop.algebra import FiniteDimRealAlgebra
from squareprop.seminorm import (M_HAT_FLOOR, CoordinateMax, SeminormVariant,
                                 SpectralRadius, _ratio_scan, _square_probes,
                                 check_submultiplicative, estimate_m,
                                 square_property_details)

from transforms import rotated


def _algebra_file(path, A):
    path.write_text(json.dumps({
        "name": A.name, "dim": A.dim, "basis": A.labels,
        "table": [[*map(int, ijk), float(A.table[ijk])]
                  for ijk in zip(*np.nonzero(A.table))],
        "unit": A.unit.tolist()}))
    return str(path)


def _verify(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify", *argv, "--format", "json"])
    return code, out.getvalue()


@pytest.mark.parametrize("case", ["H8", "H16", "rotated_hc", "rr"])
def test_verify_prints_the_same_bytes_in_the_smallest_slabs(case, tmp_path,
                                                             monkeypatch):
    """verify's JSON with a budget of one byte, so that every slab holds
    the least rows it may (two, or three rather than leave one alone), is
    byte for byte its JSON at the default budget, which holds H^8's and
    H^16's stacks in several slabs and the small algebras' in one.  The
    rotated hc has a dense table, where a one-row product would round
    otherwise."""
    if case == "rr":
        argv = ["--algebra", "rr", "--seminorm", "coordinate_max"]
    else:
        A = {"H8": lambda: corpus.function_algebra_H(8),
             "H16": lambda: corpus.function_algebra_H(16),
             "rotated_hc": lambda: rotated(corpus.builtin("hc"), 3)[0]}[case]()
        argv = ["--algebra", _algebra_file(tmp_path / "a.json", A),
                "--seminorm", "spectral_radius"]
    code, out = _verify(argv)
    monkeypatch.setattr(seminorm, "_SLAB_BYTES", 1)
    assert _verify(argv) == (code, out)
    assert json.loads(out)["verdict"] == "pass"


class _NanOn(CoordinateMax):
    """CoordinateMax, but NaN on every row equal to one of `rows`."""

    def __init__(self, rows):
        super().__init__()
        object.__setattr__(self, "rows", np.asarray(rows))  # frozen

    def values(self, algebra, X):
        v = super().values(algebra, X)
        v[(X[:, None, :] == self.rows[None]).all(axis=2).any(axis=1)] = np.nan
        return v


_BUDGETS = {"smallest": 1, "default": None, "whole": 1 << 30}


def _results(monkeypatch, check):
    """check() in the smallest slabs, at the default budget and in one
    slab."""
    default = seminorm._SLAB_BYTES
    got = {}
    for name, budget in _BUDGETS.items():
        monkeypatch.setattr(seminorm, "_SLAB_BYTES", budget or default)
        got[name] = check()
    return got


def test_a_nan_in_a_later_slab_is_the_square_witness(monkeypatch):
    """NaN residuals on random rows 700 and 1500 of rr: the first one is
    the residual and the witness at every budget, as np.argmax on the
    whole stack picks it."""
    A = corpus.builtin("rr")
    R = np.random.default_rng(3).standard_normal((2000, A.dim))
    p = _NanOn([R[700], R[1500]])
    got = _results(monkeypatch,
                   lambda: square_property_details(p, A, 2000, 3))
    for sq in got.values():
        assert math.isnan(sq.residual)
        assert np.array_equal(sq.witness, R[700])


def _scan_products(A, samples, seed):
    """(product rows, pair) of the ratio scan of CoordinateMax on A."""
    seen = []

    class _Seen(SeminormVariant):
        def values(self, algebra, X):
            seen.append(X.copy())
            return CoordinateMax().values(algebra, X)

    _, pair = _ratio_scan(_Seen(), A, samples, seed)
    return np.concatenate(seen)[A.dim + 2 * samples:], pair


def test_a_nan_in_a_later_slab_is_the_ratio_witness(monkeypatch):
    """NaN ratios on product rows 900 and 1800 of the scan on rr: the first
    one is the witness at every budget, and both check_submultiplicative
    and estimate_m give NaN, as they do on the whole stack."""
    A = corpus.builtin("rr")
    prods, pair = _scan_products(A, 2000, 4)
    p = _NanOn([prods[900], prods[1800]])
    got = _results(monkeypatch, lambda: (
        check_submultiplicative(p, A, 2000, 4), estimate_m(p, A, 2000, 4)))
    for ratio, m in got.values():
        assert math.isnan(ratio) and math.isnan(m.m_hat)
        assert all(np.array_equal(x, y) for x, y in zip(m.pair, pair(900)))


def test_a_nan_ratio_in_stage_2_fails_verify():
    """A NaN from p on product row 900 of the stage-2 scan on rr is the
    working constant itself, not the floor 1e-12 inside the m_hat gate:
    verify gives fail with m_hat NaN, and warns nothing."""
    A = corpus.builtin("rr")
    config = pipeline.PipelineConfig(seed=0)
    prods, _ = _scan_products(A, config.sample_count, config.seed + 1)
    p = _NanOn([prods[900]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = pipeline.verify_theorem(A, p, config)
    assert math.isnan(rep.m_hat) and rep.verdict == "fail"


def test_an_all_masked_scan_gives_zero_and_the_floor(monkeypatch):
    """p = 0 masks every pair: the ratio is 0.0 and m_hat the floor, with a
    zero pair, at every budget."""
    A = corpus.builtin("rr")
    p = CoordinateMax((0.0, 0.0))
    got = _results(monkeypatch, lambda: (
        check_submultiplicative(p, A, 200, 1), estimate_m(p, A, 200, 1)))
    for ratio, m in got.values():
        assert ratio == 0.0 and m.m_hat == M_HAT_FLOOR
        assert all(np.array_equal(x, np.zeros(A.dim)) for x in m.pair)


def test_zero_samples_scan_the_basis_alone(monkeypatch):
    """With no random pairs the scan is the basis sweep, the same at every
    budget."""
    A = corpus.builtin("rrc")
    got = _results(monkeypatch, lambda: (
        check_submultiplicative(SpectralRadius(), A, 0, 1),
        estimate_m(SpectralRadius(), A, 0, 1).m_hat))
    assert len(set(got.values())) == 1


def _peak(fn) -> int:
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stage_1_and_the_ratio_scan_hold_a_bounded_working_set(monkeypatch):
    """On H^16 (dim 64, 2000 samples) with the probes and the spectral
    split built first, the tracemalloc peak of stage 1 stays under 2 MiB
    (the draw R is 1 MiB of it) and that of one ratio scan under 3.5 MiB
    (the draw [I; Xa; Xb], 2 MiB).  Measured on NumPy 2.4: 1.59 and 3.02
    MiB at 128 KiB a slab, 1.50 and 2.77 at 64 KiB; the whole stacks at
    once peaked at 13.6 and 10.9 MiB.  A smaller budget holds less."""
    A = corpus.function_algebra_H(16)
    p = SpectralRadius()
    _square_probes(A), A.spectral_split
    peaks = []
    for budget in (128 << 10, 64 << 10):
        monkeypatch.setattr(seminorm, "_SLAB_BYTES", budget)
        peaks.append((_peak(lambda: square_property_details(p, A, 2000, 1)),
                      _peak(lambda: estimate_m(p, A, 2000, 2))))
    for stage_1, scan in peaks:
        assert stage_1 < 2 << 20 and scan < 3.5 * (1 << 20)
    assert peaks[1][0] <= peaks[0][0] and peaks[1][1] <= peaks[0][1]


def test_a_fuzz_chunk_makes_the_calls_of_one_stack_per_check(monkeypatch):
    """A fuzz instance's stacks fit one slab, so its checks call p once on
    the square stack and twice in the ratio scan, and multiply once in
    each: 50 instances at seed 42 (37 checked) make 124 calls of values and
    89 of mul_coords_batch, 2 of them from naming the spectral blocks, as
    when each check evaluated whole stacks."""
    calls = {"values": 0, "mul": 0}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    for cls in (seminorm.CharacterSup, SpectralRadius, CoordinateMax):
        monkeypatch.setattr(cls, "values", counting("values", cls.values))
    monkeypatch.setattr(FiniteDimRealAlgebra, "mul_coords_batch", counting(
        "mul", FiniteDimRealAlgebra.mul_coords_batch))
    summary = pipeline.fuzz(pipeline.PipelineConfig(seed=42), 50)
    assert summary.checked == 37
    assert calls == {"values": 50 + 2 * 37, "mul": 50 + 37 + 2}
