"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole file stays within a few minutes on a laptop.
"""

import json
import time

import numpy as np
import pytest

from squareprop import cli, corpus, pipeline
from squareprop.characters import (check_prop31, find_characters,
                                   nonexistence_explanation)
from squareprop.algebra import nonsingular
from squareprop.pipeline import PipelineConfig, fuzz, verify_theorem
from squareprop.quaternion import qmul, qnorm
from squareprop.seminorm import OperatorNorm
from squareprop.spectral import gelfand_radius, spectrum

from oracles import (full_spectrum_match, in_spectrum_paper_def,
                     is_invertible, j_evaluate, manifest_pair)

ALL_CORPUS = ("reals", "complexes", "quaternions", "m2_reals", "rr", "rrc",
              "hc", "h2", "nonunital3")
PASS_PAIRS = ("rr_coordinate_max", "rr_component_sup", "rrc_spectral_radius",
              "h_character_sup", "hc_character_sup")

_pass_reports = {}


def _report_line(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_fuzz_no_counterexamples():
    start = time.time()
    summary = fuzz(PipelineConfig(seed=42), iterations=10000)
    elapsed = time.time() - start
    ok = not summary.counterexamples and elapsed <= 300.0
    _report_line(1, ok,
                 f"10^4 fuzz instances, {len(summary.counterexamples)} "
                 f"counterexamples, {summary.checked} hypothesis-passing, "
                 f"{elapsed:.1f}s")
    # the whole summary, unchanged since the dense eigenvalue path
    assert summary.to_dict() == {
        "iterations": 10000, "seed": 42, "tol": 1e-09, "checked": 6851,
        "square_rejections": 3149,
        "kind_counts": {"character_sup": 3392, "coordinate_max": 3313,
                        "spectral_radius": 3295},
        "counterexamples": []}


@pytest.mark.parametrize("pair_name", PASS_PAIRS)
def test_criterion_2_pipeline_pass_set(pair_name):
    pair = next(p for p in corpus.MANIFEST if p.name == pair_name)
    algebra, p = manifest_pair(pair)
    start = time.time()
    rep = verify_theorem(algebra, p, PipelineConfig(seed=2))
    elapsed = time.time() - start
    _pass_reports[pair_name] = rep
    ok = rep.verdict == "pass" and elapsed <= 30.0
    if pair_name == "rr_component_sup":
        ok = ok and rep.kernel_dim == 1
    _report_line(2, ok, f"{pair_name} verdict={rep.verdict} "
                        f"kernel_dim={rep.kernel_dim} {elapsed:.1f}s")


def test_criterion_3_hypothesis_rejection():
    pair = next(p for p in corpus.MANIFEST if p.name == "c_coordinate_sum")
    algebra, p = manifest_pair(pair)
    rep = verify_theorem(algebra, p, PipelineConfig(seed=2))
    ok = (rep.verdict == "hypothesis_not_met"
          and rep.square_property_residual >= 0.4)
    _report_line(3, ok,
                 f"l1 on C: verdict={rep.verdict}, square residual "
                 f"{rep.square_property_residual:.3f} at witness "
                 f"{rep.square_witness}")


def test_criterion_4_spectral_agreement():
    rng = np.random.default_rng(4)
    worst = 0.0
    ok = True
    for name in ALL_CORPUS:
        A = corpus.builtin(name)
        for _ in range(100):
            a = A.element(rng.standard_normal(A.dim))
            res = spectrum(a)
            g = gelfand_radius(a, norm=OperatorNorm().value)
            worst = max(worst, abs(g - res.radius) / (1.0 + res.radius))
            ok &= abs(g - res.radius) <= 1e-6 * (1.0 + res.radius)
            if not A.is_unital:
                continue
            for z in res.points:
                ok &= in_spectrum_paper_def(a, z.real, z.imag)
                r = abs(z)
                w = z * (r + 0.1) / r if r > 0 else complex(0.1, 0.0)
                if min(abs(w - v) for v in res.points) > 0.05:
                    ok &= not in_spectrum_paper_def(a, w.real, w.imag)
    _report_line(4, ok,
                 f"Gelfand vs spectral radius agreement over all corpus "
                 f"algebras, worst relative gap {worst:.2e}; membership "
                 f"oracle consistent at and 0.1 beyond the spectrum")


def test_criterion_5_quaternion_laws():
    rng = np.random.default_rng(5)
    P = rng.standard_normal((10000, 4))
    Q = rng.standard_normal((10000, 4))
    R = rng.standard_normal((10000, 4))
    np_ = np.linalg.norm(P, axis=1)
    nq = np.linalg.norm(Q, axis=1)
    mult_err = np.max(np.abs(np.linalg.norm(qmul(P, Q), axis=1)
                             - np_ * nq) / (np_ * nq))
    assoc = qmul(qmul(P, Q), R) - qmul(P, qmul(Q, R))
    scale = (np_ * nq * np.linalg.norm(R, axis=1))[:, None]
    assoc_err = np.max(np.abs(assoc) / scale)
    sq_err = np.max(np.abs(np.linalg.norm(qmul(P, P), axis=1)
                           - np_ ** 2) / np_ ** 2)
    ok = mult_err <= 1e-12 and assoc_err <= 1e-12 and sq_err <= 1e-12
    _report_line(5, ok,
                 f"10^4 samples: |pq|=|p||q| err {mult_err:.2e}, "
                 f"associativity err {assoc_err:.2e}, |q^2|=|q|^2 err "
                 f"{sq_err:.2e}")


def test_criterion_6_prop31_on_products():
    rng = np.random.default_rng(6)
    ok = True
    detail = []
    for name in ("rr", "rrc", "hc", "h2"):
        A = corpus.builtin(name)
        chars = find_characters(A)
        ok &= len(chars) > 0
        matched = int(full_spectrum_match(
            A, rng.standard_normal((100, A.dim)), chars, tol=1e-6).sum())
        ok &= matched == 100
        X = rng.standard_normal((100, A.dim))
        ok &= check_prop31(A, X, chars).forward_ok
        # random elements are a.s. invertible
        ok &= nonsingular(A.left_matrices_batch(X)).sum() >= 90
        # witnessed non-invertible element: the unit of the first part alone
        witness = np.zeros(A.dim)
        witness[0] = 1.0
        w = A.element(witness)
        ok &= not is_invertible(w)
        ok &= min(qnorm(q) for q in j_evaluate(w, chars)) <= 1e-10
        detail.append(f"{name}:{len(chars)}ch/{matched}match")
    _report_line(6, ok,
                 "sp(a) equals the union of character spectra on R/C/H "
                 "products; invertibility transfer and non-invertible "
                 "witnesses hold (" + ", ".join(detail) + ")")


def test_criterion_7_character_negative_control():
    m2 = corpus.m2_reals()
    ok = len(find_characters(m2)) == 0
    note = nonexistence_explanation(m2)
    ok &= note is not None and "E12" in note and "m*r(a)" in note
    assert spectrum(m2.element([0, 1, 0, 0])).radius == 0.0
    _report_line(7, ok,
                 f"M2(R): empty character set from its block decomposition; "
                 f"note: {note}")


def test_criterion_8_iterate_relation():
    ok = True
    for name in PASS_PAIRS:
        rep = _pass_reports.get(name)
        if rep is None:
            pair = next(p for p in corpus.MANIFEST if p.name == name)
            algebra, p = manifest_pair(pair)
            rep = verify_theorem(algebra, p, PipelineConfig(seed=2))
        for n, res in enumerate(rep.iterate_relation_residuals, start=1):
            ok &= res <= 1e-8 * 2.0 ** n
        ok &= rep.radius_match_residual <= 1e-6
    _report_line(8, ok,
                 "||b^(2^n)|| iterate relation within 1e-8*2^n for n<=10 and "
                 "||b|| = m*r(b) within 1e-6 on all pass instances")


def test_criterion_9_cli_determinism(capsys):
    invocations = [
        ["verify", "--algebra", "rrc", "--seminorm", "spectral_radius",
         "--samples", "400", "--seed", "7", "--format", "json"],
        ["fuzz", "--iterations", "200", "--seed", "7", "--format", "json"],
        ["characters", "--algebra", "hc", "--seed", "7", "--format", "json"],
        ["spectrum", "--algebra", "quaternions", "--element", "1 1 1 1",
         "--format", "json"],
    ]
    ok = True
    for argv in invocations:
        cli.run(argv)
        first = capsys.readouterr().out
        cli.run(argv)
        second = capsys.readouterr().out
        ok &= first.encode() == second.encode()
        ok &= json.loads(first) is not None
    _report_line(9, ok, "repeated CLI invocations with identical seeds "
                        "produce byte-identical JSON")
