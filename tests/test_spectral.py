import math

import numpy as np
import pytest

from squareprop import corpus
from squareprop.algebra import NotUnital, make_algebra
from squareprop.quaternion import qspectrum
from squareprop.seminorm import OperatorNorm
from squareprop.spectral import gelfand_radius, log_square_norms, spectrum

from oracles import in_spectrum_paper_def

ALL_CORPUS = ("reals", "complexes", "quaternions", "m2_reals", "rr", "rrc",
              "hc", "h2", "nonunital3")


def _match(points, expected, tol=1e-8):
    return all(min(abs(z - w) for w in points) <= tol for z in expected) \
        and all(min(abs(z - w) for z in expected) <= tol for w in points)


def test_spectrum_examples():
    C = corpus.complexes()
    assert _match(spectrum(C.element([0, 1])).points, [1j, -1j])
    rr = corpus.builtin("rr")
    assert _match(spectrum(rr.element([2, -3])).points, [2, -3])
    H = corpus.quaternions()
    q = H.element([1, 1, 1, 1])
    assert _match(spectrum(q).points,
                  qspectrum(np.ones(4)))


def test_spectrum_conjugate_closed():
    rng = np.random.default_rng(5)
    for name in ALL_CORPUS:
        A = corpus.builtin(name)
        for _ in range(20):
            pts = spectrum(A.element(rng.standard_normal(A.dim))).points
            for z in pts:
                assert min(abs(z.conjugate() - w) for w in pts) <= 1e-8


def test_paper_definition_examples():
    C = corpus.complexes()
    i = C.element([0, 1])
    assert in_spectrum_paper_def(i, 0.0, 1.0)
    assert not in_spectrum_paper_def(i, 0.0, 0.5)
    m2 = corpus.m2_reals()
    assert in_spectrum_paper_def(m2.basis_element(1), 0.0, 0.0)


def test_paper_definition_needs_unit():
    A = corpus.nonunital_with_ideal()
    with pytest.raises(NotUnital):
        in_spectrum_paper_def(A.element([1, 0, 0]), 0.0, 0.0)


def test_paper_definition_oracle_random():
    rng = np.random.default_rng(11)
    for name in ("rr", "rrc", "quaternions", "m2_reals", "hc"):
        A = corpus.builtin(name)
        for _ in range(10):
            a = A.element(rng.standard_normal(A.dim))
            res = spectrum(a)
            for z in res.points:
                assert in_spectrum_paper_def(a, z.real, z.imag)
            # points displaced 0.1 outward must not be in the spectrum
            for z in res.points:
                r = abs(z)
                w = z * (r + 0.1) / r if r > 0 else complex(0.1, 0.0)
                if min(abs(w - v) for v in res.points) > 0.05:
                    assert not in_spectrum_paper_def(a, w.real, w.imag)


def test_gelfand_examples():
    rr = corpus.builtin("rr")
    max_abs = lambda a: float(np.abs(a.coords).max())
    assert gelfand_radius(rr.element([2, -3]), norm=max_abs) \
        == pytest.approx(3.0, rel=1e-9)
    m2 = corpus.m2_reals()
    assert gelfand_radius(m2.basis_element(1)) == 0.0  # nilpotent E12
    H = corpus.quaternions()
    qn = lambda a: float(np.linalg.norm(a.coords))
    assert gelfand_radius(H.element([1, 1, 1, 1]), norm=qn) \
        == pytest.approx(2.0, rel=1e-9)


def test_gelfand_matches_spectral_radius():
    rng = np.random.default_rng(3)
    for name in ALL_CORPUS:
        A = corpus.builtin(name)
        for _ in range(30):
            a = A.element(rng.standard_normal(A.dim))
            r = spectrum(a).radius
            g = gelfand_radius(a, norm=OperatorNorm().value)
            assert abs(g - r) <= 1e-6 * (1.0 + r)


def test_spectral_mapping_for_squares():
    rng = np.random.default_rng(9)
    for name in ("rr", "rrc", "quaternions", "m2_reals"):
        A = corpus.builtin(name)
        for _ in range(20):
            a = A.element(rng.standard_normal(A.dim))
            sq = sorted((z * z for z in spectrum(a).points),
                        key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            direct = sorted(spectrum(a * a).points,
                            key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            for z, w in zip(sq, direct):
                assert abs(z - w) <= 1e-8 * (1.0 + abs(z))


def test_radius_field_consistency():
    rng = np.random.default_rng(2)
    A = corpus.builtin("hc")
    for _ in range(20):
        res = spectrum(A.element(rng.standard_normal(A.dim)))
        assert res.radius == max(abs(z) for z in res.points)


def test_nonunital_spectrum_via_hull():
    A = corpus.nonunital_with_ideal()
    pts = spectrum(A.element([2.0, -1.0, 5.0])).points
    # computed in the unital hull; the null direction contributes 0
    assert _match(pts, [2.0, -1.0, 0.0, 0.0])


def test_log_domain_no_overflow():
    rr = corpus.builtin("rr")
    big = rr.element([1e150, 2e150])
    assert gelfand_radius(big, norm=lambda a: float(np.abs(a.coords).max())) \
        == pytest.approx(2e150, rel=1e-9)
    assert math.isfinite(gelfand_radius(big))


def test_overflowing_first_norm_is_taken_on_the_scaled_row():
    """The operator norm of the M2(R) nilpotent with entries 1e308
    overflows.  Taken on the row over max|a| and lifted by log max|a|, it
    gives the radius 0; the other rows of the stack keep their bits."""
    m2 = corpus.builtin("m2_reals")
    X = np.array([[1.0, 2.0, -0.5, 3.0], [1e308, 1e308, -1e308, -1e308],
                  [1e150, 0.0, 0.0, 2e150]])
    r = gelfand_radius(m2.element(X))
    assert r[1] == 0.0
    for k in (0, 2):
        assert r[k] == gelfand_radius(m2.element(X[k]))
    logs = log_square_norms(m2.element(X[1]), OperatorNorm().value)
    assert next(logs) == math.log(2.0) + math.log(1e308)
    assert next(logs) == -math.inf


def _rx3():
    """R[x]/(x^3) on 1, x, x^2."""
    table = {(0, 0, 0): 1.0, (0, 1, 1): 1.0, (0, 2, 2): 1.0, (1, 0, 1): 1.0,
             (2, 0, 2): 1.0, (1, 1, 2): 1.0}
    return make_algebra(3, ["1", "x", "x2"], table, unit=[1.0, 0.0, 0.0],
                        name="R[x]/(x^3)")


def _rotated(A, seed):
    """A in the basis f_i = sum_a Q[a, i] e_a for a seeded orthogonal Q,
    with Q."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (A.dim, A.dim)))
    table = np.einsum("abg,ai,bj,gk->ijk", A.table, Q, Q, Q)
    return make_algebra(A.dim, [f"f{i}" for i in range(A.dim)], table,
                        unit=Q.T @ A.unit, name=f"rotated {A.name}"), Q


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("plus_r", [False, True])
def test_gelfand_radius_waits_for_the_nilpotent_part(plus_r, rotate):
    """x in R[x]/(x^3) has ||x^2|| = ||x||^2 = 1 in the operator norm, so
    the step at k = 1 is exactly 0, and x^4 = 0 shows only at k = 2.  The
    radius of x is 0, and that of (x, 0.5) in R[x]/(x^3) + R is 0.5; in a
    rotated basis the steps are rounding and x^4 is rounding too."""
    A = corpus.direct_sum([_rx3(), corpus.reals()]) if plus_r else _rx3()
    coords = np.array([0.0, 1.0, 0.0, 0.5][:A.dim])
    want = 0.5 if plus_r else 0.0
    if rotate:
        A, Q = _rotated(A, 0)
        coords = Q.T @ coords
    a = A.element(coords)
    got = gelfand_radius(a)
    if rotate:
        assert abs(got - want) <= (1e-12 if plus_r else 1e-4)
    else:
        assert got == want == spectrum(a).radius
