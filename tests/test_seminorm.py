import json

import numpy as np
import pytest

from squareprop import corpus
from squareprop.algebra import (make_algebra, subspace_is_two_sided_ideal,
                                unitize)
from squareprop.seminorm import (CharacterSup, ComponentSup, CoordinateMax,
                                 CoordinateSum, OperatorNorm,
                                 PayloadMismatch, SpectralRadius,
                                 UnsupportedVariant, _nullspace,
                                 check_square_property,
                                 check_submultiplicative, estimate_m, kernel,
                                 square_property_details)
from squareprop.quaternion import random_unit_quaternion

from oracles import CallableSeminorm


def _identity_char_sup():
    H = corpus.quaternions()
    return H, CharacterSup(tuple(corpus.known_characters(H)))


def test_evaluate_examples():
    H, p = _identity_char_sup()
    assert p.value(H.element([1, 1, 1, 1])) == pytest.approx(2.0)
    rr = corpus.builtin("rr")
    assert ComponentSup((0,)).value(rr.element([0, 7])) == 0.0
    assert CoordinateMax((1.0, 1.0)).value(rr.element([2, -3])) == 3.0


def test_payload_mismatch():
    rr = corpus.builtin("rr")
    with pytest.raises(PayloadMismatch):
        CoordinateMax((1.0, 1.0, 1.0)).check_payload(rr)
    with pytest.raises(PayloadMismatch):
        ComponentSup((5,)).check_payload(rr)


def test_seminorm_axioms_random():
    rng = np.random.default_rng(0)
    rrc = corpus.builtin("rrc")
    variants = [SpectralRadius(), CoordinateMax(None), CoordinateSum(None),
                OperatorNorm(), ComponentSup((0, 2))]
    for p in variants:
        for _ in range(50):
            a = rrc.element(rng.standard_normal(4))
            b = rrc.element(rng.standard_normal(4))
            k = float(rng.standard_normal())
            pa, pb = p.value(a), p.value(b)
            assert pa >= 0.0
            assert p.value(k * a) == pytest.approx(abs(k) * pa, rel=1e-12,
                                                   abs=1e-12)
            a_plus_b = rrc.element(a.coords + b.coords)
            assert p.value(a_plus_b) <= pa + pb + 1e-10 * (1.0 + pa + pb)


def test_square_property_positive_cases():
    rrc = corpus.builtin("rrc")
    assert check_square_property(SpectralRadius(), rrc, 500, 1) <= 1e-10
    H, p = _identity_char_sup()
    assert check_square_property(p, H, 500, 1) <= 1e-12


def test_square_property_l1_failure():
    C = corpus.complexes()
    details = square_property_details(CoordinateSum(None), C, 500, 1)
    assert details.residual >= 0.4
    # the classical witness: p((1+i)^2) = 2 but p(1+i)^2 = 4
    a = C.element([1.0, 1.0])
    p = CoordinateSum(None)
    assert p.value(a * a) == pytest.approx(2.0)
    assert p.value(a) ** 2 == pytest.approx(4.0)


def test_submultiplicative_examples():
    H, p = _identity_char_sup()
    assert check_submultiplicative(p, H, 500, 1) == pytest.approx(1.0, abs=1e-12)
    rr = corpus.builtin("rr")
    assert check_submultiplicative(SpectralRadius(), rr, 500, 1) <= 1.0 + 1e-12
    m2 = corpus.m2_reals()
    assert check_submultiplicative(OperatorNorm(), m2, 500, 1) <= 1.0 + 1e-10


def test_estimate_m():
    rr = corpus.builtin("rr")
    est = estimate_m(CoordinateMax(None), rr, 500, 1)
    assert est.m_hat == pytest.approx(1.0, abs=1e-9)
    C = corpus.complexes()
    assert estimate_m(CoordinateSum(None), C, 500, 1).m_hat <= 1.0 + 1e-12
    scaled = CoordinateMax((2.0, 2.0))
    est = estimate_m(scaled, rr, 500, 1)
    assert est.m_hat == pytest.approx(0.5, abs=1e-12)
    a, b = est.pair
    pa = scaled.value(rr.element(a))
    pb = scaled.value(rr.element(b))
    pab = scaled.value(rr.element(rr.mul_coords(a, b)))
    assert pab / (pa * pb) == pytest.approx(est.m_hat, rel=1e-9)


def test_kernels():
    rr = corpus.builtin("rr")
    K = kernel(ComponentSup((0,)), rr)
    assert K.shape == (1, 2)
    assert abs(abs(K[0, 1]) - 1.0) <= 1e-12 and abs(K[0, 0]) <= 1e-12
    H, p = _identity_char_sup()
    assert kernel(p, H).shape[0] == 0
    assert kernel(CoordinateMax((1.0, 1.0)), rr).shape[0] == 0
    assert kernel(CoordinateMax((1.0, 0.0)), rr).shape[0] == 1
    assert kernel(OperatorNorm(), rr).shape[0] == 0


def test_spectral_radius_kernel():
    # commutative semisimple: trivial kernel
    rrc = corpus.builtin("rrc")
    assert kernel(SpectralRadius(), rrc).shape[0] == 0
    # R + null line: the radius vanishes exactly on the null direction
    A = corpus.nonunital_with_ideal()
    K = kernel(SpectralRadius(), A)
    assert K.shape[0] == 1
    assert np.allclose(np.abs(K[0]), [0, 0, 1])
    assert subspace_is_two_sided_ideal(A, K)


def test_kernel_ideal_when_square_property_holds():
    rr = corpus.builtin("rr")
    for p in (ComponentSup((0,)), ComponentSup((1,)), CoordinateMax(None)):
        if check_square_property(p, rr, 200, 0) <= 1e-9:
            assert subspace_is_two_sided_ideal(rr, kernel(p, rr))


def test_quotient_value_constant_on_cosets():
    rr = corpus.builtin("rr")
    p = ComponentSup((0,))
    K = kernel(p, rr)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a = rng.standard_normal(2)
        k = K.T @ rng.standard_normal(1)
        pa = p.value(rr.element(a))
        assert abs(p.value(rr.element(a + k)) - pa) <= 1e-10 * (1.0 + pa)


def test_opaque_escape_hatch():
    rr = corpus.builtin("rr")
    p = CallableSeminorm(lambda a: float(np.abs(a.coords).max()))
    assert p.value(rr.element([2, -3])) == 3.0
    with pytest.raises(UnsupportedVariant):
        kernel(p, rr)


def test_character_sup_payload_forms_agree():
    """The (m, n, 4) stack, a tuple of its (n, 4) rows and the nested lists
    a seminorm file holds give the same values, bit for bit."""
    H2 = corpus.builtin("h2")
    rng = np.random.default_rng(21)
    chars = corpus.known_characters(
        H2, {i: random_unit_quaternion(rng) for i in range(2)})
    X = rng.standard_normal((40, H2.dim))
    want = CharacterSup(chars).values(H2, X)
    for form in (tuple(chars), json.loads(json.dumps(chars.tolist()))):
        assert np.array_equal(CharacterSup(form).values(H2, X), want)


def test_character_sup_rejects_empty():
    rr = corpus.builtin("rr")
    with pytest.raises(PayloadMismatch):
        CharacterSup(()).check_payload(rr)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_coordinate_max_rejects_non_finite_weights(bad):
    rr = corpus.builtin("rr")
    with pytest.raises(PayloadMismatch):
        CoordinateMax((bad, 1.0)).check_payload(rr)


def test_character_sup_kernel_wide_matrix():
    # one character on H^2 gives a 4 x 8 matrix whose kernel is the second
    # H summand; a thin SVD of a wide matrix would drop it
    H2 = corpus.builtin("h2")
    K = kernel(CharacterSup((corpus.known_characters(H2)[0],)), H2)
    assert K.shape == (4, 8)
    assert np.allclose(K[:, :4], 0.0, atol=1e-12)


def _radical_by_loop(algebra):
    """Reference for SpectralRadius.kernel: the Dickson matrix
    M[i, j] = tr(L_(x_i e_j)) built entry by entry in the unital hull."""
    hull = algebra if algebra.is_unital else unitize(algebra)
    pad = hull.dim - algebra.dim
    M = np.zeros((algebra.dim, hull.dim))
    for i in range(algebra.dim):
        xi = np.concatenate([np.zeros(pad), np.eye(algebra.dim)[i]])
        for j in range(hull.dim):
            prod = hull.mul_coords(xi, np.eye(hull.dim)[j])
            M[i, j] = np.trace(np.einsum("i,ijk->kj", prod, hull.table))
    return _nullspace(M.T)


@pytest.mark.parametrize("parts", [["T2", "hc"], ["nonunital3"]],
                         ids=["T2_plus_hc", "nonunital3"])
def test_spectral_radius_kernel_matches_loop_on_rotated_algebra(parts):
    # both have a 1-dim radical: the line of E12, and the null line
    t2 = make_algebra(3, ["E11", "E12", "E22"],
                      {(0, 0, 0): 1.0, (0, 1, 1): 1.0, (1, 2, 1): 1.0,
                       (2, 2, 2): 1.0}, unit=[1.0, 0.0, 1.0])
    base = corpus.direct_sum([t2 if name == "T2" else corpus.builtin(name)
                              for name in parts])
    n = base.dim
    Q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((n, n)))
    A = make_algebra(n, [f"f{i}" for i in range(n)],
                     np.einsum("abg,ai,bj,gk->ijk", base.table, Q, Q, Q),
                     unit=None if base.unit is None else Q.T @ base.unit)
    K = kernel(SpectralRadius(), A)
    ref = _radical_by_loop(A)
    assert K.shape == ref.shape == (1, n)
    assert np.allclose(K.T @ K, ref.T @ ref, atol=1e-10)
