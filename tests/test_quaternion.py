import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from squareprop.quaternion import HAMILTON, qmul, qnorm, qspectrum

from oracles import qinv

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quats = arrays(np.float64, 4, elements=finite)

ONE, I, J, K = np.eye(4)


def hamilton_by_components(p, q):
    """The Hamilton product written out component by component: the
    independent reference for HAMILTON and qmul."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def close(p, q, tol=1e-12):
    return qnorm(p - q) <= tol * (1.0 + qnorm(p) + qnorm(q))


def test_defining_relations():
    assert close(qmul(I, J), K)
    assert close(qmul(J, K), I)
    assert close(qmul(K, I), J)
    assert close(qmul(I, I), -ONE)
    assert close(qmul(J, J), -ONE)
    assert close(qmul(K, K), -ONE)


def test_bilinear_expansion():
    # (1+i)(1+j) = 1 + i + j + k
    assert close(qmul(ONE + I, ONE + J), np.ones(4))


@given(quats)
def test_identity(q):
    assert close(qmul(q, ONE), q)
    assert close(qmul(ONE, q), q)


def test_qnorm_examples():
    assert qnorm(np.ones(4)) == 2.0
    assert qnorm(np.zeros(4)) == 0.0
    assert qnorm(np.array([[3.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]])
                 ).tolist() == [5.0, 2.0]


def test_qinv_examples():
    assert close(qinv(I), -I)
    assert close(qinv(2.0 * ONE), 0.5 * ONE)
    q = np.ones(4)
    assert close(qinv(q), np.array([0.25, -0.25, -0.25, -0.25]))
    assert close(qmul(q, qinv(q)), ONE)
    # a stack inverts row by row
    Q = np.random.default_rng(2).standard_normal((5, 4))
    assert np.abs(qmul(Q, qinv(Q)) - ONE).max() <= 1e-14


def test_qinv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        qinv(np.zeros(4))
    with pytest.raises(ZeroDivisionError):
        qinv(np.array([ONE, np.zeros(4)]))


def test_qspectrum_examples():
    pts = qspectrum(np.ones(4))
    assert sorted(pts, key=lambda z: z.imag) == pytest.approx(
        [1 - 1j * math.sqrt(3), 1 + 1j * math.sqrt(3)])
    # a real quaternion gives its real point twice
    assert qspectrum(5.0 * ONE).tolist() == [5 + 0j, 5 + 0j]
    assert qspectrum(I).tolist() == [1j, -1j]
    assert qspectrum(np.array([[ONE, I], [K, 2.0 * ONE]])).shape == (2, 2, 2)


def test_spectrum_radius_equals_norm():
    Q = np.random.default_rng(0).standard_normal((200, 4))
    np.testing.assert_allclose(np.abs(qspectrum(Q)).max(axis=1), qnorm(Q),
                               rtol=1e-12)


@settings(max_examples=300)
@given(quats, quats)
def test_norm_multiplicative(p, q):
    assert qnorm(qmul(p, q)) == pytest.approx(qnorm(p) * qnorm(q),
                                              rel=1e-12, abs=1e-9)


@settings(max_examples=300)
@given(quats, quats, quats)
def test_associative(p, q, r):
    lhs = qmul(qmul(p, q), r)
    rhs = qmul(p, qmul(q, r))
    scale = (1.0 + qnorm(p)) * (1.0 + qnorm(q)) * (1.0 + qnorm(r))
    assert qnorm(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=300)
@given(quats, quats)
def test_qmul_matches_component_formula(p, q):
    assert close(qmul(p, q), hamilton_by_components(p, q))


def test_hamilton_tensor_matches_scalar_product():
    """Each entry of HAMILTON is the written-out product of two basis
    units, and the contraction with it is that product."""
    E = np.eye(4)
    for p in range(4):
        for q in range(4):
            assert np.array_equal(HAMILTON[p, q],
                                  hamilton_by_components(E[p], E[q]))
    a, b = np.random.default_rng(1).standard_normal((2, 4))
    via_tensor = np.einsum("p,q,pqc->c", a, b, HAMILTON)
    assert np.allclose(via_tensor, hamilton_by_components(a, b), atol=1e-14)


def test_stacked_qmul_matches_component_formula():
    rng = np.random.default_rng(1)
    P = rng.standard_normal((3, 5, 4))
    Q = rng.standard_normal((5, 4))
    want = np.array([[hamilton_by_components(p, q) for p, q in zip(row, Q)]
                     for row in P])
    np.testing.assert_allclose(qmul(P, Q), want, rtol=0, atol=1e-14)


def test_bulk_laws_tight_tolerance():
    rng = np.random.default_rng(7)
    P = rng.standard_normal((10000, 4))
    Q = rng.standard_normal((10000, 4))
    prod = qmul(P, Q)
    lhs = np.linalg.norm(prod, axis=1)
    rhs = np.linalg.norm(P, axis=1) * np.linalg.norm(Q, axis=1)
    assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-12
    sq = qmul(P, P)
    assert np.max(np.abs(np.linalg.norm(sq, axis=1)
                         - np.linalg.norm(P, axis=1) ** 2)
                  / np.linalg.norm(P, axis=1) ** 2) <= 1e-12
