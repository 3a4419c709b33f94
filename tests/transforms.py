"""Changes of basis shared by the tests: an isomorphic copy of an algebra
must get the same answers, up to rounding, as the algebra itself.  And
write_algebra, the one writer of the algebra files cli.load_algebra reads."""

import json

import numpy as np

from squareprop.algebra import make_algebra


def in_basis(A, S, name=None, unit=True):
    """A in the basis f_i = sum_a S[a, i] e_a, for an invertible S.

    The coordinates of x in the new basis are S^-1 x, so the table is
    c'[i, j, k] = sum S[a, i] S[b, j] c[a, b, g] S^-1[k, g].  The unit is
    mapped by S^-1 when A has one and `unit` is true; otherwise none is
    given, and the copy solves for its own."""
    inv = np.linalg.inv(S)
    table = np.einsum("abg,ai,bj,kg->ijk", A.table, S, S, inv, optimize=True)
    u = inv @ A.unit if unit and A.unit is not None else None
    return make_algebra(A.dim, [f"f{i}" for i in range(A.dim)], table,
                        unit=u, name=name or f"{A.name} in a new basis")


def orthogonal(n, seed):
    """The QR factor of a seeded standard normal n x n matrix."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]


def rotated(A, seed):
    """(A in the basis of the columns of orthogonal(A.dim, seed), Q)."""
    Q = orthogonal(A.dim, seed)
    return in_basis(A, Q, name=f"rotated {A.name}"), Q


def conditioned(A, kappa, unit=True):
    """A in a basis of condition number kappa: S = U diag(s) V^T with
    seeded orthogonal U and V, both drawn from default_rng(19), and s
    spread from 1 to kappa; the unit as in_basis gives it."""
    rng = np.random.default_rng(19)
    U, V = (np.linalg.qr(rng.standard_normal((A.dim, A.dim)))[0]
            for _ in range(2))
    return in_basis(A, U * np.geomspace(1.0, kappa, A.dim) @ V.T,
                    f"{A.name} at condition {kappa:g}", unit=unit)


def skew(n):
    """A well-conditioned, non-orthogonal change of basis: the QR factor of
    a standard normal n x n matrix times diag(10^u), u ~ U[-2, 2], both
    drawn in that order from default_rng(1).  At n = 32 its condition
    number is 4.8e3."""
    rng = np.random.default_rng(1)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q * 10.0 ** rng.uniform(-2.0, 2.0, n)


def power_of_two(A, K, seed):
    """(A in the basis diag(2^k), given no unit, the basis), with each k
    uniform in [-K, K] drawn from default_rng(seed).  The change of basis
    is exact: c'[i, j, k] = 2^(k_i + k_j - k_k) c[i, j, k]."""
    k = np.random.default_rng(seed).integers(-K, K, endpoint=True,
                                             size=A.dim)
    S = np.diag(2.0 ** k)
    return in_basis(A, S, unit=False), S


def write_algebra(path, A, unit=True):
    """A as an algebra file at path, the inverse of cli.load_algebra: its
    dim, basis and nonzero table entries as [i, j, k, value] rows, and its
    unit when `unit` is true and A has one (A.unit is not read otherwise).
    Returns the path as a string."""
    doc = {"dim": A.dim, "basis": list(A.labels),
           "table": [[*map(int, ijk), float(A.table[ijk])]
                     for ijk in zip(*np.nonzero(A.table))]}
    if unit and A.unit is not None:
        doc["unit"] = A.unit.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)
