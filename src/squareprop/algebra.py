"""Finite-dimensional real associative algebras given by structure constants.

An algebra is a dense table c[i, j, k] with e_i e_j = sum_k c[i,j,k] e_k,
validated for associativity at construction.  Everything downstream
(spectra, seminorm kernels, quotients, characters) is computed from
this table and the left regular representation.

The checks, the quotient table and the batched products contract the
table with BLAS matrix products.  The associativity check compares
(e_i e_j) e_k with e_i (e_j e_k) a block of i at a time: O(n^5) flops,
but only O(n^3) memory (a few MB per block) where the whole (i, j, k, l)
comparison would hold three n^4 arrays (380 MB at n = 63).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

ASSOC_TOL = 1e-10
UNIT_TOL = 1e-12
IDEAL_TOL = 1e-10
INVERT_CUTOFF = 1e-10  # smallest/largest singular value, scale free
_ASSOC_BLOCK_BYTES = 4 << 20  # one (i-block, j, k, l) slab of the check


class AlgebraError(Exception):
    pass


class AssociativityViolation(AlgebraError):
    pass


class BadUnit(AlgebraError):
    pass


class DimensionMismatch(AlgebraError):
    pass


class AlgebraMismatch(AlgebraError):
    pass


class NotUnital(AlgebraError):
    pass


class NotAnIdeal(AlgebraError):
    pass


class FiniteDimRealAlgebra:
    """Structure-constant presentation of a real associative algebra."""

    def __init__(self, dim, labels, table, unit=None, name="", components=None):
        if dim <= 0:
            raise DimensionMismatch("dim must be positive")
        labels = list(labels)
        if len(labels) != dim:
            raise DimensionMismatch(
                f"got {len(labels)} basis labels for dim {dim}")
        dense = np.zeros((dim, dim, dim))
        if isinstance(table, np.ndarray):
            if table.shape != (dim, dim, dim):
                raise DimensionMismatch(
                    f"table shape {table.shape}, expected {(dim,) * 3}")
            dense[:] = table
        else:
            for (i, j, k), v in table.items():
                if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                    raise DimensionMismatch(
                        f"table index ({i},{j},{k}) out of range for dim {dim}")
                dense[i, j, k] = v
        self.dim = dim
        self.labels = labels
        self.table = dense
        self.table.setflags(write=False)
        self.name = name or "algebra"
        # optional (kind, offset, dim) metadata for direct sums of R/C/H
        self.components = components
        self._check_associativity()
        self.unit = None
        if unit is not None:
            unit = np.asarray(unit, dtype=float)
            if unit.shape != (dim,):
                raise DimensionMismatch("unit vector has wrong length")
            self._check_unit(unit)
            self.unit = unit
            self.unit.setflags(write=False)

    def _check_associativity(self):
        c = self.table
        n = self.dim
        cmax = float(np.abs(c).max())
        if not math.isfinite(cmax):  # NaN compares False against any tol
            raise AlgebraError("table has non-finite entries")
        tol = ASSOC_TOL * (1.0 + cmax) ** 2
        rows = c.reshape(n * n, n)        # [j k, m]: e_j e_k
        cols = c.reshape(n, n * n)        # [m, k l]: e_m e_k
        step = max(1, _ASSOC_BLOCK_BYTES // (8 * n ** 3))
        worst, witness = 0.0, None
        for i0 in range(0, n, step):
            block = c[i0:i0 + step]
            # (e_i e_j) e_k - e_i (e_j e_k), indexed [i - i0, j, k, l]
            err = (block.reshape(-1, n) @ cols).reshape(-1, n, n, n)
            err -= np.matmul(rows, block).reshape(err.shape)
            np.abs(err, out=err)
            at = np.unravel_index(np.argmax(err), err.shape)  # first NaN wins
            if not err[at] <= worst:
                worst = float(err[at])
                witness = (at[0] + i0, *at[1:])
            if math.isnan(worst):
                break
        # written so that a NaN defect fails the check
        if not worst <= tol:
            i, j, k, l = witness
            raise AssociativityViolation(
                f"(e{i} e{j}) e{k} != e{i} (e{j} e{k}): "
                f"coefficient {l} differs by {worst:.3e}")

    def _check_unit(self, u):
        n = self.dim
        eye = np.eye(n)
        left = (u @ self.table.reshape(n, n * n)).reshape(n, n) - eye
        right = u @ self.table - eye      # [j, k]: e_j u
        # written so that a NaN defect fails the check
        good = ((np.abs(left).max(axis=1) <= UNIT_TOL)
                & (np.abs(right).max(axis=1) <= UNIT_TOL))
        if not good.all():
            raise BadUnit(
                f"claimed unit fails on basis element {int(np.argmin(good))}")

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, np.asarray(coords, dtype=float))

    def basis_element(self, i: int) -> "AlgebraElement":
        return self.element(np.eye(self.dim)[i])

    def zero(self) -> "AlgebraElement":
        return self.element(np.zeros(self.dim))

    def unit_element(self) -> "AlgebraElement":
        if self.unit is None:
            raise NotUnital(f"{self.name} has no unit")
        return self.element(self.unit)

    def mul_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", a, b, self.table)

    def _left_rows(self, A: np.ndarray) -> np.ndarray:
        """[s, j, k]: coordinate k of A[s] e_j."""
        n = self.dim
        return (A @ self.table.reshape(n, n * n)).reshape(-1, n, n)

    def mul_coords_batch(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Row-wise products of two stacks of coordinate vectors."""
        return np.matmul(B[:, None, :], self._left_rows(A))[:, 0]

    def left_matrices_batch(self, A: np.ndarray) -> np.ndarray:
        return self._left_rows(A).transpose(0, 2, 1)

    def __repr__(self):
        return f"FiniteDimRealAlgebra({self.name!r}, dim={self.dim})"


@dataclass(frozen=True)
class AlgebraElement:
    algebra: FiniteDimRealAlgebra
    coords: np.ndarray

    def __post_init__(self):
        if self.coords.shape != (self.algebra.dim,):
            raise DimensionMismatch(
                f"coords length {self.coords.shape} for dim {self.algebra.dim}")

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        return AlgebraElement(self.algebra, self.coords * other)

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, self.coords * scalar)

    def __add__(self, other):
        _require_same(self, other)
        return AlgebraElement(self.algebra, self.coords + other.coords)

    def __sub__(self, other):
        _require_same(self, other)
        return AlgebraElement(self.algebra, self.coords - other.coords)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.coords)


def _require_same(a: AlgebraElement, b: AlgebraElement):
    if a.algebra is not b.algebra:
        raise AlgebraMismatch("elements live in different algebras")


def make_algebra(dim, labels, table, unit=None, name="", components=None):
    return FiniteDimRealAlgebra(dim, labels, table, unit=unit, name=name,
                                components=components)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _require_same(a, b)
    return AlgebraElement(a.algebra, a.algebra.mul_coords(a.coords, b.coords))


def left_regular_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix L with L @ coords(b) = coords(a*b)."""
    return np.einsum("i,ijk->kj", a.coords, a.algebra.table)


def is_invertible(a: AlgebraElement) -> bool:
    """True iff left multiplication by a is nonsingular.

    In a unital finite-dimensional algebra bijectivity of L_a is equivalent
    to two-sided invertibility of a.
    """
    if not a.algebra.is_unital:
        raise NotUnital("invertibility needs a unit")
    s = np.linalg.svd(left_regular_matrix(a), compute_uv=False)
    return s[-1] > INVERT_CUTOFF * s[0]


def find_unit(algebra: FiniteDimRealAlgebra):
    """Solve u*e_j = e_j = e_j*u; returns the unit coords or None."""
    return _solve_unit(algebra.table)


def _solve_unit(c: np.ndarray):
    n = c.shape[0]
    # rows: for each (j, k), sum_i u_i c[i,j,k] = delta_jk and c[j,i,k] side
    left = c.reshape(n, n * n).T            # (j*n+k, i) from c[i,j,k]
    right = np.transpose(c, (1, 0, 2)).reshape(n, n * n).T
    A = np.vstack([left, right])
    b = np.concatenate([np.eye(n).ravel()] * 2)
    u, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.abs(A @ u - b).max() > 1e-9 * (1.0 + np.abs(c).max()):
        return None
    return u


def unitize(algebra: FiniteDimRealAlgebra) -> FiniteDimRealAlgebra:
    """Adjoin a unit: (n+1)-dim algebra R*e + A with e in slot 0."""
    n = algebra.dim
    c = np.zeros((n + 1, n + 1, n + 1))
    c[1:, 1:, 1:] = algebra.table
    idx = np.arange(n + 1)
    c[0, idx, idx] = c[idx, 0, idx] = 1.0
    unit = np.zeros(n + 1)
    unit[0] = 1.0
    return FiniteDimRealAlgebra(
        n + 1, ["e"] + list(algebra.labels), c, unit=unit,
        name=f"unitize({algebra.name})")


def embed_in_unitization(a: AlgebraElement, hull: FiniteDimRealAlgebra) -> AlgebraElement:
    return hull.element(np.concatenate([[0.0], a.coords]))


def subspace_is_two_sided_ideal(algebra: FiniteDimRealAlgebra, V) -> bool:
    """True iff span of the rows of V absorbs multiplication on both sides."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[0] == 0:
        return True
    Q, _ = np.linalg.qr(V.T)
    P = np.eye(algebra.dim) - Q @ Q.T  # projector onto the complement
    c = algebra.table
    scale = 1.0 + np.abs(c).max() * (1.0 + np.abs(V).max())
    prods = np.concatenate([np.einsum("rj,ijk->rik", V, c, optimize=True),
                            np.einsum("rj,jik->rik", V, c, optimize=True)])
    # e_i v, then v e_i; written so that a NaN defect fails the check
    return bool(np.abs(prods @ P.T).max() <= IDEAL_TOL * scale)


@dataclass(frozen=True)
class QuotientMap:
    """Quotient algebra together with the projection and a linear section."""

    algebra: FiniteDimRealAlgebra      # the quotient A / span(V)
    projection: np.ndarray             # (q, n): coords in A -> quotient coords
    lift: np.ndarray                   # (n, q): section, projection @ lift = I

    def project(self, a: AlgebraElement) -> AlgebraElement:
        return self.algebra.element(self.projection @ a.coords)


def quotient(algebra: FiniteDimRealAlgebra, V) -> QuotientMap:
    """Quotient by the two-sided ideal spanned by the rows of V."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n = algebra.dim
    if V.size == 0:
        V = np.zeros((0, n))
    if not subspace_is_two_sided_ideal(algebra, V):
        raise NotAnIdeal("span(V) is not a two-sided ideal")
    m = V.shape[0]
    q = n - m
    if m == 0:
        ident = np.eye(n)
        return QuotientMap(algebra, ident, ident)
    Qv, _ = np.linalg.qr(V.T)
    P = np.eye(n) - Qv @ Qv.T
    # deterministic complement: project the standard basis, pick pivot columns
    _, _, piv = scipy.linalg.qr(P, pivoting=True)
    cols = np.sort(piv[:q])
    S = P[:, cols]                     # section basis, n x q
    B = np.hstack([S, Qv])             # full change of basis
    proj = np.linalg.inv(B)[:q, :]
    table = np.einsum("ia,jb,ijk,qk->abq", S, S, algebra.table, proj,
                      optimize=True)
    labels = [f"[{algebra.labels[c]}]" for c in cols]
    name = f"{algebra.name}/ideal"
    u = _solve_unit(table)
    try:
        quo = FiniteDimRealAlgebra(q, labels, table, unit=u, name=name)
    except BadUnit:  # lstsq artifact; keep the quotient non-unital
        quo = FiniteDimRealAlgebra(q, labels, table, name=name)
    return QuotientMap(quo, proj, S)
