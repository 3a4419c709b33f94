"""Finite-dimensional real associative algebras given by structure constants.

An algebra is a dense table c[i, j, k] with e_i e_j = sum_k c[i,j,k] e_k.
Every table is checked for associativity once: where it is given
(make_algebra, FiniteDimRealAlgebra) or computed with rounding
(quotient).  The unitization and corpus.direct_sum assemble their tables
from checked ones with exact 0s and 1s, so their defects are those of
their parts, and they inherit the check.  Everything downstream
(spectra, seminorm kernels, quotients, characters) is computed from
this table and the left regular representation.

The checks, the quotient table and the products contract the table with
BLAS matrix products.  Products and L_a are written once, for stacks of
rows (mul_coords_batch, left_matrices_batch); mul_coords, mul and
left_regular_matrix are their one-row views.  The associativity check
compares (e_i e_j) e_k with e_i (e_j e_k) a block of i at a time: O(n^5)
flops, but only O(n^3) memory (a few MB per block) where the whole
(i, j, k, l) comparison would hold three n^4 arrays (380 MB at n = 63).

An algebra is immutable, so what is derived from its table alone is built
once, on first use, and kept on it: the unital hull (`hull`), the radical
(`radical`), B = hull / rad(hull) (`semisimple_quotient`), the simple
blocks of B, each named R, C, H or M2(R) (`simple_blocks`), and the
diagonal blocks of L_pi(a) on B for every a at once (`spectral_split`).
The radical is nil, so r(a) = r(pi(a)), and on B no L_b keeps a nilpotent
Jordan part from the radical: its eigenvalues are exact to rounding where
those of a defective L_a err by about eps^(1/k).  The characters, the
seminorm test of the spectral radius and the split share the one block
decomposition and its names; the split tags each group of blocks as
division (R, C or H) or not (see spectral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

ASSOC_TOL = 1e-10
UNIT_TOL = 1e-12
IDEAL_TOL = 1e-10
INVERT_CUTOFF = 1e-10  # smallest/largest singular value, scale free
_ASSOC_BLOCK_BYTES = 4 << 20  # one (i-block, j, k, l) slab of the check
_SPLIT_SEED = 0         # draws the generic central element of the blocks
# from this dimension of B = hull / rad(hull) up, the split is B's simple
# blocks (the measured crossover: H^2 at dim 8 verifies about 2.5 times
# faster by blocks); below it B stays one block and nothing is built
_BLOCKED_MIN_DIM = 8
_SPLIT_LEAK = 1e-10     # invariance defect a block may show, relative
_SPLIT_INDEPENDENCE = 1e-8  # smallest singular value of the joined bases


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
        self._build(dim, labels, table, unit, name, components, True)

    @classmethod
    def _from_checked(cls, dim, labels, table, unit=None, name="",
                      components=None):
        """An algebra whose table is assembled from the tables of algebras
        that passed their associativity check, in a way that keeps every
        defect (see unitize and corpus.direct_sum).  Every check of
        __init__ runs but the dense associativity check, whose answer the
        table inherits."""
        algebra = cls.__new__(cls)
        algebra._build(dim, labels, table, unit, name, components, False)
        return algebra

    def _build(self, dim, labels, table, unit, name, components, check_assoc):
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
        if check_assoc:
            self._check_associativity()
        else:
            self._assoc_tol()   # its finiteness checks alone
        self.unit = None
        if unit is not None:
            unit = np.asarray(unit, dtype=float)
            if unit.shape != (dim,):
                raise DimensionMismatch("unit vector has wrong length")
            self._check_unit(unit)
            self.unit = unit
            self.unit.setflags(write=False)

    def _assoc_tol(self) -> float:
        """ASSOC_TOL (1 + max|c|)^2; raises on a non-finite table and on a
        table whose largest entry squared overflows."""
        cmax = float(np.abs(self.table).max())
        if not math.isfinite(cmax):  # NaN compares False against any tol
            raise AlgebraError("table has non-finite entries")
        try:
            return ASSOC_TOL * (1.0 + cmax) ** 2
        except OverflowError:
            raise AlgebraError(
                f"table entry of size {cmax:.3e} is too large: its square "
                "overflows the associativity check") from None

    def _check_associativity(self):
        c = self.table
        n = self.dim
        tol = self._assoc_tol()
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
        eye = np.eye(self.dim)
        left = self._left_rows(u[None])[0] - eye   # [j, k]: u e_j
        right = u @ self.table - eye               # [j, k]: e_j u
        # written so that a NaN defect fails the check
        good = ((np.abs(left).max(axis=1) <= UNIT_TOL)
                & (np.abs(right).max(axis=1) <= UNIT_TOL))
        if not good.all():
            raise BadUnit(
                f"claimed unit fails on basis element {int(np.argmin(good))}")

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    @cached_property
    def hull(self) -> "FiniteDimRealAlgebra":
        """The algebra itself when it is unital, else unitize(self)."""
        return self if self.is_unital else unitize(self)

    @cached_property
    def radical(self) -> np.ndarray:
        """Rows spanning rad(A), read-only.  Dickson: x is in it iff
        tr(L_(x a)) = 0 for every a of the hull; with t_k = tr(L_e_k),
        M[i, j] = tr(L_(x_i e_j)) = sum_k c[i, j, k] t_k."""
        c = self.hull.table
        rows = c[-self.dim:]    # the products x_i e_j, x_i in A
        # row j of M.T sums terms of at most |rows[:, j]| |t|, where
        # |t_k| <= sum_j |c[k, j, j]|; divided by that size, every row is
        # rounded alike, also where it is 0 in exact arithmetic (a nil A)
        size = (np.abs(rows) @ np.einsum("kjj->k", np.abs(c))).max(axis=0)
        M = (rows @ np.einsum("kjj->k", c)).T
        rad = _nullspace(M / np.where(size > 0, size, 1.0)[:, None], 1.0)
        rad.setflags(write=False)
        return rad

    @cached_property
    def semisimple_quotient(self) -> "QuotientMap":
        """hull / rad(hull); the identity map on the hull when rad is 0."""
        return quotient(self.hull, self.hull.radical)

    @cached_property
    def simple_blocks(self) -> tuple:
        """The named simple blocks of semisimple_quotient, a tuple of
        SimpleBlock (see _simple_blocks)."""
        return _simple_blocks(self)

    @cached_property
    def spectral_split(self) -> tuple:
        """Block tables of L_pi(a) on B = hull / rad(hull), grouped by size
        and tagged division or not (see _spectral_split)."""
        return _spectral_split(self)

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

    # bench/tracing.py wraps this name; keep it until the library records spans
    def mul_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product a b: one row of mul_coords_batch."""
        return self.mul_coords_batch(a[None], b[None])[0]

    def _left_rows(self, A: np.ndarray) -> np.ndarray:
        """[s, j, k]: coordinate k of A[s] e_j."""
        n = self.dim
        return (A @ self.table.reshape(n, n * n)).reshape(-1, n, n)

    def mul_coords_batch(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Row-wise products of two stacks of coordinate vectors."""
        return np.matmul(B[:, None, :], self._left_rows(A))[:, 0]

    def left_matrices_batch(self, A: np.ndarray) -> np.ndarray:
        """[s]: the matrix L with L @ b = A[s] b."""
        return self._left_rows(A).transpose(0, 2, 1)

    def __repr__(self):
        return f"FiniteDimRealAlgebra({self.name!r}, dim={self.dim})"


@dataclass(frozen=True)
class AlgebraElement:
    """One element (coords of shape (n,)) or a stack of them ((..., n))."""

    algebra: FiniteDimRealAlgebra
    coords: np.ndarray

    def __post_init__(self):
        if self.coords.shape[-1:] != (self.algebra.dim,):
            raise DimensionMismatch(
                f"coords shaped {self.coords.shape} for dim {self.algebra.dim}")

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        return AlgebraElement(self.algebra, self.coords * other)

    __rmul__ = __mul__    # scalar * a: other is the scalar


def _require_same(a: AlgebraElement, b: AlgebraElement):
    if a.algebra is not b.algebra:
        raise AlgebraMismatch("elements live in different algebras")


# bench/ calls this name; keep it until the benchmark is revised
def make_algebra(dim, labels, table, unit=None, name="", components=None):
    return FiniteDimRealAlgebra(dim, labels, table, unit=unit, name=name,
                                components=components)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """a b, row by row on two stacks of one shape: one mul_coords_batch
    call, on the one-row stack for one element (as mul_coords)."""
    _require_same(a, b)
    A, B = (x.coords.reshape(-1, a.algebra.dim) for x in (a, b))
    return AlgebraElement(a.algebra, a.algebra.mul_coords_batch(A, B)
                          .reshape(a.coords.shape))


def left_regular_matrix(a: AlgebraElement) -> np.ndarray:
    """L with L @ coords(b) = coords(a*b): one row of left_matrices_batch."""
    return a.algebra.left_matrices_batch(a.coords[None])[0]


def nonsingular(L: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: its smallest singular value exceeds
    INVERT_CUTOFF times its largest."""
    s = np.linalg.svd(L, compute_uv=False)
    return s[..., -1] > INVERT_CUTOFF * s[..., 0]


def with_found_unit(algebra: FiniteDimRealAlgebra) -> FiniteDimRealAlgebra:
    """The algebra with the unit that _solve_unit solves for, checked like
    a given unit; the algebra itself when there is none, or when the
    solution fails that check (a lstsq artifact).  The table is the one
    the algebra was checked with, so it is not checked again."""
    u = _solve_unit(algebra.table)
    if u is None:
        return algebra
    try:
        return FiniteDimRealAlgebra._from_checked(
            algebra.dim, algebra.labels, algebra.table, u, algebra.name,
            algebra.components)
    except BadUnit:
        return algebra


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


# bench/tracing.py wraps this name; keep it until the library records spans
def unitize(algebra: FiniteDimRealAlgebra) -> FiniteDimRealAlgebra:
    """Adjoin a unit: (n+1)-dim algebra R*e + A with e in slot 0.

    The table is not checked for associativity again: a triple of A's
    basis has A's own defect, since the added entries are exact 0s and 1s
    and the terms through e are exact 0s, and a triple with e has defect
    exactly 0; the tolerance ASSOC_TOL (1 + max|c|)^2 is at least A's.
    """
    n = algebra.dim
    c = np.zeros((n + 1, n + 1, n + 1))
    c[1:, 1:, 1:] = algebra.table
    idx = np.arange(n + 1)
    c[0, idx, idx] = c[idx, 0, idx] = 1.0
    unit = np.zeros(n + 1)
    unit[0] = 1.0
    return FiniteDimRealAlgebra._from_checked(
        n + 1, ["e"] + list(algebra.labels), c, unit=unit,
        name=f"unitize({algebra.name})")


def _nullspace(M: np.ndarray, scale=None, rtol: float = 1e-10) -> np.ndarray:
    """Rows spanning the right null space of M.

    A thin SVD suffices for a tall M; a wide M needs the full V, whose extra
    rows are part of the null space.  The rank counts the singular values
    above rtol * scale, where scale is the size of the data M is computed
    from, by default its own largest singular value.  So the cut follows
    the scale of the data (a basis 10^k e_i scales the Dickson matrix of
    `radical` by 10^(2k)) and the zero matrix has rank 0; an M that is 0
    in exact arithmetic but computed by rounding (a commutator on a
    commutative table) passes the scale of its inputs, so that the
    rounding stays under the cut.
    """
    if M.size == 0:
        return np.eye(M.shape[1])
    _, s, Vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    rank = int((s > rtol * (s[0] if scale is None else scale)).sum())
    return Vt[rank:]


class SimpleBlock(NamedTuple):
    """One simple block e*B of B = hull / rad(hull), in B's coordinates.

    mu is the eigenvalue of the generic central element that cut the block
    out (imag >= 0), e its central idempotent and V an orthonormal basis of
    e*B as columns.  name is "R", "C", "H", "M2(R)" or a description of
    another simple block; basis holds e, i, j, ij as columns (as many as
    the block needs) for R, C and H, and is None otherwise.
    """

    mu: complex
    e: np.ndarray
    V: np.ndarray
    name: str
    basis: Optional[np.ndarray]

    @property
    def division(self) -> bool:
        """True for R, C and H, the blocks that are division algebras."""
        return self.basis is not None


def _classify(B, z, mu, e, V):
    """(name, basis) of the block e*B with orthonormal basis V (columns),
    where mu is the eigenvalue of the central element z that cut it out
    (see SimpleBlock)."""
    c = B.table
    n, dim = V.shape
    center_dim = 1 if mu.imag == 0.0 else 2
    if (center_dim, dim) == (1, 1):
        return "R", e[:, None]
    if (center_dim, dim) == (2, 2):
        i = (B.mul_coords(e, z) - mu.real * e) / mu.imag
        return "C", np.column_stack([e, i])
    if (center_dim, dim) == (1, 4):
        # the trace-zero part of a 4-dim central simple block is 3-dim, and
        # symmetrized products of its elements are multiples of e; the block
        # is H iff that quadratic form is negative definite (else M2(R))
        T = V @ _nullspace((np.einsum("ijj->i", c) @ V)[None, :]).T
        P = np.matmul(T.T, (T.T @ c.reshape(n, n * n)).reshape(-1, n, n))
        G = (P + P.transpose(1, 0, 2)) @ e / (2.0 * (e @ e))
        lam = np.linalg.eigvalsh(G)
        if lam[-1] >= -1e-8 * abs(lam[0]):
            return "M2(R)", None
        # G is -I on an orthonormal basis, where eigenvectors would follow
        # rounding; the Cholesky factor -G = L L^T is continuous in G, and
        # the columns of inv(L)^T are G-orthonormal: i^2 = j^2 = -e, ij = -ji
        i, j = (T @ np.linalg.inv(np.linalg.cholesky(-G)).T)[:, :2].T
        return "H", np.column_stack([e, i, j, B.mul_coords(i, j)])
    return f"a simple block of dim {dim} with center dim {center_dim}", None


def _simple_blocks(algebra: FiniteDimRealAlgebra):
    """Wedderburn-Artin blocks of B = hull / rad(hull), named.

    The center of B is a product of copies of R and C; a generic central z,
    drawn with a fixed seed, has one real eigenvalue mu per R and a
    conjugate pair per C on it, and the spectral projectors of z applied to
    the unit are the primitive central idempotents e.  Every e*B is a
    simple block, invariant under every L_b.  Each block is named once,
    here (see _classify).

    Returns a tuple of SimpleBlock ordered by mu, where V holds the
    leading left singular vectors of L_e.
    """
    qm = algebra.semisimple_quotient
    B = qm.algebra
    c = B.table
    u = qm.projection @ algebra.hull.unit
    n = c.shape[0]
    # the center: rows spanning the null space of x -> (x e_j - e_j x)_j,
    # a map that is rounding of the size of c where B is commutative
    Z = _nullspace((c - c.transpose(1, 0, 2)).reshape(n, n * n).T,
                   np.abs(c).max())
    z = Z.T @ np.random.default_rng(_SPLIT_SEED).standard_normal(Z.shape[0])
    mus, vecs = np.linalg.eig(Z @ left_regular_matrix(B.element(z)) @ Z.T)
    left = np.linalg.inv(vecs)
    tol = 1e-9 * np.abs(mus).max()
    blocks = []
    for k in np.lexsort((mus.imag, mus.real)):
        mu = mus[k]
        if mu.imag < -tol:
            continue
        proj_k = np.outer(vecs[:, k], left[k])
        if mu.imag > tol:
            proj_k = 2.0 * proj_k
        else:
            mu = complex(mu.real, 0.0)
        e = Z.T @ (proj_k @ (Z @ u)).real
        U, s, _ = np.linalg.svd(left_regular_matrix(B.element(e)))
        V = U[:, :int((s > 1e-8 * s[0]).sum())]
        blocks.append(SimpleBlock(mu, e, V, *_classify(B, z, mu, e, V)))
    return tuple(blocks)


def _block_groups(B: FiniteDimRealAlgebra, simple):
    """Tables of L_b on the simple blocks of B, or None when they fail
    their gate: dimensions summing to dim B, no block leaking out of its
    subspace on a basis element, independent subspaces (a NaN fails).

    Each block e*B is invariant under every L_b, and its basis V is
    orthonormal, so the block of L_b on it is V^T L_b V.  Blocks are
    grouped by size d and by whether they are division blocks (R, C or H);
    a group's table holds, in row i, the K blocks of L_(e_i) flattened.
    """
    bases = [b.V for b in simple]
    N, c = B.dim, B.table
    if sum(V.shape[1] for V in bases) != N:
        return None
    LVs = [c.transpose(0, 2, 1) @ V for V in bases]   # [i]: L_(e_i) V
    blocks = [V.T @ LV for V, LV in zip(bases, LVs)]  # [i]: block on V
    leak = np.max([np.abs(LV - V @ L).max()
                   for V, LV, L in zip(bases, LVs, blocks)])
    s = np.linalg.svd(np.hstack(bases), compute_uv=False)
    if not (leak <= _SPLIT_LEAK * (1.0 + np.abs(c).max())
            and s[-1] >= _SPLIT_INDEPENDENCE):
        return None
    tags = [(L.shape[1], b.division) for L, b in zip(blocks, simple)]
    return tuple(
        (d, division,
         np.concatenate([L.reshape(N, d * d) for L, tag in zip(blocks, tags)
                         if tag == (d, division)], axis=1))
        for d, division in sorted(set(tags)))


def _spectral_split(algebra: FiniteDimRealAlgebra):
    """Split L_pi(a), for every a at once, into diagonal blocks on B.

    From dim B = _BLOCKED_MIN_DIM up the blocks are B's simple blocks (see
    _block_groups); below it, when they fail their gate or when a solver
    stalls while they are built, B is one non-division block in its own
    coordinates.  Each table is composed with pi, so that X @ table stacks
    the blocks of pi(x) for every row x of X.  Returns a non-empty tuple of
    (d, division, table), tables of shape (dim, K*d^2), by (d, division).
    """
    qm = algebra.semisimple_quotient
    B = qm.algebra
    q = B.dim
    groups = None
    if q >= _BLOCKED_MIN_DIM:
        try:
            groups = _block_groups(B, algebra.simple_blocks)
        except np.linalg.LinAlgError:  # an eigen- or SVD solver stalled
            pass
    if groups is None:
        groups = ((q, False, B.table.transpose(0, 2, 1).reshape(q, q * q)),)
    P = qm.projection[:, algebra.hull.dim - algebra.dim:]  # a -> pi(a)
    return tuple((d, division, P.T @ T) for d, division, T in groups)


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
    # checked: rounding in the change of basis can break associativity
    qalg = FiniteDimRealAlgebra(q, labels, table,
                                name=f"{algebra.name}/ideal")
    return QuotientMap(with_found_unit(qalg), proj, S)
