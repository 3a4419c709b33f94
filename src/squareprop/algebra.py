"""Finite-dimensional real associative algebras given by structure constants.

An algebra is a dense table c[i, j, k] with e_i e_j = sum_k c[i,j,k] e_k.
Every table is checked for associativity once, where it is given
(make_algebra, FiniteDimRealAlgebra), and every algebra keeps a bound on
its table's exact defect.  corpus.direct_sum (and unitize, which no
library path calls) assembles its table from checked ones with exact 0s
and 1s, so its defect is that of its parts, and it inherits the check
and the bound.  A quotient's table is computed with rounding; quotient
bounds its defect from the ambient bound, the leak of the ideal and the
rounding of the change of basis, in O(n^4), and runs the O(n^5) check
only when that bound cannot vouch for the table.  Everything downstream
(spectra, seminorm kernels, quotients, characters) is computed from
this table and the left regular representation.

The package needs NumPy alone at run time: even the quotient's choice of
complement is a short NumPy loop (_pivot_columns).  The checks, the
quotient table and the products contract the table with BLAS matrix
products.  Products and L_a are written once, for stacks of rows
(mul_coords_batch, left_matrices_batch); mul_coords, mul and
left_regular_matrix are their one-row views.  A table with fewer than
n^2 nonzeros (a direct sum's, a sparse builtin's or file's) multiplies
on its nonzeros alone, from a matrix built once and kept on the algebra;
any other table (a division algebra's, or one written in a dense basis,
as the rotated tables and their quotients are) is contracted densely,
since its nonzeros would save little, and keeps its bits.  The
associativity check compares (e_i e_j) e_k with e_i (e_j e_k) a block of
i at a time: O(n^5) flops, but only O(n^3) memory (a few MB per block)
where the whole (i, j, k, l) comparison would hold three n^4 arrays
(380 MB at n = 63).

An algebra is immutable, so what is derived from its table alone is built
once, on first use, and kept on it: the unit when none is given (`unit`,
solved for from the table and held to the gate a given unit passes), the
radical (`radical`, read from A's own table by Dickson's criterion, which
needs no unit), B = A / rad(A) (`semisimple_quotient`), which is
semisimple and so has a unit, the one `unit` solves for on B's table,
the simple blocks of B, each named R, C, H or M2(R) (`simple_blocks`),
and per group of blocks a table that gives for every a at once the
blocks of L_pi(a), or on the R, C and H blocks, all in one group, a
factor of r(a)^2 four columns wide per block (`spectral_split`).  A nil
A (rad(A) = A, as the null line) has B = 0: no blocks, an empty split
and r = 0.  Two records are kept on it from outside, read-only, by the
module that builds them: the square probes (seminorm._square_probes) and
the characters (characters.find_characters).  The radical is nil, so
r(a) = r(pi(a)), and on B no L_b keeps a nilpotent Jordan part from the
radical: its eigenvalues are exact to rounding where those of a
defective L_a err by about eps^(1/k).  The characters, the seminorm test
of the spectral radius and the split read the block record and its
names; the split tags each group of blocks as division (R, C or H) or
not (see spectral).  A direct sum (corpus.direct_sum) keeps its parts,
and `summands` walks them, nested sums flattened, with the row at which
each starts: a sum's split, blocks and characters are its summands' (see
characters), so nothing builds a sum's own quotient or blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

ASSOC_TOL = 1e-10
UNIT_TOL = 1e-12  # relative, see _unit_failure
IDEAL_TOL = 1e-10
INVERT_CUTOFF = 1e-10  # smallest/largest singular value, scale free
_RANK_RTOL = 1e-10     # rank cut of _nullspace and _row_basis, relative
_ASSOC_BLOCK_BYTES = 4 << 20  # one (i-block, j, k, l) slab of the check
_PRODUCT_BLOCK_BYTES = 128 << 10  # one (rows, nnz) slab of a product
_SPLIT_SEED = 0         # draws the generic central element of the blocks
_SPLIT_LEAK = 1e-10     # invariance defect a block may show, relative
_SPLIT_INDEPENDENCE = 1e-8  # smallest singular value of the joined bases
# the quotient table's contraction: i, then j, then k, one index a step (the
# path optimize=True picks for these operands, so the bits are its own, given
# here so that no call searches for it again)
_QUOTIENT_PATH = ["einsum_path", (0, 2), (0, 2), (0, 1)]


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


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: a sum of k products,
    taken in any order, is within gamma_k of exact, relative to the sum of
    the products' absolute values (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, sec. 3.1); gamma_j + gamma_k +
    gamma_j gamma_k <= gamma_(j+k) chains such bounds."""
    u = np.finfo(float).eps / 2
    return k * u / (1.0 - k * u)


def _check_rounding(c: np.ndarray) -> float:
    """How far the dense check's defect of table c can be from the exact
    one: each of (e_i e_j) e_k and e_i (e_j e_k) is a sum of n products
    whose absolute values add up to at most c1 cmax, c1 the largest
    sum_k |c[i,j,k]|, and their difference is rounded once more.  The
    index 2n + 2 also covers the rounding of c1 itself."""
    a = np.abs(c)
    return (2.0 * _gamma(2 * c.shape[0] + 2)
            * float(a.sum(axis=2).max()) * float(a.max()))


class FiniteDimRealAlgebra:
    """Structure-constant presentation of a real associative algebra."""

    _parts = ()   # the summands of a direct sum, in order (_from_checked)

    def __init__(self, dim, labels, table, unit=None, name=""):
        self._build(dim, labels, table, unit, name, None)

    @classmethod
    def _from_checked(cls, dim, labels, table, defect, unit=None, name="",
                      parts=()):
        """An algebra whose table is vouched for without the dense
        associativity check: assembled from checked tables in a way that
        keeps every defect (unitize, corpus.direct_sum), or certified by a
        bound that the check would accept (quotient).  defect bounds the
        table's exact defect, and is kept as _assoc_bound.  Every other
        check of __init__ runs.  parts are a direct sum's, in order
        (summands)."""
        algebra = cls.__new__(cls)
        algebra._build(dim, labels, table, unit, name, defect)
        algebra._parts = tuple(parts)
        return algebra

    def _build(self, dim, labels, table, unit, name, defect):
        if dim <= 0:
            raise DimensionMismatch("dim must be positive")
        labels = tuple(labels)
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
        if defect is None:
            defect = self._check_associativity()
        else:
            self._assoc_tol()   # its finiteness checks alone
        # a bound on the exact max |(e_i e_j) e_k - e_i (e_j e_k)|
        self._assoc_bound = defect
        if unit is not None:
            unit = np.asarray(unit, dtype=float)
            if unit.shape != (dim,):
                raise DimensionMismatch("unit vector has wrong length")
            bad = self._unit_failure(unit)
            if bad is not None:
                raise BadUnit(f"claimed unit fails on basis element {bad}")
            unit.setflags(write=False)
            self.unit = unit    # fills the cache of the unit property

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

    def _check_associativity(self) -> float:
        """Raise unless every coefficient of (e_i e_j) e_k - e_i (e_j e_k)
        is within _assoc_tol; return the worst one plus the check's own
        rounding (_check_rounding), a bound on the exact defect."""
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
        return worst + _check_rounding(c)

    def _unit_failure(self, u):
        """The first j with u e_j or e_j u off e_j by more than
        UNIT_TOL (1 + s), where s is the largest sum_i |u_i c[i,j,k]| or
        sum_i |u_i c[j,i,k]|: the size of the terms those products add up,
        to which they are rounded.  A component of u that multiplies only
        zeros adds nothing to s.  None when u is a unit.  The one gate of a
        unit, given or solved for; a non-finite u fails."""
        n = self.dim
        au, ac = np.abs(u), np.abs(self.table)
        s = max(float((au @ ac.reshape(n, n * n)).max()),
                float((au @ ac).max()))
        tol = UNIT_TOL * (1.0 + s)
        eye = np.eye(n)
        left = self._left_rows(u[None])[0] - eye   # [j, k]: u e_j
        right = u @ self.table - eye               # [j, k]: e_j u
        # written so that a NaN defect fails the check
        good = ((np.abs(left).max(axis=1) <= tol)
                & (np.abs(right).max(axis=1) <= tol))
        if good.all() and math.isfinite(tol):
            return None
        return int(np.argmin(good))

    @cached_property
    def unit(self) -> Optional[np.ndarray]:
        """The unit's coordinates, read-only, or None when A has none.  A
        unit given to the constructor is checked and kept there; otherwise
        the one _solve_unit finds is kept if it passes the same gate."""
        u = _solve_unit(self.table)
        if u is None or self._unit_failure(u) is not None:
            return None
        u.setflags(write=False)
        return u

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    @cached_property
    def radical(self) -> np.ndarray:
        """Rows spanning rad(A), read-only, read from A's own table whether
        or not A has a unit.  Dickson's criterion (L. E. Dickson, Algebras
        and Their Arithmetics, 1923): x is in rad(A) iff tr(L_(x a)) = 0
        for every a in A; with t_k = tr(L_e_k),
        M[i, j] = tr(L_(e_i e_j)) = sum_k c[i, j, k] t_k.

        No unit is needed (characteristic 0).  The x with tr(L_(x a)) = 0
        for every a form a two-sided ideal, since tr(L_b L_y) =
        tr(L_y L_b).  For such an x the power sums tr(L_x^k) = tr(L_(x^k))
        vanish for every k >= 2, so every eigenvalue of L_x is 0 (nonzero
        ones would solve a Vandermonde system with a zero right-hand side),
        L_(x^N) = L_x^N = 0 for N = dim A and x^(N+1) = 0: the ideal is
        nil, so it lies in rad(A).  Conversely, x a is in rad(A), so
        nilpotent, for x in rad(A), and its trace is 0.  The unitization
        would add only the column tr(L_x), no new constraint, so no unit
        is solved for here."""
        c = self.table
        # row j of M.T sums terms of at most |c[:, j]| |t|, where
        # |t_k| <= sum_j |c[k, j, j]|; divided by that size, every row is
        # rounded alike, also where it is 0 in exact arithmetic (a nil A)
        size = (np.abs(c) @ np.einsum("kjj->k", np.abs(c))).max(axis=0)
        M = (c @ np.einsum("kjj->k", c)).T
        rad = _nullspace(M / np.where(size > 0, size, 1.0)[:, None], 1.0)
        rad.setflags(write=False)
        return rad

    @cached_property
    def semisimple_quotient(self) -> Optional["QuotientMap"]:
        """A / rad(A), whether A has a unit or not; the identity map on A
        when rad(A) is 0.  None when A is nil (rad(A) = A): A / rad(A) is
        then 0, with no blocks, and r = 0 on all of A."""
        if len(self.radical) == self.dim:
            return None
        qm = quotient(self, self.radical)
        _read_only(qm.projection, qm.lift)
        return qm

    @cached_property
    def simple_blocks(self) -> tuple:
        """The named simple blocks of semisimple_quotient, a tuple of
        SimpleBlock (see _simple_blocks)."""
        blocks = _simple_blocks(self)
        for b in blocks:
            _read_only(b.e, b.V, b.basis)
        return blocks

    @cached_property
    def summands(self) -> tuple:
        """(offset, leaf) per summand of a direct sum, nested sums
        flattened depth first; ((0, self),) on an algebra that is no sum."""
        if not self._parts:
            return ((0, self),)
        walk, start = [], 0
        for part in self._parts:
            walk += [(start + off, leaf) for off, leaf in part.summands]
            start += part.dim
        return tuple(walk)

    @cached_property
    def spectral_split(self) -> tuple:
        """Tables of L_pi(a) on the blocks of B = A / rad(A), grouped
        by size, or of radius factors on all its R, C and H blocks in one
        group, each tagged division or not (see _spectral_split)."""
        split = _spectral_split(self)
        _read_only(*(T for _, _, T in split))
        return split

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, np.asarray(coords, dtype=float))

    # bench/tracing.py wraps this name; keep it until the library records spans
    def mul_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product a b: one row of mul_coords_batch."""
        return self.mul_coords_batch(a[None], b[None])[0]

    def _left_rows(self, A: np.ndarray) -> np.ndarray:
        """[s, j, k]: coordinate k of A[s] e_j."""
        n = self.dim
        return (A @ self.table.reshape(n, n * n)).reshape(-1, n, n)

    @cached_property
    def _nonzero_products(self):
        """(I, J, S) for a table with fewer than n^2 nonzeros, else None:
        the one place that picks the product path of mul_coords_batch.

        (I, J, K) are the nonzero indices of c, and S is the (nnz, n)
        matrix holding c[I, J, K] in column K, read-only."""
        n = self.dim
        I, J, K = np.nonzero(self.table)
        if I.size >= n * n:
            return None
        S = np.zeros((I.size, n))
        S[np.arange(I.size), K] = self.table[I, J, K]
        S.setflags(write=False)
        return I, J, S

    def mul_coords_batch(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Row-wise products of two stacks of coordinate vectors.

        On a table with nnz < n^2 nonzeros the product of rows a, b is
        (a[I] * b[J]) @ S (see _nonzero_products), about nnz (n + 2) flops
        a row against n^3 + n^2 for the dense contraction b L_a^T.  It is
        taken a slab of rows at a time, so that the (rows, nnz) terms stay
        in cache: on H^8, 2000 rows at once took 2-3 times as long.  Any other
        table (a division algebra's, or one written in a dense basis) would
        save little or nothing on its nonzeros, so it keeps the dense
        contraction and its bits."""
        nonzero = self._nonzero_products
        if nonzero is None:
            return np.matmul(B[:, None, :], self._left_rows(A))[:, 0]
        I, J, S = nonzero
        step = max(1, _PRODUCT_BLOCK_BYTES // (8 * max(1, I.size)))
        out = np.empty((A.shape[0], self.dim))
        for r in range(0, A.shape[0], step):
            np.matmul(A[r:r + step, I] * B[r:r + step, J], S,
                      out=out[r:r + step])
        return out

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
def make_algebra(dim, labels, table, unit=None, name=""):
    return FiniteDimRealAlgebra(dim, labels, table, unit=unit, name=name)


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


def _read_only(*arrays):
    """Mark the arrays of a record read-only (a None is skipped): an
    algebra, a builtin above all, is shared, and so is what it keeps."""
    for x in arrays:
        if x is not None:
            x.setflags(write=False)


def _solve_unit(c: np.ndarray):
    """The least-squares solution u of u e_j = e_j u = e_j for every j, or
    None when lstsq does not converge; FiniteDimRealAlgebra.unit decides
    whether u is a unit.

    The system is balanced first, as eigen-solvers balance a matrix
    (Parlett and Reinsch, Numer. Math. 13, 1969): each row, then each
    column, is scaled by the power of two that brings its largest entry
    into [1/2, 1), and the column scale is undone on the solution.  Powers
    of two scale exactly, so a consistent system keeps its solution, and
    a table written in a basis of entries 2^k far apart (whose unit lstsq
    would otherwise miss, or not converge on) is solved as well as one in
    a balanced basis."""
    n = c.shape[0]
    # rows: for each (j, k), sum_i u_i c[i,j,k] = delta_jk, then the
    # c[j,i,k] side; row j*n+k, column i
    M = np.vstack([c.reshape(n, n * n).T,
                   np.transpose(c, (1, 0, 2)).reshape(n, n * n).T])
    # scaled in place, with max and -min where abs would copy M; a zero
    # row or column has exponent 0, and keeps its scale
    rows = -np.frexp(np.maximum(M.max(axis=1), -M.min(axis=1)))[1]
    np.ldexp(M, rows[:, None], out=M)
    cols = -np.frexp(np.maximum(M.max(axis=0), -M.min(axis=0)))[1]
    b = np.ldexp(np.concatenate([np.eye(n).ravel()] * 2), rows)
    try:
        u = np.linalg.lstsq(np.ldexp(M, cols, out=M), b, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    return np.ldexp(u, cols)


# no library path unitizes (B = A / rad(A) has its own unit); bench/tracing.py
# wraps this name, so keep it until the library records spans
def unitize(algebra: FiniteDimRealAlgebra) -> FiniteDimRealAlgebra:
    """Adjoin a unit: (n+1)-dim algebra R*e + A with e in slot 0.

    The table is not checked for associativity again: a triple of A's
    basis has A's own defect, since the added entries are exact 0s and 1s
    and the terms through e are exact 0s, and a triple with e has defect
    exactly 0; the tolerance ASSOC_TOL (1 + max|c|)^2 is at least A's.
    So A's bound on its exact defect is the unitization's too.
    """
    n = algebra.dim
    c = np.zeros((n + 1, n + 1, n + 1))
    c[1:, 1:, 1:] = algebra.table
    idx = np.arange(n + 1)
    c[0, idx, idx] = c[idx, 0, idx] = 1.0
    return FiniteDimRealAlgebra._from_checked(
        n + 1, ("e",) + algebra.labels, c, algebra._assoc_bound,
        unit=np.eye(n + 1)[0], name=f"unitize({algebra.name})")


def _nullspace(M: np.ndarray, scale=None) -> np.ndarray:
    """Rows spanning the right null space of M.

    A thin SVD suffices for a tall M; a wide M needs the full V, whose extra
    rows are part of the null space.  The rank counts the singular values
    above _RANK_RTOL * scale, where scale is the size of the data M is
    computed from, by default its own largest singular value.  So the cut
    follows the scale of the data (a basis 10^k e_i scales the Dickson
    matrix of `radical` by 10^(2k)) and the zero matrix has rank 0; an M
    that is 0 in exact arithmetic but computed by rounding (a commutator on
    a commutative table) passes the scale of its inputs, so that the
    rounding stays under the cut.
    """
    if M.size == 0:
        return np.eye(M.shape[1])
    _, s, Vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    rank = int((s > _RANK_RTOL * (s[0] if scale is None else scale)).sum())
    return Vt[rank:]


class SimpleBlock(NamedTuple):
    """One simple block e*B of B = A / rad(A), in B's coordinates.

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

    @property
    def order(self) -> tuple:
        """(dimension, name), the order of the blocks; mu, drawn in a basis
        of the center that rounding rotates, follows the table's last bits."""
        return self.V.shape[1], self.name


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
    """Wedderburn-Artin blocks of B = A / rad(A), named; none when B = 0.

    The center of B is a product of copies of R and C; a generic central z,
    drawn with a fixed seed, has one real eigenvalue mu per R and a
    conjugate pair per C on it, and the spectral projectors of z applied to
    B's unit are the primitive central idempotents e.  Every e*B is a
    simple block, invariant under every L_b.  Each block is named once,
    here (see _classify).

    Returns a tuple of SimpleBlock, where V holds the leading left
    singular vectors of L_e, ordered by SimpleBlock.order, then by mu.
    """
    qm = algebra.semisimple_quotient
    if qm is None:
        return ()
    B = qm.algebra
    c = B.table
    # B is semisimple, so it has a unit; where B's table is rounded through
    # an ill-conditioned change of basis, the least-squares one can miss the
    # unit gate by rounding, and serves all the same: the split and the
    # characters gate what is built from it
    u = B.unit if B.is_unital else _solve_unit(c)
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
    return tuple(sorted(blocks, key=lambda b: b.order))


def _block_groups(B: FiniteDimRealAlgebra, simple):
    """Tables of L_b on the simple blocks of B, or None when they fail
    their gate: dimensions summing to dim B, no block leaking out of its
    subspace on a basis element, independent subspaces (a NaN fails).

    Each block e*B is invariant under every L_b, and its basis V is
    orthonormal, so the block of L_b on it is V^T L_b V.  The division
    blocks (R, C and H) form one group, tagged (4, True), whose table
    holds their K factors W of _radius_factor side by side in block
    order, (N, 4K); the other blocks are grouped by size d, and such a
    group's table holds, in row i, its K blocks of L_(e_i) flattened,
    (N, K*d^2).
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
    tags = [(4, True) if b.division else (L.shape[1], False)
            for L, b in zip(blocks, simple)]
    cols = [_radius_factor(L) if division else L.reshape(N, d * d)
            for L, (d, division) in zip(blocks, tags)]
    return tuple(
        (d, division,
         np.concatenate([C for C, tag in zip(cols, tags)
                         if tag == (d, division)], axis=1))
        for d, division in sorted(set(tags)))


def _radius_factor(L: np.ndarray) -> np.ndarray:
    """W, of shape (N, 4), with r(b) = |b W| for every b, on a division
    block whose d x d block of L_(e_i) is L[i].  Its last 4 - d columns
    are 0, so that R, C and H blocks share one width: a 0 added to a sum
    of squares changes no bit.

    The block M of L_b has one conjugate pair of eigenvalues l, conj(l),
    d/2 times each (l = b real when d = 1), so tr M = d Re l,
    tr M^2 = d Re l^2 and r(b)^2 = |l|^2 = (2 (tr M)^2 - d tr M^2) / d^2:
    the quadratic form b Q b^T with Q = (2 t t^T - d G) / d^2, where
    t_i = tr L[i] and G_ij = tr(L[i] L[j]).  Q is positive semidefinite of
    rank <= d, as r = |x| on the division algebra, so its top d eigenpairs
    factor it as W W^T; eigenvalues rounded below 0 count as 0.  L is
    scaled to max|L| = 1 first, so Q neither overflows nor underflows.
    Only traces of L enter: neither the block's basis nor a character.
    """
    N, d, _ = L.shape
    s = np.abs(L).max()
    L = L / s
    t = np.einsum("ijj->i", L)
    G = L.reshape(N, d * d) @ L.transpose(0, 2, 1).reshape(N, d * d).T
    lam, U = np.linalg.eigh((2.0 * np.outer(t, t) - d * G) / (d * d))
    W = np.zeros((N, 4))
    W[:, :d] = U[:, -d:] * (s * np.sqrt(np.maximum(lam[-d:], 0.0)))
    return W


def _spectral_split(algebra: FiniteDimRealAlgebra):
    """Split L_pi(a), for every a at once, into diagonal blocks on B.

    On a direct sum (corpus.direct_sum) L_a is block diagonal, one block
    per summand, and sp(a) is the union of their spectra, so the split is
    their splits side by side, each in its rows and 0 elsewhere, tables
    of one (d, division) in the order of `summands`: one division group
    at most, and nothing solved on the sum.  On any other algebra the
    blocks are B's simple blocks (see _block_groups); when they fail their
    gate, or when a solver stalls while they are built, B is one
    non-division block in its own coordinates.  Each table is composed
    with pi, so that for every row x of X, X @ table stacks the K blocks
    of L_pi(x) on a non-division group, and on the division group the K
    vectors whose lengths are the blocks' spectral radii.
    Returns a tuple of (d, division, table), by (d, division): at most
    one division entry, (4, True) with a table of shape (dim, 4K), and per
    other size d a table of shape (dim, K*d^2); empty when B = 0.
    """
    if algebra._parts:
        groups = {}
        for off, leaf in algebra.summands:
            for d, division, T in leaf.spectral_split:
                rows = np.zeros((algebra.dim, T.shape[1]))
                rows[off:off + leaf.dim] = T
                groups.setdefault((d, division), []).append(rows)
        return tuple((d, division, np.hstack(groups[d, division]))
                     for d, division in sorted(groups))
    qm = algebra.semisimple_quotient
    if qm is None:
        return ()
    B = qm.algebra
    try:
        groups = _block_groups(B, algebra.simple_blocks)
    except np.linalg.LinAlgError:  # an eigen- or SVD solver stalled
        groups = None
    if groups is None:
        groups = ((B.dim, False, B.table.swapaxes(1, 2).reshape(B.dim, -1)),)
    return tuple((d, division, qm.projection.T @ T)
                 for d, division, T in groups)


def _row_basis(V, n: int) -> np.ndarray:
    """Rows spanning what the rows of V span: V itself when its rows are
    independent, else the leading right singular vectors of V, as many as
    its rank (the singular values above _RANK_RTOL times the largest, the
    cut of _nullspace).  A zero V has rank 0, and gives no rows.  A V
    with a non-finite entry is kept, for the ideal gate to refuse."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.size == 0:
        return np.zeros((0, n))
    if not np.isfinite(V).all():
        return V
    s = np.linalg.svd(V, compute_uv=False)
    rank = int((s > _RANK_RTOL * s[0]).sum())
    if rank == V.shape[0]:
        return V
    return np.linalg.svd(V, full_matrices=False)[2][:rank]


# bench/ calls this name; keep it until the benchmark is revised
def subspace_is_two_sided_ideal(algebra: FiniteDimRealAlgebra, V) -> bool:
    """True iff span of the rows of V absorbs multiplication on both sides:
    the gate of quotient (_absorbs), on V cut to its rank."""
    V = _row_basis(V, algebra.dim)
    if V.shape[0] == 0:
        return True
    return _absorbs(algebra, V, np.linalg.qr(V.T)[0])


def _absorbs(algebra: FiniteDimRealAlgebra, V: np.ndarray,
             Q: np.ndarray) -> bool:
    """The ideal gate on rows V already cut to their rank (_row_basis), Q
    an orthonormal basis of their span (the Q of V^T): e_i v and v e_i
    stay in it for every row v, to IDEAL_TOL."""
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


def _pivot_columns(P: np.ndarray, q: int) -> np.ndarray:
    """The first q pivots of column-pivoted QR on P, in the order taken.

    Greedy: each step takes the column with the largest residual norm,
    the first index on a tie, and projects that column out of the others.
    Householder QR with column pivoting (LAPACK's geqp3, as SciPy calls
    it) takes at each step the same column, the largest norm of what is
    left once the columns already taken are projected out; it only keeps
    those norms by downdating, recomputing one when cancellation makes the
    downdate inaccurate, so they agree with these to rounding.  The two
    sets therefore differ only where two norms tie to within rounding,
    and any q independent columns of P span the same space, the
    orthogonal complement of span(V), so the quotient is the same algebra
    in another basis either way.  A column once taken is left with a
    residual of rounding size, while P, a projector of rank q, keeps
    residuals whose squared norms sum to q - t after t steps, so no
    column is taken twice.
    """
    R = np.array(P, dtype=float)
    cols = np.empty(q, dtype=np.intp)
    for t in range(q):
        norms = np.einsum("ij,ij->j", R, R)
        j = cols[t] = np.argmax(norms)
        u = R[:, j] / math.sqrt(norms[j])
        R -= np.outer(u, u @ R)
    return cols


def quotient(algebra: FiniteDimRealAlgebra, V) -> QuotientMap:
    """Quotient by the two-sided ideal K spanned by the rows of V.

    V is cut to its rank once, and the one QR of it gives Q_V, which the
    ideal gate (_absorbs, as in subspace_is_two_sided_ideal) reads too.
    The complement of K is spanned by the columns of S, the projections
    off K of q standard basis vectors; with Q_V an orthonormal basis of K,
    W = [S Q_V]^-1 stacks proj (the first q rows, coordinates on S) over
    proj_K.  The table c~[a, b] = proj (S_a S_b) rounds, so it needs a
    check of associativity; _quotient_certificate bounds its exact defect
    in O(n^4), and when that bound plus the dense check's own rounding is
    within the check's tolerance, the check would accept the table, and
    it is skipped (_from_checked).  Otherwise the dense check runs, as on
    any table, and raises as it would.  So a quotient is accepted or
    refused as the check decides either way, and its bound, kept on it,
    is what a quotient of the quotient starts from.
    """
    n = algebra.dim
    V = _row_basis(V, n)
    m = V.shape[0]
    q = n - m
    if m == 0:
        ident = np.eye(n)
        return QuotientMap(algebra, ident, ident)
    Qv, _ = np.linalg.qr(V.T)
    if not _absorbs(algebra, V, Qv):
        raise NotAnIdeal("span(V) is not a two-sided ideal")
    P = np.eye(n) - Qv @ Qv.T
    # deterministic complement: the q columns of P (the standard basis
    # projected off span(V)) that greedy column pivoting takes first, the
    # first index on a tie; away from ties, the set LAPACK's pivoted QR takes
    cols = np.sort(_pivot_columns(P, q))
    S = P[:, cols]                     # section basis, n x q
    W = np.linalg.inv(np.hstack([S, Qv]))  # inverse of the change of basis
    proj = W[:q, :]
    table = np.einsum("ia,jb,ijk,qk->abq", S, S, algebra.table, proj,
                      optimize=_QUOTIENT_PATH)
    labels = [f"[{algebra.labels[c]}]" for c in cols]
    name = f"{algebra.name}/ideal"
    defect = _quotient_certificate(algebra, S, Qv, W, table)
    with np.errstate(over="ignore", invalid="ignore"):
        tol = ASSOC_TOL * (1.0 + np.abs(table).max()) ** 2
    # written so that a NaN, or a table the check refuses as too large,
    # takes the dense check
    if math.isfinite(tol) and defect + _check_rounding(table) <= tol:
        quo = FiniteDimRealAlgebra._from_checked(q, labels, table, defect,
                                                 name=name)
    else:
        quo = FiniteDimRealAlgebra(q, labels, table, name=name)
    return QuotientMap(quo, proj, S)


def _quotient_certificate(algebra, S, Qv, W, table) -> float:
    """A bound on the exact associativity defect of the quotient's table,
    from the data quotient holds, in O(n^4).

    Write x y for A's product on its table c, exact, and |.| for the max
    norm of a vector, ||S|| for the largest column sum of |S| (the 1-norm)
    and ||proj|| for the largest row sum of |proj| (the max norm).  Let
    c^ be the exact table of the stored S and proj, c^[a, b] = proj w
    with w = S_a S_b.  With G = [S Q_V] W - I, S proj w = w - Q_V t + G w,
    t = proj_K w, so (a b) c in c^ is
        proj (w S_c) - proj ((Q_V t) S_c) + proj ((G w) S_c),
    and a (b c) likewise.  Their difference has three parts, t1 to t3;
    t4 is the step from c^ to the computed table c~.
      t1: proj of A's associator on S_a, S_b, S_c, at most
          ||proj|| ||S||^3 d_A, d_A A's bound (_assoc_bound).
      t2: (Q_V t) S_c sums t_j S_kc u_j e_k over the columns u_j of Q_V,
          and proj (u_j e_k) is the leak of u_j e_k out of K, read in the
          quotient's coordinates: at most lam, measured on both sides as
          the ideal gate measures the leak of V's rows, plus the rounding
          gamma_2n ||proj|| |u_j|_1 max|c| of that measurement.  |t|_1
          is at most ||proj_K||_1 |w|_1, and |w|_1 <= ||S||^2 c1, c1 the
          largest sum_k |c[i,j,k]|: 2 ||proj_K||_1 ||S||^3 c1 lam in all.
      t3: |proj ((G w) S_c)| <= ||proj|| max|c| ||G||_1 ||S||^3 c1, on
          both sides; ||G||_1 is measured, plus gamma_(n+2) || |[S Q_V]|
          |W| ||_1 for the rounding of the product.
      t4: the table's einsum contracts i, j and k one at a time
          (_QUOTIENT_PATH), each a sum of n products in whatever order
          BLAS takes, so |c~ - c^| <= E = gamma_3n X, X the same
          contraction over |S|, |S|, |c| and |proj|, taken here with
          plain matrix products.  In the associator, E adds at most
          2 (e1 max|c~| + (c~1 + e1) max E), e1 and c~1 the largest sums
          over the last index of E and |c~|.
    Each term is a product of at most 8 sums (or stages of a sum) of at
    most n nonnegative numbers, so the factor 1 + gamma_(16n+16) covers
    the rounding of the certificate itself.
    """
    c = algebra.table
    n, q = S.shape
    proj, proj_k = W[:q], W[q:]
    ac, aS, aP = np.abs(c), np.abs(S), np.abs(proj)
    cmax, c1 = float(ac.max()), float(ac.sum(axis=2).max())
    s1 = float(aS.sum(axis=0).max())
    p_inf = float(aP.sum(axis=1).max())
    # [j, i, k]: u_j e_i, then e_i u_j, read in the quotient's coordinates
    prods = np.concatenate([Qv.T @ c.reshape(n, n * n),
                            Qv.T @ c.transpose(1, 0, 2).reshape(n, n * n)])
    lam = (float(np.abs(prods.reshape(-1, n, n) @ proj.T).max())
           + _gamma(2 * n) * p_inf * float(np.abs(Qv).sum(axis=0).max())
           * cmax)
    B = np.hstack([S, Qv])
    g1 = (float(np.abs(B @ W - np.eye(n)).sum(axis=0).max())
          + _gamma(n + 2) * float((np.abs(B).sum(axis=0) @ np.abs(W)).max()))
    t1 = p_inf * algebra._assoc_bound
    t2 = 2.0 * float(np.abs(proj_k).sum(axis=0).max()) * c1 * lam
    t3 = 2.0 * p_inf * cmax * g1 * c1
    # X[a, b, r] = sum |S_ia| |S_jb| |c_ijk| |proj_rk|: k, then i, then j
    Y = ac.reshape(n * n, n) @ aP.T
    Z = (aS.T @ Y.reshape(n, n * q)).reshape(q, n, q)
    E = _gamma(3 * n) * np.matmul(aS.T, Z)
    e1 = float(E.sum(axis=2).max())
    at = np.abs(table)
    t4 = 2.0 * (e1 * float(at.max())
                + (float(at.sum(axis=2).max()) + e1) * float(E.max()))
    return (s1 ** 3 * (t1 + t2 + t3) + t4) * (1.0 + _gamma(16 * n + 16))
