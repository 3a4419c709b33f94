"""Structured seminorms: evaluation, square-property and ratio checks, kernels.

Seminorms are first-class records rather than opaque callables so that
their kernels come out as exact linear subspaces; that exactness is what
the quotient construction downstream depends on, so every variant has one.

Every variant implements one evaluation, the batched values(algebra, X) on
a stack of coordinate rows; value(a), on one element or a stack of them, is
derived from it once, in the base class.

The square and ratio checks multiply only their random rows
(mul_coords_batch).  Their deterministic products are entries of the table
c: the squares of the probes 8 e_i and 8 (e_i +- e_j) are sums of rows
c[i,i], c[j,j], c[i,j] and c[j,i] (_square_probes, built once per
algebra and kept on it), and the basis pair (e_i, e_j) has the product
c[i,j], read per call and kept as the index pair (i, j).  Each check
draws its random rows in one draw, then walks its rows in slabs of at most
_SLAB_BYTES (_slabs): it stacks a slab's rows, or their products, into one
buffer reused from slab to slab, calls values once per slab and keeps one
value per row, 1/n of the row, so np.argmax picks the same worst row, a
NaN first, and it returns what one call on the whole stack returned, bit
for bit.  The slabs' temporaries stay small enough for malloc to reuse,
where whole stacks at H^8 had their pages faulted in again at every
check.  A stack that fits one slab is evaluated in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import FiniteDimRealAlgebra, AlgebraElement, _nullspace
from .spectral import max_block_norm, spectral_radius_batch

RATIO_FLOOR = 1e-12
M_HAT_FLOOR = 1e-12
# the most rows the checks hand p.values at once; timed at H^4, H^8 and
# H^16, 64 KiB pays for more calls and 256 KiB has its pages faulted in
_SLAB_BYTES = 128 << 10


class SeminormError(Exception):
    pass


class PayloadMismatch(SeminormError):
    pass


class UnsupportedVariant(SeminormError):
    pass


class SeminormVariant:
    """Base: a seminorm evaluatable on one algebra's elements.

    A variant implements values, p on each row of a stack of coordinates;
    value(a) is that evaluation on the rows of a: a float for one element,
    an array of shape coords.shape[:-1] for a stack.
    """

    def check_payload(self, algebra: FiniteDimRealAlgebra) -> None:
        pass

    def value(self, a: AlgebraElement):
        shape = a.coords.shape[:-1]
        v = self.values(a.algebra, a.coords.reshape(-1, a.algebra.dim))
        return v.reshape(shape) if shape else float(v[0])

    def values(self, algebra: FiniteDimRealAlgebra, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def kernel(self, algebra: FiniteDimRealAlgebra) -> np.ndarray:
        raise UnsupportedVariant(type(self).__name__)


@dataclass(frozen=True)
class CharacterSup(SeminormVariant):
    """p(a) = max |x(a)| over a fixed set of characters.

    values takes the sup block-major, as spectral.division_radii takes the
    division radii: table.T @ X.T stacks x(a) as (m, 4, rows), and the
    norms and the max reduce over its leading axes in one pass over
    contiguous rows (spectral.max_block_norm), where the row-major
    (rows, m, 4) of evaluations would loop over each short row.
    """

    characters: object   # (m, n, 4) images, or (n, 4) rows / nested lists

    @cached_property
    def _stack(self) -> np.ndarray:
        """(m, n, 4): the images of the m characters, converted once."""
        return np.asarray(self.characters, dtype=float)

    @cached_property
    def _table(self) -> np.ndarray:
        """(n, 4m): column 4k + c holds coordinate c of the images of the
        k-th character, so X @ table is x(a) row-major."""
        m, n, _ = self._stack.shape
        return self._stack.transpose(1, 0, 2).reshape(n, 4 * m)

    def _images(self, algebra) -> np.ndarray:
        stack = self._stack
        if stack.shape[1:] != (algebra.dim, 4):
            raise PayloadMismatch(
                f"character images shaped {stack.shape[1:]}, "
                f"need ({algebra.dim}, 4)")
        return stack

    def check_payload(self, algebra):
        if self._stack.size == 0:
            raise PayloadMismatch("character_sup needs at least one character")
        if not np.isfinite(self._images(algebra)).all():
            raise PayloadMismatch("character images must be finite")

    def evaluations(self, algebra, X) -> np.ndarray:
        """(rows, m, 4): x(a) for every row a of X and each character x."""
        m = len(self._images(algebra))
        return (X @ self._table).reshape(-1, m, 4)

    def values(self, algebra, X):
        self._images(algebra)   # PayloadMismatch on a wrong shape
        return max_block_norm(self._table.T @ X.T)

    def kernel(self, algebra):
        # rows (m, c): coordinate c of the m-th character's images
        return _nullspace(self._images(algebra).transpose(0, 2, 1)
                          .reshape(-1, algebra.dim))


@dataclass(frozen=True)
class SpectralRadius(SeminormVariant):
    """p(a) = max modulus of the spectrum of a."""

    def values(self, algebra, X):
        return spectral_radius_batch(algebra, X)

    def kernel(self, algebra):
        # the radical, the zero set of the spectral radius when r is a
        # seminorm (Dickson's trace criterion, see algebra.radical)
        return algebra.radical


class _Weighted(SeminormVariant):
    """A seminorm read from one weight per coordinate.  The weights are
    converted and checked once per object and dim, by _weights, and kept
    read-only; a payload that fails the check raises on every call."""

    @cached_property
    def _by_dim(self) -> dict:
        return {}

    def _w(self, algebra) -> np.ndarray:
        w = self._by_dim.get(algebra.dim)
        if w is None:
            w = self._weights(algebra.dim)
            w.setflags(write=False)
            self._by_dim[algebra.dim] = w
        return w

    def check_payload(self, algebra):
        self._w(algebra)

    def kernel(self, algebra):
        return np.eye(algebra.dim)[self._w(algebra) == 0.0]


@dataclass(frozen=True)
class CoordinateMax(_Weighted):
    """p(a) = max_i weight_i |coord_i|; weights default to 1."""

    weights: Optional[tuple] = None

    def _weights(self, dim):
        if self.weights is None:
            return np.ones(dim)
        w = np.array(self.weights, dtype=float)
        if w.shape != (dim,):
            raise PayloadMismatch(f"{w.size} weights for dim {dim}")
        if not np.isfinite(w).all() or (w < 0).any():
            raise PayloadMismatch("weights must be finite and nonnegative")
        return w

    def values(self, algebra, X):
        """Block-major, as CharacterSup.values: the weighted |X| is laid
        out (n, rows) and reduced over its leading axis in one pass over
        contiguous rows, where a max over each short row of X runs one
        tiny inner loop per row.  A max is exact in any order and
        propagates NaN (0 * inf included), so the bits are the row-major
        (w |X|).max(axis=1)'s, but for the sign of a NaN: NumPy's max over
        a row returns a NaN of its own, this one the NaN it met."""
        Y = np.abs(X.T, order="C", dtype=float)
        Y *= self._w(algebra)[:, None]
        return Y.max(axis=0)


@dataclass(frozen=True)
class CoordinateSum(_Weighted):
    """l1-style p(a) = sum_i weight_i |coord_i|; lacks the square property
    on most algebras, which makes it the standard hypothesis-rejection case."""

    weights: Optional[tuple] = None

    _weights = CoordinateMax._weights

    def values(self, algebra, X):
        # row-major, unlike CoordinateMax: a sum over the leading axis adds
        # in another order than NumPy's pairwise sum of rows of 8 or more
        return (self._w(algebra) * np.abs(X)).sum(axis=1)


@dataclass(frozen=True)
class OperatorNorm(SeminormVariant):
    """p(a) = largest singular value of the left regular matrix."""

    def values(self, algebra, X):
        L = algebra.left_matrices_batch(X)
        return np.linalg.svd(L, compute_uv=False)[:, 0]

    def kernel(self, algebra):
        n = algebra.dim
        M = algebra.table.reshape(n, n * n).T  # rows (j,k), columns i
        return _nullspace(M)


@dataclass(frozen=True)
class ComponentSup(_Weighted):
    """Max-abs over a subset of coordinates: CoordinateMax with weight 1 on
    the subset and 0 elsewhere, so its kernel is the excluded ones."""

    subset: tuple

    def _weights(self, dim):
        idx = np.asarray(self.subset, dtype=float)
        if not (idx == np.floor(idx)).all():   # NaN fails too
            raise PayloadMismatch(
                f"subset entries must be integers, got {self.subset}")
        if idx.size == 0 or idx.min() < 0 or idx.max() >= dim:
            raise PayloadMismatch(
                f"subset {self.subset} invalid for dim {dim}")
        w = np.zeros(dim)
        w[idx.astype(int)] = 1.0
        return w

    values = CoordinateMax.values


# bench/ calls this name; keep it until the benchmark is revised
def kernel(p: SeminormVariant, algebra: FiniteDimRealAlgebra) -> np.ndarray:
    """Basis (rows) of Ker(p) as an exact linear subspace."""
    return p.kernel(algebra)


def _square_probes(algebra) -> tuple:
    """(P, P2): the probes 8 e_i and 8 (e_i +- e_j), i < j, and their
    squares read from the table c, 64 c[i,i] and
    64 (c[i,i] + c[j,j] +- (c[i,j] + c[j,i])).  Built once per algebra
    and kept on it, read-only, as its radical is.

    One scale is enough: with N = |p(a^2) - p(a)^2| and D = p(a)^2 the
    probe s a has the residual s^2 N / (1 + s^2 D), which grows with s, so
    probes at scales below 8 never set the maximum."""
    probes = vars(algebra).get("_square_probes")
    if probes is None:
        eye, c = np.eye(algebra.dim), algebra.table
        diag = np.einsum("iik->ik", c)
        i, j = np.nonzero(~np.tri(algebra.dim, dtype=bool))  # i < j, by row
        both, cross = diag[i] + diag[j], c[i, j] + c[j, i]
        P = np.concatenate([eye, eye[i] + eye[j], eye[i] - eye[j]])
        probes = (8.0 * P,
                  64.0 * np.concatenate([diag, both + cross, both - cross]))
        for x in probes:
            x.setflags(write=False)
        algebra._square_probes = probes
    return probes


def _slabs(total: int, dim: int, per_row: int = 1, split: int = 0) -> list:
    """(start, stop) of each slab of `total` rows, in order: as many rows
    as keep a stack of per_row rows for each of them within _SLAB_BYTES,
    and at least two; [(0, total)] when they all fit.  The rows from
    `split` on are the random rows that a check multiplies.  A slab takes
    a row more rather than leave one row alone, at the end or past
    `split`: BLAS forms a one-row product by its matrix-vector path, whose
    sums round otherwise on a dense table, and the slabs must give the
    bits of one stack."""
    step = max(2, _SLAB_BYTES // (8 * per_row * dim))
    if total <= step:
        return [(0, total)]
    slabs, start = [], 0
    while start < total:
        stop = min(start + step, total)
        if start < split == stop - 1 and stop < total:
            stop += 1
        if stop == total - 1:
            stop = total
        slabs.append((start, stop))
        start = stop
    return slabs


@dataclass(frozen=True)
class SquareCheck:
    residual: float
    witness: np.ndarray  # coordinates of the maximizing sample


def square_property_details(p: SeminormVariant, algebra: FiniteDimRealAlgebra,
                            samples: int = 2000, seed: int = 0) -> SquareCheck:
    """Max of |p(a^2) - p(a)^2| / (1 + p(a)^2) over probes and random samples.

    The rows [P; R], the n^2 probes P and then the random rows R, are
    walked a slab at a time: each slab's rows and their squares go into
    one buffer, reused from slab to slab, and p is evaluated once per
    slab.  The probes' squares are read from _square_probes; only the
    slab's rows of R are multiplied.  A stack that fits one slab is
    [P; R; P^2; R^2], evaluated in one call.  One residual per row is
    kept, and np.argmax over them picks the worst, the first NaN or the
    first of equal maxima.  R is drawn from default_rng(seed) in one
    draw, so a Generator passed as seed is drawn from as is."""
    p.check_payload(algebra)
    P, P2 = _square_probes(algebra)
    probes, total = len(P), len(P) + samples
    R = np.random.default_rng(seed).standard_normal((samples, algebra.dim))
    slabs = _slabs(total, algebra.dim, 2, probes)   # a row over its square
    buf = np.empty((2 * max(b - a for a, b in slabs), algebra.dim))
    res = np.empty(total)
    for start, stop in slabs:
        m = stop - start
        k = max(0, min(m, probes - start))   # the slab's probes come first
        buf[:k], buf[m:m + k] = P[start:start + k], P2[start:start + k]
        if k < m:
            r = R[start + k - probes:stop - probes]
            buf[k:m], buf[m + k:2 * m] = r, algebra.mul_coords_batch(r, r)
        pa, pa2 = p.values(algebra, buf[:2 * m]).reshape(2, m)
        sq = pa ** 2
        np.divide(np.abs(pa2 - sq), 1.0 + sq, out=res[start:stop])
    i = int(res.argmax())
    return SquareCheck(float(res[i]),
                       (P[i] if i < probes else R[i - probes]).copy())


# bench/tracing.py wraps this name; keep it until the library records spans
def check_square_property(p, algebra, samples: int = 2000, seed: int = 0) -> float:
    return square_property_details(p, algebra, samples, seed).residual


def _ratio_scan(p, algebra, samples, seed):
    """(ratios, pair): every ratio p(ab) / (p(a) p(b)) of a deterministic
    basis sweep plus random pairs normalized to p = 1 where possible, and
    pair(r), the normalized pair (a, b) of ratios[r].

    The sweep's n^2 pairs (e_i, e_j) hold only n distinct elements, so p is
    evaluated on the basis alone and its values indexed per pair; their
    products are the table rows c[i,j], divided by p(e_i) p(e_j), and the
    pairs are kept as the indices (i, j).  Only the random pairs are
    normalized and multiplied.  p is evaluated on [I; Xa; Xb], with Xa and
    Xb drawn into it as one draw, slab by slab into one vector, since the
    floor's scale needs all of it.  The products are then walked in one
    index space, the basis pairs that clear the floor first and then the
    random ones, a slab at a time into one reused buffer, with one call of
    p per slab into the vector of ratios; a scan that fits one slab makes
    one call on each stack."""
    p.check_payload(algebra)
    n = algebra.dim
    X = np.empty((n + 2 * samples, n))
    X[:n] = np.eye(n)
    np.random.default_rng(seed).standard_normal(out=X[n:])
    eye, Xa, Xb = X[:n], X[n:n + samples], X[n + samples:]
    v = np.empty(len(X))
    for start, stop in _slabs(len(X), n):
        v[start:stop] = p.values(algebra, X[start:stop])
    pe, pa, pb = v[:n], v[n:n + samples], v[n + samples:]
    # 1 + the largest of 1, p(a) and p(b) over the pairs (a, b), the basis
    # values among the p(a); a NaN among the p(b) alone is passed over
    scale = 1.0 + max(v[:n + samples].max(), pb.max(initial=-np.inf), 1.0)
    floor = RATIO_FLOOR * scale ** 2
    # the basis pairs (e_i, e_j) and the random pairs that clear the floor
    i, j = np.nonzero(pe[:, None] * pe > floor)
    kept = np.flatnonzero(pa * pb > floor)
    basis, total = len(i), len(i) + len(kept)

    def random_pairs(a, b):   # the a-th to b-th kept random pairs
        # read in place when every pair is kept, with no copy of Xa, Xb
        r = slice(a, b) if len(kept) == samples else kept[a:b]
        # normalize every pair to p = 1 so ratio statistics are scale-free
        return Xa[r] / pa[r, None], Xb[r] / pb[r, None]

    slabs = _slabs(total, n, 1, basis)
    buf = np.empty((max(b - a for a, b in slabs), n))
    ratios = np.empty(total)
    for start, stop in slabs:
        m = stop - start
        k = max(0, min(m, basis - start))   # the slab's basis pairs first
        bi, bj = i[start:start + k], j[start:start + k]
        np.divide(algebra.table[bi, bj], (pe[bi] * pe[bj])[:, None],
                  out=buf[:k])
        if k < m:
            buf[k:m] = algebra.mul_coords_batch(
                *random_pairs(start + k - basis, start + m - basis))
        ratios[start:stop] = p.values(algebra, buf[:m])

    def pair(r):
        if r < basis:
            return eye[i[r]] / pe[i[r]], eye[j[r]] / pe[j[r]]
        a, b = random_pairs(r - basis, r - basis + 1)
        return a[0], b[0]
    return ratios, pair


def check_submultiplicative(p, algebra, samples: int = 2000, seed: int = 0) -> float:
    """Max of p(ab) / (p(a) p(b)) over basis pairs and random samples,
    drawn from default_rng(seed) (a Generator is drawn from as is)."""
    ratios, _ = _ratio_scan(p, algebra, samples, seed)
    return float(ratios.max()) if ratios.size else 0.0


@dataclass(frozen=True)
class MEstimate:
    m_hat: float
    pair: tuple  # (coords a, coords b) achieving the max ratio


def estimate_m(p, algebra, samples: int = 2000, seed: int = 0) -> MEstimate:
    """Sampled working constant for p(ab) <= m p(a) p(b); a lower bound of
    the true m, floored at 1e-12; a NaN ratio stays NaN (np.maximum)."""
    ratios, pair = _ratio_scan(p, algebra, samples, seed)
    if ratios.size == 0:
        return MEstimate(M_HAT_FLOOR, (np.zeros(algebra.dim),) * 2)
    i = int(np.argmax(ratios))
    return MEstimate(float(np.maximum(ratios[i], M_HAT_FLOOR)), pair(i))
