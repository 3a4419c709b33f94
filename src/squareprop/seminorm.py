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
c[i,j], read per call and kept as the index pair (i, j).
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

    values takes the sup block-major, as spectral._group_radii takes the
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
        return max_block_norm(self._table.T @ X.T, 4)

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


@dataclass(frozen=True)
class CoordinateMax(SeminormVariant):
    """p(a) = max_i weight_i |coord_i|; weights default to 1."""

    weights: Optional[tuple] = None

    def _w(self, algebra):
        if self.weights is None:
            return np.ones(algebra.dim)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (algebra.dim,):
            raise PayloadMismatch(f"{w.size} weights for dim {algebra.dim}")
        if not np.isfinite(w).all() or (w < 0).any():
            raise PayloadMismatch("weights must be finite and nonnegative")
        return w

    def check_payload(self, algebra):
        self._w(algebra)

    def values(self, algebra, X):
        return (self._w(algebra) * np.abs(X)).max(axis=1)

    def kernel(self, algebra):
        w = self._w(algebra)
        return np.eye(algebra.dim)[w == 0.0]


@dataclass(frozen=True)
class CoordinateSum(SeminormVariant):
    """l1-style p(a) = sum_i weight_i |coord_i|; lacks the square property
    on most algebras, which makes it the standard hypothesis-rejection case."""

    weights: Optional[tuple] = None

    _w = CoordinateMax._w
    check_payload = CoordinateMax.check_payload
    kernel = CoordinateMax.kernel

    def values(self, algebra, X):
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
class ComponentSup(SeminormVariant):
    """Max-abs over a subset of coordinates: CoordinateMax with weight 1 on
    the subset and 0 elsewhere, so its kernel is the excluded ones."""

    subset: tuple

    def _w(self, algebra):
        idx = np.asarray(self.subset, dtype=float)
        if not (idx == np.floor(idx)).all():   # NaN fails too
            raise PayloadMismatch(
                f"subset entries must be integers, got {self.subset}")
        if idx.size == 0 or idx.min() < 0 or idx.max() >= algebra.dim:
            raise PayloadMismatch(
                f"subset {self.subset} invalid for dim {algebra.dim}")
        w = np.zeros(algebra.dim)
        w[idx.astype(int)] = 1.0
        return w

    check_payload = CoordinateMax.check_payload
    values = CoordinateMax.values
    kernel = CoordinateMax.kernel


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


@dataclass(frozen=True)
class SquareCheck:
    residual: float
    witness: np.ndarray  # coordinates of the maximizing sample


def square_property_details(p: SeminormVariant, algebra: FiniteDimRealAlgebra,
                            samples: int = 2000, seed: int = 0) -> SquareCheck:
    """Max of |p(a^2) - p(a)^2| / (1 + p(a)^2) over probes and random samples."""
    p.check_payload(algebra)
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((samples, algebra.dim))
    P, P2 = _square_probes(algebra)
    X = np.concatenate([P, R])
    pa = p.values(algebra, X)
    # the probes' squares are read from the table; only R is multiplied
    pa2 = p.values(algebra,
                   np.concatenate([P2, algebra.mul_coords_batch(R, R)]))
    res = np.abs(pa2 - pa ** 2) / (1.0 + pa ** 2)
    i = int(np.argmax(res))
    return SquareCheck(float(res[i]), X[i])


# bench/tracing.py wraps this name; keep it until the library records spans
def check_square_property(p, algebra, samples: int = 2000, seed: int = 0) -> float:
    return square_property_details(p, algebra, samples, seed).residual


def _ratio_scan(p, algebra, samples, seed):
    """(ratios, pair): every ratio p(ab) / (p(a) p(b)) of a deterministic
    basis sweep plus random pairs normalized to p = 1 where possible, and
    pair(r), the normalized pair (a, b) of ratios[r].

    The sweep's n^2 pairs (e_i, e_j) hold only n distinct elements, so p is
    evaluated once on the basis and its values indexed per pair; their
    products are the table rows c[i,j], divided by p(e_i) p(e_j), and the
    pairs are kept as the indices (i, j).  Only the random pairs are
    normalized and multiplied."""
    p.check_payload(algebra)
    rng = np.random.default_rng(seed)
    n = algebra.dim
    eye = np.eye(n)
    i, j = np.divmod(np.arange(n * n), n)   # the basis pairs, by row
    Xa = rng.standard_normal((samples, n))
    Xb = rng.standard_normal((samples, n))
    pe, pa, pb = (p.values(algebra, Z) for Z in (eye, Xa, Xb))
    va = np.concatenate([pe[i], pa])
    vb = np.concatenate([pe[j], pb])
    scale = 1.0 + max(va.max(), vb.max(), 1.0)
    ok = va * vb > RATIO_FLOOR * scale ** 2
    i, j, rand = i[ok[:n * n]], j[ok[:n * n]], ok[n * n:]
    # normalize every pair to p = 1 so ratio statistics are scale-free
    A = Xa[rand] / pa[rand][:, None]
    B = Xb[rand] / pb[rand][:, None]
    prods = np.concatenate([
        algebra.table[i, j] / (pe[i] * pe[j])[:, None],
        algebra.mul_coords_batch(A, B)])

    def pair(r):
        if r < len(i):
            return eye[i[r]] / pe[i[r]], eye[j[r]] / pe[j[r]]
        return A[r - len(i)], B[r - len(i)]
    return p.values(algebra, prods), pair


def check_submultiplicative(p, algebra, samples: int = 2000, seed: int = 0) -> float:
    """Max of p(ab) / (p(a) p(b)) over basis pairs and random samples."""
    ratios, _ = _ratio_scan(p, algebra, samples, seed)
    return float(ratios.max()) if ratios.size else 0.0


@dataclass(frozen=True)
class MEstimate:
    m_hat: float
    pair: tuple  # (coords a, coords b) achieving the max ratio


def estimate_m(p, algebra, samples: int = 2000, seed: int = 0) -> MEstimate:
    """Sampled working constant for p(ab) <= m p(a) p(b); a lower bound of
    the true m, floored at 1e-12."""
    ratios, pair = _ratio_scan(p, algebra, samples, seed)
    if ratios.size == 0:
        return MEstimate(M_HAT_FLOOR, (np.zeros(algebra.dim),) * 2)
    i = int(np.argmax(ratios))
    return MEstimate(max(M_HAT_FLOOR, float(ratios[i])), pair(i))
