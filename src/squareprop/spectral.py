"""Real spectra via the complexification identity and the Gelfand radius.

For a unital finite-dimensional algebra, (a - se)^2 + t^2 e factors as
(a - (s+it)e)(a - (s-it)e) after complexifying, so the spectrum of a is
exactly the (conjugate-closed) eigenvalue set of the left regular matrix.
The Gelfand radius lim ||a^n||^(1/n) is computed by repeated squaring with
log-domain renormalization, in the operator norm (seminorm.OperatorNorm)
unless another norm is given, and both routes are cross-checked in tests.
The squaring is written once, as the generator log_square_norms; its two
consumers are gelfand_radius and the iterated-square stage of the pipeline.
Both take one element or a stack of them and square every row of a stack
at once; a row stops once its power has norm 0, or once its step is small
and 2^k > dim.  An exactly structured element can take a step of exactly 0
before its nilpotent part vanishes (x in R[x]/(x^3) has ||x^2|| = ||x||^2
and x^4 = 0), and a nilpotent element of A is 0 from its power dim + 1
on, so a small step counts as convergence only from there.

One spectral-radius path.  The radical of A is nil, so r(a) = r(pi(a)) in
B = A / rad(A), whether A has a unit or not (on a non-unital A, r(a) is
read in its unitization, whose radical is rad(A) again).  B is
semisimple: the direct sum of its simple blocks e*B (Wedderburn-Artin),
each invariant under every L_b.  The algebra keeps, once built, a table
per group of blocks (FiniteDimRealAlgebra.spectral_split): one group of
all the division blocks (R, C and H), and one per size d of the others;
a B whose blocks fail their gate is one non-division block; a direct
sum's split is its summands' side by side (algebra._spectral_split).  A
nil A has B = 0 and no group, and r = 0 on it.  A batch of elements
then costs one product for the division group (below), and per
non-division group one matmul X @ table and one batched eigvals over the
stack of d x d blocks it gives.

On the division group the radius is a row norm.  On a division algebra D
with its standard basis, L_x is |x| times an orthogonal map (|xy| = |x||y|),
so every eigenvalue of L_x has modulus |x|; for x in C or H they are one
conjugate pair l, conj(l), each d/2 times on D of dimension d.  A block of
L_b on e*B is L_x for x = e*b written in another basis of D, a similar
matrix with the same eigenvalues, so r(b)^2 = |x|^2 on that block is a
positive semidefinite quadratic form in b of rank d, read once from two
traces of the block's L_(e_i) and kept as a factor W with r(b) = |b W|
(algebra._radius_factor).  Frobenius: R, C and H all sit in H, so every
factor is four columns wide, with 4 - d columns of 0 on R and C; a 0
added to a sum of squares changes no bit.  The group's table holds its K
factors side by side, so the product of table and X stacks K vectors of
length 4 per row, and the radius is the largest of their norms
(division_radii).  One scale per row, its largest entry m, keeps the
norms finite at any scale.  The common scale is safe: the largest norm
is at least m, and a block whose squares underflow on the row over m is
too small to set it.  Neither route is circular: no character enters
them, the division tag is the block's name in the algebra's record, and
a factor comes from traces of L_b on a block whose basis comes from its
central idempotent, so comparing r against characters still compares
two independent computations.  Both raise LinAlgError on a non-finite
element.

The division radii, like seminorm.CharacterSup's sup, are max_k |W_k x|
over K vectors of length 4, and both are taken block-major: one BLAS
call table.T @ X.T gives the vectors as a (4K, rows) stack, so that every
reduction (max_block_norm) runs over a leading axis, one elementwise
pass over contiguous rows of length `rows`.  Laid out row-major, as
(rows, K, 4), the same reductions run one inner loop of length 4 or K
per row, several times slower than the matmul itself.  The
reductions give the same bits in both layouts: NumPy adds the rows of a
leading axis in order, as its sum over a last axis shorter than 8 does,
and sqrt is monotone, so the sqrt of the max is the max of the sqrts.
The product's last bits are BLAS's.  OpenBLAS 0.3.31 (x86-64, Haswell
kernels) gives table.T @ X.T the bits of X @ table on every table of the
corpus and of H^n, but not on every shape: at n >= 16, with 2, 3, 4 or
12 columns, its kernels sum in another order.

spectrum needs the points with their multiplicities, which B does not
keep, so spectra takes the eigenvalues of a stack of L_a.  The spectrum of
an element of a non-unital algebra is its spectrum in the unitization,
where L_(0,a) is the block triangular [[0, 0], [a, L_a]]: sp = {0} u
eig(L_a), with no unitization built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import AlgebraElement, left_regular_matrix, mul


class NonConvergence(Exception):
    """The Gelfand iteration stalled.  gelfand_radius sets radii to what it
    would have returned, with NaN on each row that stalled."""

    radii = None


@dataclass(frozen=True)
class SpectrumResult:
    points: tuple          # complex eigenvalues, conjugate-closed
    radius: float          # max modulus over points


def _eigvals(M: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals, retried in complex arithmetic when the real QR
    iteration does not converge: LAPACK's real iteration can stall on an
    exactly structured matrix, such as the 4 x 4 block L_q of a quaternion
    q = (0.01776737537132592, -0.1593314977115078, -0.0126456452583658,
    0.13573614522656216) laid out in C order."""
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError:
        return np.linalg.eigvals(M.astype(complex))


def spectra(algebra, L: np.ndarray) -> np.ndarray:
    """sp(a) for each matrix L_a of the stack L: its eigenvalues, and the
    0 that the unitization adds when the algebra is not unital."""
    eig = _eigvals(L)
    return eig if algebra.is_unital else np.pad(eig, ((0, 0), (0, 1)))


# bench/tracing.py wraps this name; keep it until the library records spans
def spectrum(a: AlgebraElement) -> SpectrumResult:
    """sp(a), sorted, and its radius."""
    eig = spectra(a.algebra, left_regular_matrix(a)[None])[0]
    pts = tuple(sorted((complex(v) for v in eig),
                       key=lambda z: (z.real, z.imag)))
    return SpectrumResult(pts, float(max(abs(z) for z in pts)))


def max_block_norm(Y: np.ndarray) -> np.ndarray:
    """Per column of the (4K, rows) stack Y, the largest Euclidean norm
    of its K vectors of length 4, read on the (K, 4, rows) view: every
    reduction runs over a leading axis (see the module docstring).

    Y is squared in place; each caller passes the product it has just
    formed.  A temporary the size of Y costs more than the reduction once
    it passes malloc's trim threshold (about 128 KiB), whose pages are
    then faulted in again on every call: at 4032 rows and 12 columns,
    two such temporaries took division_radii from about 170 us to 400."""
    Y = np.square(Y, out=Y).reshape(len(Y) // 4, 4, Y.shape[1])
    return np.sqrt(Y.sum(axis=1).max(axis=0))


def _group_radii(X: np.ndarray, d: int, table: np.ndarray) -> np.ndarray:
    """Spectral radius of every row x of X on one non-division group of
    the split: X @ table stacks the K blocks (rows, K, d, d) of L_pi(x),
    and the radii come from eigvals."""
    S = (X @ table).reshape(len(X), table.shape[1] // (d * d), d, d)
    return np.abs(_eigvals(S)).max(axis=(1, 2))


def division_radii(X: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Largest spectral radius of every row x of X over the division
    blocks of a split, whose table holds their factors side by side, four
    columns each (see algebra._radius_factor).

    One product table.T @ X.T stacks, per column, the vectors of every
    block, block-major; one scale m = max|Y| per column keeps the squares
    of Y / m from overflowing and gives a zero row 0, and max_block_norm
    reduces the blocks.  A common scale is safe: the block holding the
    entry m has norm at least m, so the max is at least 1 on Y / m, and a
    block whose squares underflow there is below 1e-150 of it and cannot
    set the max.  Only squares of Y enter, so Y is replaced by |Y| in
    place (|y| / m = |y / m| exactly), with no temporary its size (see
    max_block_norm).  Raises LinAlgError on a non-finite row.
    """
    Y = table.T @ X.T
    m = np.abs(Y, out=Y).max(axis=0)
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    Y /= np.where(m > 0.0, m, 1.0)
    return m * max_block_norm(Y)


def spectral_radius_batch(algebra, coords: np.ndarray) -> np.ndarray:
    """Spectral radii of a stack of elements of one algebra, on the blocks
    of its spectral split (see the module docstring); 0 on an empty split."""
    return functools.reduce(np.maximum, [
        division_radii(coords, T) if division else _group_radii(coords, d, T)
        for d, division, T in algebra.spectral_split]
        or [np.zeros(len(coords))])


def log_square_norms(a: AlgebraElement, norm: Callable):
    """Yield log||a||, then log||u^2|| where u is the current power
    a^(2^k) kept scaled to norm 1, so no power ever overflows.

    On one element each step is a float, and a zero norm yields -inf and
    ends the sequence.  On a stack (coords (..., n)) each step is an array
    with one log per row: a row whose norm reaches 0 reads -inf from then
    on and is not squared again, and the sequence ends when no row is
    left.  A boolean mask sent in place of next() stops the squaring of
    the rows it leaves out; they repeat their last log.  Each square is
    formed only when its value is asked for.  The logs are taken per entry
    with math.log, whose last bit NumPy's log does not always match, so
    one element gives the bits of a loop of scalar calls.

    A row whose first norm overflows to inf, such as a nilpotent of M2(R)
    with entries 1e308, has it taken on the row scaled to max|a| = 1 and
    log max|a| added; its squares are formed from that scaled row, so no
    later norm overflows.  A row with a finite norm keeps its bits.
    """
    alg, shape = a.algebra, a.coords.shape[:-1]
    logs = np.full(shape, -math.inf).ravel()
    rows = np.arange(logs.size)     # the rows still squared, flat
    X, n = a.coords.reshape(-1, alg.dim), np.ravel(norm(a))
    lift = np.zeros(n.size)         # log of the scale a norm was taken at
    big = np.isinf(n)
    if big.any():
        s = np.abs(X[big]).max(axis=1)
        X, n = X.copy(), n.copy()
        X[big] /= s[:, None]
        n[big] = np.ravel(norm(alg.element(X[big])))
        lift[big] = [math.log(v) for v in s]
    while True:
        logs[rows] = [math.log(v) if v != 0.0 else -math.inf for v in n]
        logs[rows] += lift
        mask = yield logs.reshape(shape).copy() if shape else float(logs[0])
        keep = (n != 0.0) & (True if mask is None else np.ravel(mask)[rows])
        rows = rows[keep]
        if not rows.size:
            return
        u = X[keep] / n[keep][:, None]
        u = alg.element(u if shape else u[0])
        a = mul(u, u)
        X, n, lift = a.coords.reshape(-1, alg.dim), np.ravel(norm(a)), 0.0


def gelfand_radius(a: AlgebraElement,
                   norm: Optional[Callable] = None,
                   iterations: int = 40,
                   conv_tol: float = 1e-6,
                   return_delta: bool = False):
    """lim ||a^n||^(1/n) by repeated squaring with renormalization.

    Sums the log_square_norms steps, scaled by 2^-k, so powers up to
    2^iterations never overflow.  On a stack of elements every row is one
    such sum, and a row stops squaring once its step falls under
    conv_tol * 2^-20 and 2^k > dim, or once a power has norm 0; the radii
    (and last deltas) come back as arrays.
    Raises NonConvergence if, on some row, the last two iterates of
    ||a^(2^k)||^(2^-k) still differ by more than conv_tol after the budget;
    its radii hold what would have been returned, NaN on those rows.
    """
    from .seminorm import OperatorNorm  # seminorm imports this module
    norm = norm or OperatorNorm().value
    logs = log_square_norms(a, norm)
    log_r = np.ravel(next(logs))   # log of ||a^(2^k)||^(2^-k), per row
    delta = np.full(log_r.shape, math.inf)
    run = log_r != -math.inf
    for k in range(1, iterations + 1):
        if not run.any():
            break
        step = np.ravel(logs.send(run))[run] / 2.0 ** k
        log_r[run] += step
        delta[run] = np.abs(step)
        # a small step stops a row only once 2^k > dim (module docstring)
        small = delta[run] < conv_tol * 2.0 ** -20
        run[run] = (step != -math.inf) & ~(small & (2 ** k > a.algebra.dim))
    delta[log_r == -math.inf] = 0.0   # some power of the row has norm zero
    stalled = delta > conv_tol
    r = np.where(stalled, math.nan, [math.exp(v) for v in log_r])
    shape = a.coords.shape[:-1]     # floats for one element
    r, last = (x.reshape(shape) if shape else float(x[0]) for x in (r, delta))
    if stalled.any():
        exc = NonConvergence("radius iteration stalled, last delta "
                             f"{delta[stalled].max():.3e}")
        exc.radii = r
        raise exc
    return (r, last) if return_delta else r
