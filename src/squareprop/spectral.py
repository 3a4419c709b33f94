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

One spectral-radius path.  The radical of the unital hull is nil, so
r(a) = r(pi(a)) in B = hull / rad(hull), which is semisimple: the direct
sum of its simple blocks e*B (Wedderburn-Artin), each invariant under
every L_b.  The algebra keeps, once built, the tables that give the
diagonal blocks of L_pi(a) for every a at once
(FiniteDimRealAlgebra.spectral_split), grouped by block size d and tagged
division (R, C or H) or not; a small B, or one whose blocks fail their
gate, is one non-division block.  A batch of elements then costs, per
group, one matmul X @ table and one batched solve over the stack of d x d
blocks.

The solve on a division group is two traces.  On a division algebra D
with its standard basis, L_x is |x| times an orthogonal map (|xy| = |x||y|),
so every eigenvalue of L_x has modulus |x|; for x in C or H they are one
conjugate pair l, conj(l), each d/2 times on D of dimension d.  A block of
L_b on e*B is L_x for x = e*b written in another basis of D, a similar
matrix with the same eigenvalues, so its spectral radius is exactly
sqrt(2 (tr M)^2 - d tr M^2) / d on a block M (see _division_radii), taken on
M/m with m = max|M| so that it stays finite at any scale.  Any other group
keeps eigvals.  Neither route is circular: no character enters them, the
division tag is the block's name in the algebra's record, and a block's
basis comes from its central idempotent, so comparing r against characters
still compares two independent computations.  Both raise LinAlgError on a
non-finite element.

spectrum needs the points with the hull's multiplicities, which B does not
keep, so spectra takes the eigenvalues of a stack of L_a: in the hull of a
non-unital algebra L_(0,a) is the block triangular [[0, 0], [a, L_a]], so
sp = {0} u eig(L_a).
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


def _division_radii(S: np.ndarray) -> np.ndarray:
    """Spectral radius of every d x d division block in the stack S.

    The eigenvalues of a division block M are l and conj(l), d/2 times
    each (l = x real when d = 1), so tr M = d Re l, tr M^2 = d Re l^2 and
    r^2 = |l|^2 = (2 (tr M)^2 - d tr M^2) / d^2.  Each term is at most twice
    r^2, so nothing cancels; rounding below 0 is clamped to 0.  The traces
    are taken on M / m with m = max|M| per block, so that no product
    overflows or underflows; a zero block gives 0.  Raises LinAlgError on a
    non-finite block, as eigvals does.
    """
    d = S.shape[-1]
    m = np.abs(S).max(axis=(-2, -1))
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    S = S / np.where(m > 0.0, m, 1.0)[..., None, None]
    t1 = np.einsum("...ii->...", S)
    t2 = np.einsum("...ij,...ji->...", S, S)
    return m / d * np.sqrt(np.maximum(2.0 * t1 * t1 - d * t2, 0.0))


def spectra(algebra, L: np.ndarray) -> np.ndarray:
    """sp(a) for each matrix L_a of the stack L: its eigenvalues, and the
    0 that the hull adds when the algebra is not unital."""
    eig = _eigvals(L)
    return eig if algebra.is_unital else np.pad(eig, ((0, 0), (0, 1)))


# bench/tracing.py wraps this name; keep it until the library records spans
def spectrum(a: AlgebraElement) -> SpectrumResult:
    """sp(a), sorted, and its radius."""
    eig = spectra(a.algebra, left_regular_matrix(a)[None])[0]
    pts = tuple(sorted((complex(v) for v in eig),
                       key=lambda z: (z.real, z.imag)))
    return SpectrumResult(pts, float(max(abs(z) for z in pts)))


def _group_radii(X: np.ndarray, d: int, division: bool,
                 table: np.ndarray) -> np.ndarray:
    """Spectral radius of every row x of X on one group of the split, from
    the stack (rows, K, d, d) of the K diagonal blocks of L_pi(x)."""
    S = (X @ table).reshape(X.shape[0], table.shape[1] // (d * d), d, d)
    return (_division_radii(S).max(axis=1) if division
            else np.abs(_eigvals(S)).max(axis=(1, 2)))


def spectral_radius_batch(algebra, coords: np.ndarray) -> np.ndarray:
    """Spectral radii of a stack of elements of one algebra, on the blocks
    of its spectral split (see the module docstring)."""
    return functools.reduce(np.maximum, (_group_radii(coords, *group)
                                         for group in algebra.spectral_split))


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
    """
    alg, shape = a.algebra, a.coords.shape[:-1]
    logs = np.full(shape, -math.inf).ravel()
    rows = np.arange(logs.size)     # the rows still squared, flat
    while True:
        n = np.ravel(norm(a))
        logs[rows] = [math.log(v) if v != 0.0 else -math.inf for v in n]
        mask = yield logs.reshape(shape).copy() if shape else float(logs[0])
        keep = (n != 0.0) & (True if mask is None else np.ravel(mask)[rows])
        rows = rows[keep]
        if not rows.size:
            return
        u = a.coords.reshape(-1, alg.dim)[keep] * (1.0 / n[keep])[:, None]
        u = alg.element(u if shape else u[0])
        a = mul(u, u)


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
