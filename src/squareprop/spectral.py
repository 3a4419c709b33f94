"""Real spectra via the complexification identity and the Gelfand radius.

For a unital finite-dimensional algebra, (a - se)^2 + t^2 e factors as
(a - (s+it)e)(a - (s-it)e) after complexifying, so the spectrum of a is
exactly the (conjugate-closed) eigenvalue set of the left regular matrix.
The Gelfand radius lim ||a^n||^(1/n) is computed by repeated squaring with
log-domain renormalization, and both routes are cross-checked in tests.
The squaring is written once, as the generator log_square_norms; its two
consumers are gelfand_radius and the iterated-square stage of the pipeline.

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
keep, so it takes the eigenvalues of L_a itself: in the hull of a
non-unital algebra L_(0,a) is the block triangular [[0, 0], [a, L_a]], so
sp = {0} u eig(L_a).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import AlgebraElement, NotUnital, left_regular_matrix, mul


class NonConvergence(Exception):
    pass


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


def spectrum(a: AlgebraElement) -> SpectrumResult:
    """sp(a) as the eigenvalues of L_a, and 0 when the hull adds it."""
    eig = _eigvals(left_regular_matrix(a))
    if not a.algebra.is_unital:
        eig = np.append(eig, 0.0)
    pts = tuple(sorted((complex(v) for v in eig),
                       key=lambda z: (z.real, z.imag)))
    radius = float(max(abs(z) for z in pts))
    return SpectrumResult(pts, radius)


def spectral_radius(a: AlgebraElement) -> float:
    return spectrum(a).radius


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


def in_spectrum_paper_def(a: AlgebraElement, s: float, t: float) -> bool:
    """Literal membership test: (a - se)^2 + t^2 e not invertible.

    Singularity is judged against the scale of (a, s, t), not of the test
    element itself: at a true spectrum point the element is numerically
    zero, where a self-relative singular-value ratio is meaningless.
    """
    if not a.algebra.is_unital:
        raise NotUnital("the membership test needs a unit")
    e = a.algebra.unit_element()
    shifted = a - s * e
    x = mul(shifted, shifted) + (t * t) * e
    sv = np.linalg.svd(left_regular_matrix(x), compute_uv=False)
    scale = (np.linalg.norm(left_regular_matrix(a), 2) + abs(s) + abs(t)) ** 2
    return sv[-1] <= 1e-8 * (1.0 + scale)


def operator_norm(a: AlgebraElement) -> float:
    """Largest singular value of the left regular matrix."""
    return float(np.linalg.norm(left_regular_matrix(a), 2))


def log_square_norms(a: AlgebraElement,
                     norm: Callable[[AlgebraElement], float]):
    """Yield log||a||, then log||u^2|| where u is the current power
    a^(2^k) kept scaled to norm 1, so no power ever overflows.

    A zero norm yields -inf and ends the sequence.  Each square is formed
    only when its value is asked for.
    """
    n = norm(a)
    while n != 0.0:
        yield math.log(n)
        u = (1.0 / n) * a
        a = mul(u, u)
        n = norm(a)
    yield -math.inf


def gelfand_radius(a: AlgebraElement,
                   norm: Optional[Callable[[AlgebraElement], float]] = None,
                   iterations: int = 40,
                   conv_tol: float = 1e-6,
                   return_delta: bool = False):
    """lim ||a^n||^(1/n) by repeated squaring with renormalization.

    Sums the log_square_norms steps, scaled by 2^-k, so powers up to
    2^iterations never overflow.  Raises NonConvergence if the last two
    iterates of ||a^(2^k)||^(2^-k) still differ by more than conv_tol after
    the budget.
    """
    logs = log_square_norms(a, norm or operator_norm)
    log_r = next(logs)             # log of ||a^(2^k)||^(2^-k)
    delta = math.inf
    for k, log_nv in enumerate(itertools.islice(logs, iterations), 1):
        step = log_nv / 2.0 ** k
        log_r += step
        delta = abs(step)
        if delta < conv_tol * 2.0 ** -20:
            break
    if log_r == -math.inf:         # some power of a has norm zero
        return (0.0, 0.0) if return_delta else 0.0
    if delta > conv_tol:
        raise NonConvergence(
            f"radius iteration stalled, last delta {delta:.3e}")
    return (math.exp(log_r), delta) if return_delta else math.exp(log_r)
