"""Quaternion-valued multiplicative linear functionals, built exactly.

A character x: A -> H is real-linear and multiplicative.  H has no
nilpotents, so x vanishes on rad(A) and factors through the semisimple
quotient A/rad(A), which has a unit whether A has one or not (a nil A has
A/rad(A) = 0, and no character), and which Wedderburn-Artin splits into
simple blocks cut out by the primitive idempotents of its center.  The
algebra computes A/rad(A) from A's own table and its blocks once, names
each block R, C, H or M2(R) and keeps them with their bases
(FiniteDimRealAlgebra.simple_blocks, the record its division table is read
from too); this module reads names and bases from that record and never
classifies a block itself.  By Frobenius a block carries a character only
if it is R, C or H, and by Skolem-Noether all characters of one block are
conjugate, so |x(a)| does not depend on the one chosen.  find_characters
therefore returns one character per R, C or H block, and a sup over its
result is the sup over every character of A, not a sample.

A direct sum's blocks are its summands' blocks, and H has no zero
divisors: x(a1) x(a2) = x(a1 a2) = 0 for a1, a2 in different summands, so
a character vanishes on every summand but one.  find_characters and
non_division_block read both from FiniteDimRealAlgebra.summands, and
find_characters keeps its result on the algebra, so a part shared by
many sums, as the fuzz's R, C and H are, has its characters built once.

A character is the (n, 4) array of its images x(e_i), quaternions
(w, x, y, z), so x(a) = a.coords @ x; a set of characters is one (m, n, 4)
stack.  seminorm.CharacterSup holds the one evaluation of x(a) and the one
sup max |x(a)|.  check_prop31 takes one SVD and one eigvals of the stacked
L_a and tests the inclusion of the spectra {w +- i|v|} in sp(a) as a
nearest-point distance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import (AlgebraElement, FiniteDimRealAlgebra, NotUnital,
                      left_regular_matrix, nonsingular)
from .quaternion import qmul, qnorm, qspectrum
from .seminorm import CharacterSup
from .spectral import spectra, spectral_radius_batch

ACCEPT_RESIDUAL = 1e-11    # gate on every constructed character
INCLUSION_TOL = 1e-6       # how near sp(a) a point of sp(x(a)) must lie


# raised only by sampled_sup_norm, which bench/tracing.py wraps by name
class EmptyCharacterSet(Exception):
    pass


def character_residual(algebra: FiniteDimRealAlgebra, images) -> float:
    """Max multiplicativity defect over basis pairs, scaled by 1 + max|q|^2."""
    Q = np.asarray(images, dtype=float).reshape(algebra.dim, 4)
    # [i, j]: x(e_i) x(e_j) - x(e_i e_j)
    E = qmul(Q[:, None], Q[None]) - algebra.table @ Q
    defect = qnorm(E).max()
    scale = 1.0 + (Q * Q).sum(axis=1).max()
    return float(defect / scale)


def non_division_block(algebra: FiniteDimRealAlgebra):
    """(k, name) of the first simple block of A/rad(A) that is not R, C or
    H, or None when every block is.  A sum's blocks are its summands',
    listed by SimpleBlock.order."""
    blocks = sorted((b for _, leaf in algebra.summands
                     for b in leaf.simple_blocks), key=lambda b: b.order)
    return next(((k, block.name) for k, block in enumerate(blocks)
                 if not block.division), None)


def find_characters(algebra: FiniteDimRealAlgebra) -> np.ndarray:
    """One character per R, C or H block of A/rad(A), canonically ordered,
    as one read-only (m, n, 4) stack; (0, n, 4) when there is none.

    The images of block e*B with basis (e, i, j, ij) are the coordinates of
    e*pi(e_m) in that basis, for every basis element e_m of A, unital or
    not: pi maps A onto B = A/rad(A), so no image stack is 0.  Every
    character passes the multiplicativity residual gate of 1e-11.  The
    result depends on the algebra alone: nothing is sampled.  It is built
    once per algebra and kept on it, as its radical is.  A direct sum's
    characters are its summands', each in its summand's rows and 0
    elsewhere, so its residual on the sum is the one it passed.
    """
    chars = vars(algebra).get("_character_stack")
    if chars is None:
        found = []
        for off, leaf in algebra.summands:
            for x in (_block_characters(leaf) if leaf is algebra
                      else find_characters(leaf)):
                images = np.zeros((algebra.dim, 4))
                images[off:off + leaf.dim] = x
                found.append(images)
        found.sort(key=lambda x: np.round(x, 9).tobytes())
        chars = np.array(found).reshape(-1, algebra.dim, 4)
        chars.setflags(write=False)
        algebra._character_stack = chars
    return chars


def _block_characters(algebra: FiniteDimRealAlgebra):
    """Yield the gated character of each R, C or H block of A/rad(A)."""
    qm = algebra.semisimple_quotient
    for block in algebra.simple_blocks:
        if not block.division:
            continue
        basis = block.basis
        e_pi = (left_regular_matrix(qm.algebra.element(basis[:, 0]))
                @ qm.projection)
        images = np.zeros((algebra.dim, 4))
        images[:, :basis.shape[1]] = np.linalg.lstsq(basis, e_pi,
                                                     rcond=None)[0].T
        if character_residual(algebra, images) <= ACCEPT_RESIDUAL:
            yield images


# bench/tracing.py wraps this name; keep it until the library records spans
def sampled_sup_norm(a: AlgebraElement, chars) -> float:
    """Max |x(a)| over the (m, n, 4) stack chars; ||J(a)||_s when it is the
    result of find_characters."""
    if len(chars) == 0:
        raise EmptyCharacterSet("no characters to evaluate")
    return CharacterSup(chars).value(a)


def _within(Z: np.ndarray, W: np.ndarray, tol: float) -> np.ndarray:
    """Per row r: every point of Z[r] lies within tol of some point of W[r]."""
    gap = np.abs(Z[:, :, None] - W[:, None, :]).min(axis=2)
    return (gap <= tol).all(axis=1)


class Prop31Result(NamedTuple):
    forward_ok: bool
    spectrum_inclusion_ok: bool


def check_prop31(algebra: FiniteDimRealAlgebra, X: np.ndarray,
                 chars) -> Prop31Result:
    """Invertibility transfer and spectrum inclusion at the given characters,
    on every row of the stack X, from one SVD and one eigvals of L_X.

    forward_ok: an invertible element has nowhere-vanishing character values.
    spectrum_inclusion_ok: every point of the quaternion spectrum of x(a)
    lies within INCLUSION_TOL of sp(a), for every given character.
    """
    if not algebra.is_unital:
        raise NotUnital("Proposition checks need a unit")
    if len(chars) == 0:
        return Prop31Result(True, True)
    Q = CharacterSup(chars).evaluations(algebra, X)
    L = algebra.left_matrices_batch(X)
    norms = qnorm(Q)[nonsingular(L)]
    inside = _within(qspectrum(Q).reshape(len(Q), -1), spectra(algebra, L),
                     INCLUSION_TOL)
    return Prop31Result(bool((norms.min(axis=1) > 1e-10).all()),
                        bool(inside.all()))


def nonexistence_explanation(algebra: FiniteDimRealAlgebra):
    """Why an algebra has no character, when that is diagnosable.

    First looks for a basis element with vanishing spectral radius: such a
    nonzero nilpotent rules out any norm with ||a|| <= m*r(a), which is the
    standing hypothesis behind the existence of characters.  Otherwise names
    the first simple block of A/rad(A) that is not R, C or H.
    """
    radii = spectral_radius_batch(algebra, np.eye(algebra.dim))
    for label, r in zip(algebra.labels, radii):
        if r <= 1e-10:
            return (f"basis element {label} is nilpotent "
                    f"(spectral radius {r:.2e}) but nonzero, so no norm can "
                    f"satisfy ||a|| <= m*r(a) and the character space is empty")
    bad = non_division_block(algebra)
    if bad is not None:
        return (f"block {bad[0]} of A/rad(A) is {bad[1]}, not R, C or H, so "
                f"it admits no quaternion character")
    return None
