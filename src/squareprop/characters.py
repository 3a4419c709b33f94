"""Quaternion-valued multiplicative linear functionals, built exactly.

A character x: A -> H is real-linear and multiplicative.  H has no
nilpotents, so x vanishes on rad(A) and factors through the semisimple
quotient A/rad(A), which Wedderburn-Artin splits into simple blocks cut out
by the primitive idempotents of its center.  The algebra computes those
blocks once, names each R, C, H or M2(R) and keeps them with their bases
(FiniteDimRealAlgebra.simple_blocks, the record its spectral split is read
from too); this module reads names and bases from that record and never
classifies a block itself.  By Frobenius a block carries a character only
if it is R, C or H, and by Skolem-Noether all characters of one block are
conjugate, so |x(a)| does not depend on the one chosen.  find_characters
therefore returns one character per R, C or H block, and a sup over its
result is the sup over every character of A, not a sample.

Values are quaternion arrays (w, x, y, z).  seminorm.CharacterSup holds
the one evaluation of x(a) and the one sup max |x(a)|; Character.value and
j_evaluate are its one-row cases.  check_prop31 takes one SVD and one
eigvals of the stacked L_a and tests the inclusion of the spectra
{w +- i|v|} in sp(a) as a nearest-point distance, as full_spectrum_match does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (AlgebraElement, FiniteDimRealAlgebra, AlgebraMismatch,
                      NotUnital, left_regular_matrix, nonsingular)
from .quaternion import HAMILTON, qnorm, qspectrum
from .seminorm import CharacterSup
from .spectral import spectra, spectral_radius_batch

ACCEPT_RESIDUAL = 1e-11    # gate on every constructed character
NONZERO_FLOOR = 1e-6


class EmptyCharacterSet(Exception):
    pass


@dataclass(frozen=True)
class Character:
    algebra: FiniteDimRealAlgebra
    images: np.ndarray          # (n, 4), row i = x(e_i) as (w, x, y, z)
    residual: float

    def value(self, a: AlgebraElement) -> np.ndarray:
        """x(a) as the array (w, x, y, z)."""
        if a.algebra is not self.algebra:
            raise AlgebraMismatch("element and character algebras differ")
        return a.coords @ self.images

    __call__ = value


def character_residual(algebra: FiniteDimRealAlgebra, images) -> float:
    """Max multiplicativity defect over basis pairs, scaled by 1 + max|q|^2."""
    Q = np.asarray(images, dtype=float).reshape(algebra.dim, 4)
    # [i, j, c]: coordinate c of x(e_i) x(e_j) - x(e_i e_j)
    E = (np.matmul(Q, (Q @ HAMILTON.reshape(4, 16)).reshape(-1, 4, 4))
         - algebra.table @ Q)
    defect = qnorm(E).max()
    scale = 1.0 + (Q * Q).sum(axis=1).max()
    return float(defect / scale)


def non_division_block(algebra: FiniteDimRealAlgebra):
    """(k, name) of the first simple block of A/rad(A) that is not R, C or
    H, or None when every block is."""
    return next(((k, block.name)
                 for k, block in enumerate(algebra.simple_blocks)
                 if not block.division), None)


def find_characters(algebra: FiniteDimRealAlgebra) -> list[Character]:
    """One character per R, C or H block of A/rad(A), canonically ordered.

    The images of block e*B with basis (e, i, j, ij) are the coordinates of
    e*pi(e_m) in that basis, for every basis element e_m of A.  A non-unital
    A is unitized first and the results restricted back; a restriction that
    vanishes (the character killing A) is dropped.  Every character passes
    the multiplicativity residual gate of 1e-11.  The result depends on
    the algebra alone: nothing is sampled.
    """
    qm = algebra.semisimple_quotient
    found = []
    for block in algebra.simple_blocks:
        if not block.division:
            continue
        basis = block.basis
        e_pi = (left_regular_matrix(qm.algebra.element(basis[:, 0]))
                @ qm.projection)
        images = np.zeros((e_pi.shape[1], 4))   # on the hull's basis
        images[:, :basis.shape[1]] = np.linalg.lstsq(basis, e_pi,
                                                     rcond=None)[0].T
        images = images[-algebra.dim:]
        if qnorm(images).max() < NONZERO_FLOOR:
            continue
        residual = character_residual(algebra, images)
        if residual <= ACCEPT_RESIDUAL:
            images.setflags(write=False)
            found.append(Character(algebra, images, residual))
    found.sort(key=lambda x: np.round(x.images, 9).tobytes())
    return found


def j_evaluate(a: AlgebraElement, chars: list[Character]) -> np.ndarray:
    """J(a) at the given characters: the (m, 4) row of
    CharacterSup.evaluations at a."""
    if any(x.algebra is not a.algebra for x in chars):
        raise AlgebraMismatch("element and character algebras differ")
    if not chars:
        return np.zeros((0, 4))
    return CharacterSup(tuple(chars)).evaluations(a.algebra, a.coords[None])[0]


def sampled_sup_norm(a: AlgebraElement, chars: list[Character]) -> float:
    """Max |x(a)| over the given characters; ||J(a)||_s when they are the
    result of find_characters."""
    if not chars:
        raise EmptyCharacterSet("no characters to evaluate")
    return CharacterSup(tuple(chars)).value(a)


def _within(Z: np.ndarray, W: np.ndarray, tol: float) -> np.ndarray:
    """Per row r: every point of Z[r] lies within tol of some point of W[r]."""
    gap = np.abs(Z[:, :, None] - W[:, None, :]).min(axis=2)
    return (gap <= tol).all(axis=1)


class Prop31Result(NamedTuple):
    forward_ok: bool
    spectrum_inclusion_ok: bool


def check_prop31(algebra: FiniteDimRealAlgebra, X: np.ndarray,
                 chars: list[Character], tol: float = 1e-6) -> Prop31Result:
    """Invertibility transfer and spectrum inclusion at the given characters,
    on every row of the stack X, from one SVD and one eigvals of L_X.

    forward_ok: an invertible element has nowhere-vanishing character values.
    spectrum_inclusion_ok: every point of the quaternion spectrum of x(a)
    lies in sp(a), for every given character.
    """
    if not algebra.is_unital:
        raise NotUnital("Proposition checks need a unit")
    if not chars:
        return Prop31Result(True, True)
    Q = CharacterSup(tuple(chars)).evaluations(algebra, X)
    L = algebra.left_matrices_batch(X)
    norms = qnorm(Q)[nonsingular(L)]
    inside = _within(qspectrum(Q).reshape(len(Q), -1), spectra(algebra, L),
                     tol)
    return Prop31Result(bool((norms.min(axis=1) > 1e-10).all()),
                        bool(inside.all()))


def full_spectrum_match(algebra: FiniteDimRealAlgebra, X: np.ndarray,
                        chars: list[Character],
                        tol: float = 1e-6) -> np.ndarray:
    """Per row a of X: sp(a) equals the union of quaternion spectra of the
    character values (False for every row when chars is empty).

    Holds for find_characters(A) exactly when every simple block of
    A/rad(A) is R, C or H.
    """
    if not chars:
        return np.zeros(X.shape[0], dtype=bool)
    Z = qspectrum(CharacterSup(tuple(chars)).evaluations(algebra, X))
    Z = Z.reshape(len(X), -1)
    W = spectra(algebra, algebra.left_matrices_batch(X))
    return _within(Z, W, tol) & _within(W, Z, tol)


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
