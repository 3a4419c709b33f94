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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraElement, FiniteDimRealAlgebra, AlgebraMismatch,
                      NotUnital, is_invertible)
from .quaternion import HAMILTON, Quaternion, qnorm, qspectrum
from .spectral import spectral_radius, spectrum

ACCEPT_RESIDUAL = 1e-11    # gate on every constructed character
NONZERO_FLOOR = 1e-6


class EmptyCharacterSet(Exception):
    pass


@dataclass(frozen=True)
class Character:
    algebra: FiniteDimRealAlgebra
    images: np.ndarray          # (n, 4), row i = x(e_i) as (w, x, y, z)
    residual: float

    def value(self, a: AlgebraElement) -> Quaternion:
        if a.algebra is not self.algebra:
            raise AlgebraMismatch("element and character algebras differ")
        return Quaternion.from_array(a.coords @ self.images)

    __call__ = value


def character_residual(algebra: FiniteDimRealAlgebra, images) -> float:
    """Max multiplicativity defect over basis pairs, scaled by 1 + max|q|^2."""
    Q = np.asarray(images, dtype=float).reshape(algebra.dim, 4)
    # [i, j, c]: coordinate c of x(e_i) x(e_j) - x(e_i e_j)
    E = (np.matmul(Q, (Q @ HAMILTON.reshape(4, 16)).reshape(-1, 4, 4))
         - algebra.table @ Q)
    defect = np.sqrt((E * E).sum(axis=2)).max()
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
        e_pi = (np.einsum("i,ijk->kj", basis[:, 0], qm.algebra.table)
                @ qm.projection)
        images = np.zeros((e_pi.shape[1], 4))   # on the hull's basis
        images[:, :basis.shape[1]] = np.linalg.lstsq(basis, e_pi,
                                                     rcond=None)[0].T
        images = images[-algebra.dim:]
        if np.sqrt((images * images).sum(axis=1)).max() < NONZERO_FLOOR:
            continue
        residual = character_residual(algebra, images)
        if residual <= ACCEPT_RESIDUAL:
            images.setflags(write=False)
            found.append(Character(algebra, images, residual))
    found.sort(key=lambda x: np.round(x.images, 9).tobytes())
    return found


def j_evaluate(a: AlgebraElement, chars: list[Character]) -> list[Quaternion]:
    """The representation value J(a) at the given characters."""
    return [x.value(a) for x in chars]


def sampled_sup_norm(a: AlgebraElement, chars: list[Character]) -> float:
    """Max |x(a)| over the given characters; ||J(a)||_s when they are the
    result of find_characters."""
    if not chars:
        raise EmptyCharacterSet("no characters to evaluate")
    return max(qnorm(q) for q in j_evaluate(a, chars))


@dataclass(frozen=True)
class Prop31Result:
    forward_ok: bool
    spectrum_inclusion_ok: bool


def check_prop31(a: AlgebraElement, chars: list[Character],
                 tol: float = 1e-6) -> Prop31Result:
    """Invertibility transfer and spectrum inclusion at the given characters.

    forward_ok: an invertible element has nowhere-vanishing character values.
    spectrum_inclusion_ok: every point of the quaternion spectrum of x(a)
    lies in sp(a), for every given character.
    """
    if not a.algebra.is_unital:
        raise NotUnital("Proposition checks need a unit")
    values = j_evaluate(a, chars)
    forward_ok = True
    if is_invertible(a) and values:
        forward_ok = min(qnorm(q) for q in values) > 1e-10
    sp = spectrum(a).points
    inclusion = all(
        min(abs(z - w) for w in sp) <= tol
        for q in values for z in qspectrum(q))
    return Prop31Result(forward_ok, inclusion)


def full_spectrum_match(a: AlgebraElement, chars: list[Character],
                        tol: float = 1e-6) -> bool:
    """sp(a) equals the union of quaternion spectra of the character values.

    Holds for find_characters(A) exactly when every simple block of
    A/rad(A) is R, C or H.
    """
    union = [z for q in j_evaluate(a, chars) for z in qspectrum(q)]
    if not union:
        return False
    sp = spectrum(a).points
    fwd = all(min(abs(z - w) for w in sp) <= tol for z in union)
    bwd = all(min(abs(z - w) for z in union) <= tol for w in sp)
    return fwd and bwd


def nonexistence_explanation(algebra: FiniteDimRealAlgebra):
    """Why an algebra has no character, when that is diagnosable.

    First looks for a nonzero basis element with vanishing spectral radius:
    such a nilpotent rules out any norm with ||a|| <= m*r(a), which is the
    standing hypothesis behind the existence of characters.  Otherwise names
    the first simple block of A/rad(A) that is not R, C or H.
    """
    for i in range(algebra.dim):
        e = algebra.basis_element(i)
        r = spectral_radius(e)
        if np.linalg.norm(e.coords) > 0.5 and r <= 1e-10:
            return (f"basis element {algebra.labels[i]} is nilpotent "
                    f"(spectral radius {r:.2e}) but nonzero, so no norm can "
                    f"satisfy ||a|| <= m*r(a) and the character space is empty")
    bad = non_division_block(algebra)
    if bad is not None:
        return (f"block {bad[0]} of A/rad(A) is {bad[1]}, not R, C or H, so "
                f"it admits no quaternion character")
    return None
