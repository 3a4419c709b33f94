"""Reference definitions the tests check the library against.

Each is the paper's literal definition, or the one-element form of a
batched library path, and has no caller in the library itself:

- in_spectrum_paper_def: s + it in sp(a) iff (a - se)^2 + t^2 e is not
  invertible, against spectral.spectra;
- is_invertible: L_a nonsingular, against algebra.nonsingular on a stack;
- j_evaluate: J(a) at a set of characters, one row of
  CharacterSup.evaluations;
- full_spectrum_match: sp(a) equals the union of the quaternion spectra of
  the character values, the two-sided form of check_prop31's inclusion;
- division_radii_rows and character_sup_rows: the division radii of
  spectral._group_radii and CharacterSup.values laid out row-major, as
  (rows, K, d), against their block-major (K, d, rows) forms.

CallableSeminorm is a test fake: a seminorm given by a bare callable.
"""

import numpy as np

from squareprop.algebra import (NotUnital, left_regular_matrix, mul,
                                nonsingular)
from squareprop.characters import _within
from squareprop.quaternion import qnorm, qspectrum
from squareprop.seminorm import CharacterSup, SeminormVariant
from squareprop.spectral import spectra


def in_spectrum_paper_def(a, s: float, t: float) -> bool:
    """Literal membership test: (a - se)^2 + t^2 e not invertible.

    Singularity is judged against the scale of (a, s, t), not of the test
    element itself: at a true spectrum point the element is numerically
    zero, where a self-relative singular-value ratio is meaningless.
    Raises NotUnital without a unit.
    """
    A, e = a.algebra, a.algebra.unit_element().coords
    shifted = A.element(a.coords - e * s)
    x = A.element(mul(shifted, shifted).coords + e * (t * t))
    sv = np.linalg.svd(left_regular_matrix(x), compute_uv=False)
    scale = (np.linalg.norm(left_regular_matrix(a), 2) + abs(s) + abs(t)) ** 2
    return sv[-1] <= 1e-8 * (1.0 + scale)


def is_invertible(a) -> bool:
    """True iff left multiplication by a is nonsingular.

    In a unital finite-dimensional algebra bijectivity of L_a is equivalent
    to two-sided invertibility of a.
    """
    if not a.algebra.is_unital:
        raise NotUnital("invertibility needs a unit")
    return bool(nonsingular(left_regular_matrix(a)))


def j_evaluate(a, chars) -> np.ndarray:
    """J(a) at the (m, n, 4) stack chars: the (m, 4) row of
    CharacterSup.evaluations at a."""
    if len(chars) == 0:
        return np.zeros((0, 4))
    return CharacterSup(chars).evaluations(a.algebra, a.coords[None])[0]


def full_spectrum_match(algebra, X: np.ndarray, chars,
                        tol: float = 1e-6) -> np.ndarray:
    """Per row a of X: sp(a) equals the union of quaternion spectra of the
    character values (False for every row when chars is empty).

    Holds for find_characters(A) exactly when every simple block of
    A/rad(A) is R, C or H.
    """
    if len(chars) == 0:
        return np.zeros(X.shape[0], dtype=bool)
    Z = qspectrum(CharacterSup(chars).evaluations(algebra, X))
    Z = Z.reshape(len(X), -1)
    W = spectra(algebra, algebra.left_matrices_batch(X))
    return _within(Z, W, tol) & _within(W, Z, tol)


def division_radii_rows(X: np.ndarray, d: int, table: np.ndarray) -> np.ndarray:
    """spectral._group_radii on a division group, row-major: X @ table is
    read as (rows, K, d), scaled by m = max|Y| per row, and reduced over
    its last two axes."""
    Y = X @ table
    m = np.abs(Y).max(axis=1)
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    Y = (Y / np.where(m > 0.0, m, 1.0)[:, None]).reshape(len(X), -1, d)
    return m * np.sqrt((Y * Y).sum(axis=2).max(axis=1))


def character_sup_rows(algebra, X: np.ndarray, chars) -> np.ndarray:
    """CharacterSup.values, row-major: the largest |x(a)| over the
    (rows, m, 4) stack of CharacterSup.evaluations."""
    return qnorm(CharacterSup(chars).evaluations(algebra, X)).max(axis=1)


class CallableSeminorm(SeminormVariant):
    """A seminorm given by a bare callable on elements: values calls it
    once per row, and it has no kernel, so verify_theorem stops at stage 3
    with UnsupportedVariant."""

    def __init__(self, fn):
        self.fn = fn

    def values(self, algebra, X):
        return np.array([float(self.fn(algebra.element(row))) for row in X])
