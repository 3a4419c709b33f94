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
- division_radii_rows and character_sup_rows: spectral.division_radii
  and CharacterSup.values laid out row-major, as (rows, K, 4), against
  their block-major (K, 4, rows) forms.
- lapack_pivot_columns: the columns LAPACK's column-pivoted QR pivots
  on first, against the complement algebra.quotient picks with
  _pivot_columns.

manifest_pair materialises a corpus.MANIFEST entry as (algebra,
seminorm), the pair the CLI's verify builds from the same names, and
block_widths reads the width d of each block of a division table.

CallableSeminorm is a test fake: a seminorm given by a bare callable, and
twisted conjugates characters by random unit quaternions
(random_unit_quaternion, qinv).
"""

import numpy as np
import scipy.linalg

from squareprop import corpus
from squareprop.algebra import (NotUnital, left_regular_matrix, mul,
                                nonsingular)
from squareprop.characters import _within
from squareprop.quaternion import qmul, qnorm, qspectrum
from squareprop.seminorm import CharacterSup, SeminormVariant
from squareprop.spectral import spectra


def in_spectrum_paper_def(a, s: float, t: float) -> bool:
    """Literal membership test: (a - se)^2 + t^2 e not invertible.

    Singularity is judged against the scale of (a, s, t), not of the test
    element itself: at a true spectrum point the element is numerically
    zero, where a self-relative singular-value ratio is meaningless.
    Raises NotUnital without a unit.
    """
    A, e = a.algebra, a.algebra.unit
    if e is None:
        raise NotUnital(f"{A.name} has no unit")
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


def division_radii_rows(X: np.ndarray, table: np.ndarray) -> np.ndarray:
    """spectral.division_radii, row-major: X @ table is scaled by one
    m = max|Y| per row, read as (rows, K, 4) and reduced over its last two
    axes."""
    Y = X @ table
    m = np.abs(Y).max(axis=1)
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    Y = (Y / np.where(m > 0.0, m, 1.0)[:, None]).reshape(len(X), -1, 4)
    return m * np.sqrt((Y * Y).sum(axis=2).max(axis=1))


def block_widths(table: np.ndarray) -> np.ndarray:
    """d per block of a division table (dim, 4K): the number of nonzero
    columns in its slice of four, 1 on R, 2 on C and 4 on H."""
    nonzero = (table.reshape(len(table), -1, 4) != 0.0).any(axis=0)
    return nonzero.sum(axis=1)


def character_sup_rows(algebra, X: np.ndarray, chars) -> np.ndarray:
    """CharacterSup.values, row-major: the largest |x(a)| over the
    (rows, m, 4) stack of CharacterSup.evaluations."""
    return qnorm(CharacterSup(chars).evaluations(algebra, X)).max(axis=1)


def lapack_pivot_columns(P: np.ndarray, q: int) -> np.ndarray:
    """The first q pivots of LAPACK's column-pivoted QR (geqp3, through
    SciPy) on P, sorted."""
    return np.sort(scipy.linalg.qr(P, pivoting=True)[2][:q])


def qinv(q: np.ndarray) -> np.ndarray:
    """Inverse conj(q)/|q|^2.  Raises ZeroDivisionError when any q is 0."""
    n2 = (q * q).sum(axis=-1, keepdims=True)
    if (n2 == 0.0).any():
        raise ZeroDivisionError("zero quaternion has no inverse")
    return q * [1.0, -1.0, -1.0, -1.0] / n2


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    """A random unit quaternion as the array (w, x, y, z)."""
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


def twisted(chars, rows, rng: np.random.Generator) -> np.ndarray:
    """The (m, n, 4) stack chars with each character in rows conjugated by
    its own random unit quaternion u, x -> u x u^-1, drawn in that order:
    another character with the same |x(a)|."""
    chars = np.array(chars, dtype=float)
    for i in rows:
        u = random_unit_quaternion(rng)
        chars[i] = qmul(qmul(u, chars[i]), qinv(u))
    return chars


class CallableSeminorm(SeminormVariant):
    """A seminorm given by a bare callable on elements: values calls it
    once per row, and it has no kernel, so verify_theorem stops at stage 3
    with UnsupportedVariant."""

    def __init__(self, fn):
        self.fn = fn

    def values(self, algebra, X):
        return np.array([float(self.fn(algebra.element(row))) for row in X])


def manifest_pair(pair: corpus.CorpusPair):
    """Materialize one manifest entry as (algebra, seminorm)."""
    algebra = corpus.builtin(pair.algebra_name)
    return algebra, corpus.make_seminorm(pair.seminorm_kind,
                                         pair.seminorm_args, algebra)
