"""Quaternion arithmetic: the real normed division algebra spanned by 1, i, j, k.

A quaternion is an array whose last axis holds (w, x, y, z); every
function here acts on each quaternion of a stack (..., 4).  Quaternions are
the codomain of every multiplicative functional in this package, so the
laws that matter downstream (norm multiplicativity, |q^2| = |q|^2,
associativity) are exercised hard in the test suite.
"""

from __future__ import annotations

import numpy as np

VECTOR_TOL = 1e-12  # |v| at or below which sp(q) is the real point s twice

# (e_p * e_q)_c coefficients over the ordered basis (1, i, j, k).
HAMILTON = np.zeros((4, 4, 4))
_PRODUCTS = {
    (0, 0): (0, 1.0), (0, 1): (1, 1.0), (0, 2): (2, 1.0), (0, 3): (3, 1.0),
    (1, 0): (1, 1.0), (1, 1): (0, -1.0), (1, 2): (3, 1.0), (1, 3): (2, -1.0),
    (2, 0): (2, 1.0), (2, 1): (3, -1.0), (2, 2): (0, -1.0), (2, 3): (1, 1.0),
    (3, 0): (3, 1.0), (3, 1): (2, 1.0), (3, 2): (1, -1.0), (3, 3): (0, -1.0),
}
for (_p, _q), (_c, _s) in _PRODUCTS.items():
    HAMILTON[_p, _q, _c] = _s
HAMILTON.setflags(write=False)


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product pq (bilinear, associative, noncommutative)."""
    return np.einsum("...p,...q,pqc->...c", p, q, HAMILTON)


def qnorm(q: np.ndarray) -> np.ndarray:
    """Euclidean norm on H viewed as R^4; multiplicative: |pq| = |p||q|."""
    return np.sqrt((q * q).sum(axis=-1))


def qspectrum(q: np.ndarray) -> np.ndarray:
    """Spectrum of q in H, shape (..., 2): {s +- i|v|} with s the scalar
    part and v the vector part.

    (q - s)^2 = -|v|^2, so (q - s)^2 + t^2 fails to be invertible exactly for
    t = +-|v|.  When |v| <= VECTOR_TOL the pair is the real point s twice.
    """
    v = qnorm(q[..., 1:])
    v = np.where(v <= VECTOR_TOL, 0.0, v)[..., None]
    return q[..., :1] + 1j * v * [1.0, -1.0]
