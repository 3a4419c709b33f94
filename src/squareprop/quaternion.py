"""Quaternion arithmetic: the real normed division algebra spanned by 1, i, j, k.

Quaternions are the codomain of every multiplicative functional in this
package, so the laws that matter downstream (norm multiplicativity,
|q^2| = |q|^2, associativity) are exercised hard in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion w + x*i + y*j + z*k; qmul multiplies and
    qnorm measures it."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @staticmethod
    def from_array(arr) -> "Quaternion":
        w, x, y, z = (float(v) for v in arr)
        return Quaternion(w, x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product pq (bilinear, associative, noncommutative)."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def qnorm(q: Quaternion) -> float:
    """Euclidean norm on H viewed as R^4; multiplicative: |pq| = |p||q|."""
    return math.sqrt(q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z)


def qinv(q: Quaternion) -> Quaternion:
    """Inverse conj(q)/|q|^2.  Raises ZeroDivisionError at q = 0."""
    n2 = q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z
    if n2 == 0.0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    return Quaternion(q.w / n2, -q.x / n2, -q.y / n2, -q.z / n2)


def qspectrum(q: Quaternion, tol: float = 1e-12) -> tuple[complex, ...]:
    """Spectrum of q in H: {s +- i|v|} with s the scalar part, v the vector part.

    (q - s)^2 = -|v|^2, so (q - s)^2 + t^2 fails to be invertible exactly for
    t = +-|v|.  Returns the conjugate pair, collapsed to a single real point
    when |v| <= tol.
    """
    s = q.w
    v = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    if v <= tol:
        return (complex(s, 0.0),)
    return (complex(s, v), complex(s, -v))


def qmul_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of stacked quaternions, components on the last axis."""
    return np.einsum("...p,...q,pqc->...c", a, b, HAMILTON)


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    """A random unit quaternion as the array (w, x, y, z)."""
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)
