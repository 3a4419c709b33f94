"""Builtin algebras, their known character sets, and the verification manifest.

Direct sums of R, C and H carry component metadata so that a complete set
of representative characters (one per component) can be written down
analytically.  known_characters is that closed form: the oracle that
characters.find_characters is tested against, and the source of the fuzz
instances' character seminorms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import FiniteDimRealAlgebra, make_algebra
from .characters import Character, character_residual
from .quaternion import HAMILTON, Quaternion, qinv, qmul


def reals() -> FiniteDimRealAlgebra:
    return make_algebra(1, ["1"], {(0, 0, 0): 1.0}, unit=[1.0],
                        name="R", components=[("R", 0)])


def complexes() -> FiniteDimRealAlgebra:
    table = {(0, 0, 0): 1.0, (0, 1, 1): 1.0, (1, 0, 1): 1.0, (1, 1, 0): -1.0}
    return make_algebra(2, ["1", "i"], table, unit=[1.0, 0.0],
                        name="C", components=[("C", 0)])


def quaternions() -> FiniteDimRealAlgebra:
    return make_algebra(4, ["1", "i", "j", "k"], np.array(HAMILTON),
                        unit=[1.0, 0.0, 0.0, 0.0],
                        name="H", components=[("H", 0)])


def m2_reals() -> FiniteDimRealAlgebra:
    """2x2 real matrices with basis E11, E12, E21, E22."""
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    table = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                table[(i, j, idx[(a, d)])] = 1.0
    return make_algebra(4, ["E11", "E12", "E21", "E22"], table,
                        unit=[1.0, 0.0, 0.0, 1.0], name="M2(R)")


def direct_sum(parts: list[FiniteDimRealAlgebra],
               name: str | None = None) -> FiniteDimRealAlgebra:
    dims = [p.dim for p in parts]
    n = sum(dims)
    table = np.zeros((n, n, n))
    unit = np.zeros(n)
    unital = all(p.is_unital for p in parts)
    components: list | None = []
    labels = []
    off = 0
    for p in parts:
        d = p.dim
        table[off:off + d, off:off + d, off:off + d] = p.table
        if unital:
            unit[off:off + d] = p.unit
        if components is not None and p.components is not None:
            components.extend((kind, off + o) for kind, o in p.components)
        elif p.components is None:
            components = None  # not a recognized R/C/H product
        labels.extend(f"{lbl}@{off}" for lbl in p.labels)
        off += d
    return make_algebra(n, labels, table, unit=unit if unital else None,
                        name=name or "(+)".join(p.name for p in parts),
                        components=components)


def function_algebra_H(points: int) -> FiniteDimRealAlgebra:
    """H-valued functions on a finite point set: a direct sum of copies of H."""
    return direct_sum([quaternions() for _ in range(points)],
                      name=f"C({points} pts, H)")


def nonunital_with_ideal() -> FiniteDimRealAlgebra:
    """3-dim algebra R (+) R (+) null line; non-unital, with a 1-dim ideal."""
    table = {(0, 0, 0): 1.0, (1, 1, 1): 1.0}
    return make_algebra(3, ["a", "b", "n"], table, name="R(+)R(+)null")


def _embedding_images(kind: str, offset: int, dim: int,
                      u: Quaternion | None = None) -> np.ndarray:
    """Images of the full basis under the canonical character of one component,
    optionally twisted by conjugation with a unit quaternion u."""
    units = {
        "R": [Quaternion(1.0)],
        "C": [Quaternion(1.0), Quaternion(0.0, 1.0)],
        "H": [Quaternion(1.0), Quaternion(0.0, 1.0),
              Quaternion(0.0, 0.0, 1.0), Quaternion(0.0, 0.0, 0.0, 1.0)],
    }[kind]
    images = np.zeros((dim, 4))
    for local, q in enumerate(units):
        if u is not None:
            q = qmul(qmul(u, q), qinv(u))
        images[offset + local] = q.as_array()
    return images


def known_characters(algebra: FiniteDimRealAlgebra,
                     twists: dict[int, Quaternion] | None = None) -> list[Character]:
    """One canonical character per R/C/H component of a product algebra.

    Their union of quaternion spectra equals sp(a) for every element, which
    is what makes these algebras usable as equality oracles.  `twists` maps
    component index -> unit quaternion for a conjugated representative.
    """
    if algebra.components is None:
        raise ValueError(f"{algebra.name} is not a tagged product of R/C/H")
    chars = []
    for idx, (kind, off) in enumerate(algebra.components):
        u = (twists or {}).get(idx)
        images = _embedding_images(kind, off, algebra.dim, u)
        chars.append(Character(algebra, images,
                               character_residual(algebra, images)))
    return chars


_BUILTINS = {
    "reals": reals,
    "complexes": complexes,
    "quaternions": quaternions,
    "m2_reals": m2_reals,
    "rr": lambda: direct_sum([reals(), reals()], name="R(+)R"),
    "rrc": lambda: direct_sum([reals(), reals(), complexes()],
                              name="R(+)R(+)C"),
    "hc": lambda: direct_sum([quaternions(), complexes()], name="H(+)C"),
    "h2": lambda: function_algebra_H(2),
    "nonunital3": nonunital_with_ideal,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin(name: str) -> FiniteDimRealAlgebra:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin algebra {name!r}; "
                       f"available: {', '.join(builtin_names())}") from None


@dataclass(frozen=True)
class CorpusPair:
    """A builtin (algebra, seminorm) pairing and what running it exercises."""

    name: str
    algebra_name: str
    seminorm_kind: str
    seminorm_args: dict = field(default_factory=dict)
    expected: str = "pass"
    exercises: str = ""


MANIFEST = [
    CorpusPair("rr_coordinate_max", "rr", "coordinate_max", {},
               "pass", "trivial-kernel norm on a commutative product"),
    CorpusPair("rr_component_sup", "rr", "component_sup", {"subset": [0]},
               "pass", "1-dim kernel, quotient down to R"),
    CorpusPair("rrc_spectral_radius", "rrc", "spectral_radius", {},
               "pass", "spectral radius as a square-property norm"),
    CorpusPair("h_character_sup", "quaternions", "character_sup",
               {"identity": True},
               "pass", "noncommutative case via the identity character"),
    CorpusPair("hc_character_sup", "hc", "character_sup", {"known": True},
               "pass", "mixed H/C product with one character per component"),
    CorpusPair("c_coordinate_sum", "complexes", "coordinate_sum", {},
               "hypothesis_not_met",
               "l1 norm on C lacks the square property (witness 1+i)"),
    CorpusPair("nonunital3_component_sup", "nonunital3", "component_sup",
               {"subset": [0, 1]},
               "pass", "non-unital ambient algebra; kernel kills the null "
                       "line, quotient is unital R(+)R"),
]


SEMINORM_KINDS = ("character_sup", "spectral_radius", "coordinate_max",
                  "coordinate_sum", "operator_norm", "component_sup")


def make_seminorm(kind: str, args: dict, algebra: FiniteDimRealAlgebra):
    """Instantiate a seminorm variant for an algebra from a kind tag, one of
    SEMINORM_KINDS, and payload dict (the vocabulary of the CLI files)."""
    from . import seminorm as sn

    if kind == "coordinate_max":
        w = args.get("weights")
        return sn.CoordinateMax(tuple(w) if w is not None else None)
    if kind == "coordinate_sum":
        w = args.get("weights")
        return sn.CoordinateSum(tuple(w) if w is not None else None)
    if kind == "component_sup":
        return sn.ComponentSup(tuple(args["subset"]))
    if kind == "spectral_radius":
        return sn.SpectralRadius()
    if kind == "operator_norm":
        return sn.OperatorNorm()
    if kind == "character_sup":
        if args.get("characters") is not None:
            images = tuple(np.asarray(c, dtype=float)
                           for c in args["characters"])
            return sn.CharacterSup(images)
        # identity/known shorthands resolve through the component metadata
        return sn.CharacterSup(tuple(known_characters(algebra)))
    raise KeyError(f"unknown seminorm kind {kind!r}")


def manifest_pair(pair: CorpusPair):
    """Materialize one manifest entry as (algebra, seminorm)."""
    algebra = builtin(pair.algebra_name)
    return algebra, make_seminorm(pair.seminorm_kind, pair.seminorm_args, algebra)
