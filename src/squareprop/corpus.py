"""Builtin algebras, their known character sets, and the verification manifest.

Direct sums of R, C and H carry component metadata so that a complete set
of representative characters (one per component) can be written down
analytically.  known_characters is that closed form, a (k, n, 4) stack of
images: the oracle that characters.find_characters is tested against, and
the source of the fuzz instances' character seminorms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seminorm as sn
from .algebra import FiniteDimRealAlgebra, make_algebra
from .characters import find_characters
from .quaternion import HAMILTON, qinv, qmul


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
    """The parts side by side, each a block of the table.

    The table is not checked for associativity again: a triple inside one
    part has that part's own defect, any other triple has defect exactly 0
    (products across parts are exact 0s), and the tolerance
    ASSOC_TOL (1 + max|c|)^2 is at least each part's.
    """
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
    return FiniteDimRealAlgebra._from_checked(
        n, labels, table, unit=unit if unital else None,
        name=name or "(+)".join(p.name for p in parts), components=components)


def function_algebra_H(points: int) -> FiniteDimRealAlgebra:
    """H-valued functions on a finite point set: a direct sum of copies of H."""
    return direct_sum([quaternions() for _ in range(points)],
                      name=f"C({points} pts, H)")


def nonunital_with_ideal() -> FiniteDimRealAlgebra:
    """3-dim algebra R (+) R (+) null line; non-unital, with a 1-dim ideal."""
    table = {(0, 0, 0): 1.0, (1, 1, 1): 1.0}
    return make_algebra(3, ["a", "b", "n"], table, name="R(+)R(+)null")


def _embedding_images(kind: str, offset: int, dim: int,
                      u: np.ndarray | None = None) -> np.ndarray:
    """Images of the full basis under the canonical character of one component,
    optionally twisted by conjugation with a unit quaternion u, an array
    (w, x, y, z)."""
    units = np.eye(4)[:{"R": 1, "C": 2, "H": 4}[kind]]
    if u is not None:
        units = qmul(qmul(u, units), qinv(u))
    images = np.zeros((dim, 4))
    images[offset:offset + len(units)] = units
    return images


# bench/tracing.py wraps this name; keep it until the library records spans
def known_characters(algebra: FiniteDimRealAlgebra,
                     twists: dict | None = None) -> np.ndarray:
    """One canonical character per R/C/H component of a product algebra, as
    the (k, n, 4) stack of their images.

    Their union of quaternion spectra equals sp(a) for every element, which
    is what makes these algebras usable as equality oracles.  `twists` maps
    component index -> unit quaternion, an array (w, x, y, z), for a
    conjugated representative.
    """
    if algebra.components is None:
        raise ValueError(f"{algebra.name} is not a tagged product of R/C/H")
    twists = twists or {}
    return np.stack([_embedding_images(kind, off, algebra.dim, twists.get(idx))
                     for idx, (kind, off) in enumerate(algebra.components)])


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


# each kind with the payload fields it reads; identity and known are the
# shorthands that the manifest lists for the characters of the algebra
SEMINORM_KINDS = {
    "character_sup": ("characters", "identity", "known"),
    "spectral_radius": (), "coordinate_max": ("weights",),
    "coordinate_sum": ("weights",), "operator_norm": (),
    "component_sup": ("subset",)}


def make_seminorm(kind: str, args: dict, algebra: FiniteDimRealAlgebra):
    """Instantiate a seminorm variant for an algebra from a kind tag, one of
    SEMINORM_KINDS, and payload dict (the vocabulary of the CLI files).
    Raises ValueError on an unknown kind, a field the kind does not read
    or that is malformed, or a missing component_sup subset."""
    if kind not in SEMINORM_KINDS:
        raise ValueError(f"unknown type {kind!r}; expected one of "
                         f"{', '.join(SEMINORM_KINDS)}")
    fields = SEMINORM_KINDS[kind]
    unread = sorted(set(args) - set(fields))
    if unread:
        raise ValueError(f"{kind} does not read field {unread[0]!r}; it "
                         f"reads {', '.join(fields) or 'none'}")
    for name, ndim in (("subset", 1), ("weights", 1), ("characters", 3)):
        try:   # a number, a ragged list or a non-number fails
            ok = (args.get(name) is None
                  or np.asarray(args[name], dtype=float).ndim == ndim)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"field {name!r} must be a rectangular list of "
                             f"numbers {ndim} deep")
    if kind in ("coordinate_max", "coordinate_sum"):
        w = args.get("weights")
        cls = {"coordinate_max": sn.CoordinateMax,
               "coordinate_sum": sn.CoordinateSum}[kind]
        return cls(tuple(w) if w is not None else None)
    if kind == "component_sup":
        if args.get("subset") is None:
            raise ValueError("component_sup needs field 'subset'")
        return sn.ComponentSup(tuple(args["subset"]))
    if kind == "spectral_radius":
        return sn.SpectralRadius()
    if kind == "operator_norm":
        return sn.OperatorNorm()
    if args.get("characters") is not None:
        return sn.CharacterSup(args["characters"])
    # the identity/known shorthands: one character per R, C or H block
    return sn.CharacterSup(find_characters(algebra))


def manifest_pair(pair: CorpusPair):
    """Materialize one manifest entry as (algebra, seminorm)."""
    algebra = builtin(pair.algebra_name)
    return algebra, make_seminorm(pair.seminorm_kind, pair.seminorm_args, algebra)
