"""Builtin algebras, their known character sets, and the verification manifest.

A direct sum keeps its parts.  When each part is R, C or H in its
standard basis (a table equal to a leading corner of quaternion.HAMILTON),
one canonical character per part can be written down in closed form:
known_characters, a (k, n, 4) stack of images, the oracle that
characters.find_characters is tested against.

builtin(name) builds each builtin algebra once per process, on first use,
and hands out that one object from then on, so the records kept on it
(unit, radical, quotients, simple blocks, spectral split, characters,
square probes) are built once too: a second `verify` of a builtin reads
them, A / Ker p and the records on it included.  The sums
rr, rrc, hc and h2 are formed from the builtin R, C and H, and share them
and their records.  The constructors below (reals, direct_sum, ...) build a
new algebra on every call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import seminorm as sn
from .algebra import FiniteDimRealAlgebra, make_algebra
from .characters import find_characters
from .quaternion import HAMILTON


def reals() -> FiniteDimRealAlgebra:
    return make_algebra(1, ["1"], {(0, 0, 0): 1.0}, unit=[1.0], name="R")


def complexes() -> FiniteDimRealAlgebra:
    table = {(0, 0, 0): 1.0, (0, 1, 1): 1.0, (1, 0, 1): 1.0, (1, 1, 0): -1.0}
    return make_algebra(2, ["1", "i"], table, unit=[1.0, 0.0], name="C")


def quaternions() -> FiniteDimRealAlgebra:
    return make_algebra(4, ["1", "i", "j", "k"], np.array(HAMILTON),
                        unit=[1.0, 0.0, 0.0, 0.0], name="H")


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
    ASSOC_TOL (1 + max|c|)^2 is at least each part's.  So the worst of the
    parts' bounds on their exact defects bounds the sum's.  The sum keeps its
    parts, and its split, blocks and characters are read from them
    (FiniteDimRealAlgebra.summands): the radius factors of every R, C and
    H block of every part form its one division group.
    """
    n = sum(p.dim for p in parts)
    table = np.zeros((n, n, n))
    unit = np.zeros(n)
    unital = all(p.is_unital for p in parts)
    labels, off = [], 0
    for p in parts:
        d = p.dim
        table[off:off + d, off:off + d, off:off + d] = p.table
        if unital:
            unit[off:off + d] = p.unit
        labels.extend(f"{lbl}@{off}" for lbl in p.labels)
        off += d
    return FiniteDimRealAlgebra._from_checked(
        n, labels, table, max((p._assoc_bound for p in parts), default=0.0),
        unit=unit if unital else None,
        name=name or "(+)".join(p.name for p in parts), parts=parts)


def function_algebra_H(points: int) -> FiniteDimRealAlgebra:
    """H-valued functions on a finite point set: a direct sum of copies of
    one H, whose records (its spectral split) are built once."""
    return direct_sum([quaternions()] * points, name=f"C({points} pts, H)")


def nonunital_with_ideal() -> FiniteDimRealAlgebra:
    """3-dim algebra R (+) R (+) null line; non-unital, with a 1-dim ideal."""
    table = {(0, 0, 0): 1.0, (1, 1, 1): 1.0}
    return make_algebra(3, ["a", "b", "n"], table, name="R(+)R(+)null")


# bench/tracing.py wraps this name; keep it until the library records spans
def known_characters(algebra: FiniteDimRealAlgebra) -> np.ndarray:
    """One canonical character per summand of a product of R, C and H, as
    the (k, n, 4) stack of their images: the inclusion of each into H.

    A summand (FiniteDimRealAlgebra.summands) is R, C or H when its table
    is the leading d x d x d corner of HAMILTON (d = 1, 2 or 4: the corner
    at d = 3 is not associative); any other raises ValueError.  Their
    union of quaternion spectra equals sp(a) for every element, which is
    what makes these algebras usable as equality oracles.
    """
    chars = []
    for off, leaf in algebra.summands:
        d = leaf.dim
        if not np.array_equal(leaf.table, HAMILTON[:d, :d, :d]):
            raise ValueError(f"{algebra.name} is not a product of R, C and H "
                             "in their standard bases")
        images = np.zeros((algebra.dim, 4))
        images[off:off + d] = np.eye(4)[:d]
        chars.append(images)
    return np.stack(chars)


_BUILTINS = {
    "reals": reals,
    "complexes": complexes,
    "quaternions": quaternions,
    "m2_reals": m2_reals,
    "rr": lambda: direct_sum([builtin("reals")] * 2, name="R(+)R"),
    "rrc": lambda: direct_sum([builtin("reals")] * 2 + [builtin("complexes")],
                              name="R(+)R(+)C"),
    "hc": lambda: direct_sum([builtin("quaternions"), builtin("complexes")],
                             name="H(+)C"),
    "h2": lambda: direct_sum([builtin("quaternions")] * 2,
                             name="C(2 pts, H)"),
    "nonunital3": nonunital_with_ideal,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


@functools.cache
def builtin(name: str) -> FiniteDimRealAlgebra:
    """The builtin algebra of that name, one object per process: built on
    first use and shared after, with every record kept on it, the
    quotients algebra.quotient formed on it among them.  An algebra is
    immutable, and what it keeps is read-only, so no caller can change it
    for the next; an unknown name raises KeyError naming the available
    ones."""
    try:
        build = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin algebra {name!r}; "
                       f"available: {', '.join(builtin_names())}") from None
    return build()


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


def _holds_bool(x) -> bool:
    """True when a JSON true or false is x or sits in x, a nested list."""
    return isinstance(x, bool) or (isinstance(x, (list, tuple))
                                   and any(map(_holds_bool, x)))


def make_seminorm(kind: str, args: dict, algebra: FiniteDimRealAlgebra):
    """Instantiate a seminorm variant for an algebra from a kind tag, one of
    SEMINORM_KINDS, and payload dict (the vocabulary of the CLI files).
    Raises ValueError on an unknown kind, a field the kind does not read
    or that is malformed (true or false among numbers too), or a missing
    component_sup subset."""
    if kind not in SEMINORM_KINDS:
        raise ValueError(f"unknown type {kind!r}; expected one of "
                         f"{', '.join(SEMINORM_KINDS)}")
    fields = SEMINORM_KINDS[kind]
    unread = sorted(set(args) - set(fields))
    if unread:
        raise ValueError(f"{kind} does not read field {unread[0]!r}; it "
                         f"reads {', '.join(fields) or 'none'}")
    for name, ndim in (("subset", 1), ("weights", 1), ("characters", 3)):
        if _holds_bool(args.get(name)):   # NumPy reads true as 1.0
            raise ValueError(f"field {name!r} holds true or false where a "
                             "number belongs")
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
