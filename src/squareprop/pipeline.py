"""End-to-end verification of the submultiplicativity proof chain.

verify_theorem walks, on one (algebra, seminorm) pair: for the spectral
radius, whether it is a seminorm at all, then the square property, working
constant, kernel and quotient, the scaled quotient norm and its square
identity, the iterated-power relation, the radius identity, the
characters with Proposition 3.1 and the sup bound, and the final
submultiplicativity check, recording a residual at every stage.  Stages 4
to 8 evaluate one stack of rows per quantity: the quotient norm p(lift b),
the iterated squares of stage 6, the Gelfand radii of stage 7, the
character sup and Proposition 3.1.  p.value, mul and gelfand_radius take
stacks of elements, and a row of a Gelfand iteration stops squaring once
it converges.

In finite dimension the square property leaves A / Ker p no radical: a
nilpotent b has p(b)^(2^k) = p(b^(2^k)) = 0 for some k, so b = 0.  The
quotient is then semisimple and has a unit (Wedderburn-Artin), so stage 8
has one branch.  A radical in the quotient is a failed hypothesis, with a
power of a radical row as its witness.  fuzz hammers randomized instances
looking for a counterexample the theorem says cannot exist.  It checks
them in blocks, on stacks of rows of R, C and H, the parts its products
are sums of: each stack takes one product per part and one values call
per part and seminorm kind.  A stacked hit is confirmed by the
one-instance checks.

The walk records facts and picks no verdict: each stage fills its fields of
the report, and a stop returns a note.  compute_verdict alone turns a report
into a verdict, from its fields and notes, so a report read back from its
JSON gets the verdict it carries.  A square residual over its bound, or a
note that begins with HYPOTHESIS_NOT_MET (the spectral-radius axiom stop
and a radical stop with a witness), gives hypothesis_not_met; the stage
gates give pass or fail otherwise.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import corpus
from .algebra import FiniteDimRealAlgebra, NotAnIdeal, quotient
from .characters import (check_prop31, find_characters, non_division_block,
                         nonexistence_explanation)
from .seminorm import (RATIO_FLOOR, CharacterSup, CoordinateMax,
                       SeminormVariant, SpectralRadius, _square_probes,
                       check_square_property, check_submultiplicative,
                       estimate_m, kernel, square_property_details)
from .spectral import gelfand_radius, log_square_norms


# begins the note of every stop whose hypothesis is false beyond stage 1
HYPOTHESIS_NOT_MET = "hypothesis not met: "


class VanishingSeminorm(ValueError):
    """p vanishes on all of A, so the quotient by its kernel is 0."""


class SampleBudgetExceeded(ValueError):
    """The stacks of sample rows would not fit in SAMPLE_BUDGET_BYTES."""


# the most the stacks of sample rows may take: 2 GiB, which the default
# 2000 samples keep up to dim 366 (H^64 has dim 256); far beyond it a run
# would fail to allocate or swap
SAMPLE_BUDGET_BYTES = 2 ** 31


def sample_bytes(samples: int, dim: int) -> int:
    """Bytes of the sample rows that a stage holds at `samples` rows of an
    algebra of dimension n = dim, the larger of two counts.  Stage 1's
    2 (n^2 + samples) rows: the n^2 probes and their squares, which the
    algebra keeps, and the random rows R with their squares.  Or the
    n x n left matrices of the `samples` rows that a dense product
    forms."""
    return 8 * max(2 * (dim * dim + samples) * dim, samples * dim * dim)


def check_sample_budget(samples: int, dim: int) -> None:
    """Raise SampleBudgetExceeded, before anything is drawn, when the
    stacks of `samples` rows at dim exceed SAMPLE_BUDGET_BYTES."""
    need = sample_bytes(samples, dim)
    if need > SAMPLE_BUDGET_BYTES:
        raise SampleBudgetExceeded(
            f"samples {samples} would stack {need / 2 ** 30:.3g} GiB of "
            f"rows at dim {dim}, over the "
            f"{SAMPLE_BUDGET_BYTES / 2 ** 30:g} GiB budget")


def _copied(value):
    """value with each list and dict in it copied, its numbers shared."""
    if isinstance(value, list):
        return [_copied(v) for v in value]
    if isinstance(value, dict):
        return {k: _copied(v) for k, v in value.items()}
    return value


def _fields_dict(obj) -> dict:
    """The fields of a dataclass of numbers, strings, lists and dicts, as
    asdict gives them, without its deep copy of every number."""
    return {f.name: _copied(getattr(obj, f.name)) for f in fields(obj)}


# characters are built, not searched for, so nothing restarts; reports
# still echo the old search's default in their frozen "restarts" keys
RESTARTS_ECHO = 50

# levels of the iterated-squares relation that stage 6 checks
MAX_SQUARE_ITERATES = 10


@dataclass(frozen=True)
class PipelineConfig:
    sample_count: int = 2000
    seed: int = 0
    tol: float = 1e-9

    def __post_init__(self):
        if self.sample_count <= 0:
            raise ValueError(
                f"sample_count must be positive, got {self.sample_count}")
        if self.seed < 0:   # NumPy seeds only with non-negative integers
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must be in (0, 1), got {self.tol}")


def stage_tolerances(tol: float) -> dict:
    """Per-stage bounds; multipliers of the configured tolerance are the one
    tuning surface and are echoed in every report header."""
    return {
        "square_property": tol,
        "quotient_well_defined": 1e-10,
        "normed_algebra_ratio": 1.0 + 100.0 * tol,
        "scaled_norm_square": 100.0 * tol,
        "iterate_relation_base": 1e-8,      # times 2^n at level n
        "radius_match": 1e-6,
        "sup_bound": 1e-6,
        "sup_equality": 1e-6,
        "final_ratio": 1.0 + tol,
        "m_hat_max": 1.0 + tol,
    }


@dataclass
class VerificationReport:
    algebra_name: str
    seminorm_kind: str
    config: dict
    tolerances: dict
    square_property_residual: float | None = None
    square_witness: list | None = None
    m_hat: float | None = None
    m_hat_pair: list | None = None
    kernel_dim: int | None = None
    ideal_check: bool | None = None
    quotient_dim: int | None = None
    quotient_norm_well_defined_residual: float | None = None
    normed_algebra_ratio: float | None = None
    scaled_norm_square_residual: float | None = None
    iterate_relation_residuals: list = field(default_factory=list)
    radius_match_residual: float | None = None
    branch: str | None = None
    character_count: int | None = None
    prop31_forward_ok: bool | None = None
    prop31_inclusion_ok: bool | None = None
    sup_bound_residual: float | None = None
    sup_equality_residual: float | None = None
    unitization_checks: dict | None = None
    final_submultiplicativity_ratio: float | None = None
    verdict: str = "fail"
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return _fields_dict(self)


def compute_verdict(r: VerificationReport) -> str:
    """The one verdict of a report, read from its fields alone, so a report
    loaded from JSON is re-gated to the verdict it carries.

    hypothesis_not_met when the square residual is not within its bound
    (NaN and inf included), or when a note begins with HYPOTHESIS_NOT_MET;
    otherwise pass when every stage's residual is present, finite and
    within its bound, and fail when one is not."""
    t = r.tolerances

    def within(x, bound):
        return x is not None and math.isfinite(x) and x <= bound

    sq = r.square_property_residual
    if (sq is not None and not sq <= t["square_property"]) or any(
            n.startswith(HYPOTHESIS_NOT_MET) for n in r.notes):
        return "hypothesis_not_met"
    iterates = r.iterate_relation_residuals
    checks = [
        within(sq, t["square_property"]),
        r.ideal_check is True,
        within(r.quotient_norm_well_defined_residual,
               t["quotient_well_defined"]),
        within(r.normed_algebra_ratio, t["normed_algebra_ratio"]),
        within(r.scaled_norm_square_residual, t["scaled_norm_square"]),
        bool(iterates) and all(
            within(res, t["iterate_relation_base"] * 2.0 ** (n + 1))
            for n, res in enumerate(iterates)),
        within(r.radius_match_residual, t["radius_match"]),
        r.character_count is not None and r.character_count > 0,
        r.prop31_forward_ok is True,
        r.prop31_inclusion_ok is True,
        within(r.sup_bound_residual, t["sup_bound"]),
        within(r.sup_equality_residual, t["sup_equality"]),
        within(r.final_submultiplicativity_ratio, t["final_ratio"]),
        within(r.m_hat, t["m_hat_max"]),
    ]
    return "pass" if all(checks) else "fail"


def _unital_branch(report, qalg, norms, config, rng):
    """Characters, Proposition 3.1 and the sup bound on qalg, all on one
    stack of rows; norms gives |b| on each row of a stack b.  Returns the
    worst |max_x |x(b)| - |b|| / (1 + |b|), or None with no character."""
    chars = find_characters(qalg)
    report.character_count = len(chars)
    if len(chars) == 0:
        note = nonexistence_explanation(qalg)
        report.notes.append(
            "the quotient has no quaternion character"
            + (f": {note}" if note else ""))
        return None
    X = rng.standard_normal((min(20, config.sample_count), qalg.dim))
    report.prop31_forward_ok, report.prop31_inclusion_ok = check_prop31(
        qalg, X, chars)
    nb = norms(qalg.element(X))
    gap = (CharacterSup(chars).values(qalg, X) - nb) / (1.0 + nb)
    report.sup_bound_residual = max(0.0, float(gap.max()))
    return float(np.abs(gap).max())


def _quotient_defect(p, algebra, qm, tol):
    """Why stage 8 cannot run on Q = qm.algebra, as a note; None when Q has
    a unit and no radical.  For a radical row b of Q, the first of the
    squares c = b, b^2, b^4, ... with |p(c^2) - p(c)^2| > tol p(c)^2, p read
    on the lifts to A, is the witness, and its note begins with
    HYPOTHESIS_NOT_MET."""
    Q = qm.algebra
    if not Q.radical.shape[0]:
        return None if Q.is_unital else (
            "A / Ker p has no radical, but no unit was found")
    c = Q.element(Q.radical[0])
    powers = [c.coords]
    for _ in range(Q.dim.bit_length() + 1):
        c = c * c
        powers.append(c.coords)
    lifts = np.array(powers) @ qm.lift.T
    v = p.values(algebra, lifts)
    for k, (pc, pc2) in enumerate(zip(v, v[1:])):
        if abs(pc2 - pc * pc) > tol * pc * pc:
            return (f"{HYPOTHESIS_NOT_MET}A / Ker p has a radical: "
                    f"b = {lifts[0].tolist()} is nilpotent, and c = "
                    f"b^{2 ** k} has p(c) = {pc:.6g} but p(c^2) = {pc2:.6g}, "
                    f"not p(c)^2 = {pc * pc:.6g}, so the square property "
                    "fails")
    return ("A / Ker p has a radical, but no square of its first row shows "
            "p(c^2) != p(c)^2")


def _walk(report, algebra, p, config):
    """Stages 1 to 9 on (algebra, p), recording each stage's facts in
    report.  A stop returns its note and skips the later stages; a walk
    that reaches stage 9 returns None."""
    rng = np.random.default_rng(config.seed + 7)

    # 1. r is a seminorm iff every simple block of A/rad(A) is R, C or H:
    # an M_k(D) block with k >= 2 holds nilpotents x, y with r(x + y) > 0;
    # asked first, so that r is never evaluated where it is no seminorm
    if isinstance(p, SpectralRadius):
        bad = non_division_block(algebra)
        if bad is not None:
            return (f"{HYPOTHESIS_NOT_MET}the spectral radius is not a "
                    f"seminorm: block {bad[0]} of A/rad(A) is {bad[1]}, not "
                    "R, C or H")
    # square property
    sq = square_property_details(p, algebra, config.sample_count, config.seed)
    report.square_property_residual = sq.residual
    report.square_witness = [float(v) for v in sq.witness]
    if not sq.residual <= config.tol:
        return (f"square property fails: residual {sq.residual:.6g} at the "
                "recorded witness")

    # 2. working constant
    m = estimate_m(p, algebra, config.sample_count, config.seed + 1)
    m_hat = report.m_hat = m.m_hat
    report.m_hat_pair = [list(map(float, m.pair[0])), list(map(float, m.pair[1]))]

    # 3. kernel is a two-sided ideal; 4. the quotient by it, which checks
    # that once and certifies its own associativity, and well-definedness
    # of the induced norm
    K = kernel(p, algebra)
    report.kernel_dim = int(K.shape[0])
    if K.shape[0] == algebra.dim:
        raise VanishingSeminorm(
            f"p vanishes on all of {algebra.name}, so no quotient is left "
            "to check")
    try:
        qm = quotient(algebra, K)
    except NotAnIdeal:      # a stop; its note has no "skipped" tail
        report.ideal_check = False
        report.notes.append("computed kernel is not a two-sided ideal")
        return None
    report.ideal_check = True
    qalg = qm.algebra
    report.quotient_dim = qalg.dim
    # row i = (a_i, coefficients of a kernel element k_i), drawn in one call
    n, nk = algebra.dim, K.shape[0]
    Z = rng.standard_normal((min(1000, config.sample_count), n + nk))
    wd = 0.0
    if nk:
        A = Z[:, :n]
        pa, pk = p.values(algebra, np.concatenate([A, A + Z[:, n:] @ K])
                          ).reshape(2, -1)
        wd = float(np.max(np.abs(pk - pa) / (1.0 + pa)))
    report.quotient_norm_well_defined_residual = wd
    stop = _quotient_defect(p, algebra, qm, config.tol)
    if stop is not None:
        return stop

    def norms(b):   # the induced |b + Ker(p)| = p(lift b), b one or a stack
        return p.value(algebra.element(b.coords @ qm.lift.T))

    def scaled(b):  # the working norm m |b + Ker(p)|
        return m_hat * norms(b)

    # 5. scaled norm: normed algebra + square identity; row i = (b_i, c_i)
    Z = rng.standard_normal((min(200, config.sample_count), 2 * qalg.dim))
    b, c = qalg.element(Z[:, :qalg.dim]), qalg.element(Z[:, qalg.dim:])
    nb, nc, nbc, nbb = (scaled(x) for x in (b, c, b * c, b * b))
    ok = nb * nc > 1e-12
    report.normed_algebra_ratio = float(
        np.max(nbc[ok] / (nb * nc)[ok], initial=0.0))
    report.scaled_norm_square_residual = float(
        np.max(np.abs(nbb - nb * nb / m_hat) / (1.0 + nb * nb), initial=0.0))

    # 6. iterated squaring relation, log domain, on one stack of 10 rows
    residuals = [0.0] * MAX_SQUARE_ITERATES
    logs = log_square_norms(qalg.element(rng.standard_normal((10, qalg.dim))),
                            scaled)
    log_nb = log_norm = next(logs)
    ok = ~(log_nb <= math.log(1e-12))
    for lvl, log_nv in enumerate(itertools.islice(logs, len(residuals)), 1):
        # a zero power reads -inf from then on: residual inf
        log_norm = 2.0 * log_norm + log_nv
        expected = (-(2.0 ** lvl - 1.0) * math.log(m_hat)
                    + 2.0 ** lvl * log_nb)
        residuals[lvl - 1] = float(
            np.max(np.abs(log_norm - expected)[ok], initial=0.0))
    report.iterate_relation_residuals = residuals

    # 7. radius identity ||b|| = m * r(b), on one stack
    b = qalg.element(rng.standard_normal((min(100, config.sample_count),
                                          qalg.dim)))
    nb = scaled(b)
    r = gelfand_radius(b, norm=scaled)
    report.radius_match_residual = float(
        np.max(np.abs(m_hat * r - nb) / (1.0 + nb), initial=0.0))

    # 8. characters of the unital quotient
    report.branch = "unital"
    report.sup_equality_residual = _unital_branch(report, qalg, norms,
                                                  config, rng)

    # 9. final submultiplicativity of p itself, fresh samples
    report.final_submultiplicativity_ratio = check_submultiplicative(
        p, algebra, config.sample_count, config.seed + 3)
    return None


def verify_theorem(algebra: FiniteDimRealAlgebra, p: SeminormVariant,
                   config: PipelineConfig | None = None) -> VerificationReport:
    """Walk the proof chain on (algebra, p); the verdict is compute_verdict
    of the report, so the JSON re-gates to it.

    Three stops end the walk with hypothesis_not_met: the spectral radius
    on an algebra where it is no seminorm, asked before r is evaluated,
    then the square property over tol (both stage 1), and a radical in
    A / Ker p with the power of a radical row where p(c^2) != p(c)^2
    (after stage 4); the first and the last notes begin with
    HYPOTHESIS_NOT_MET.  A kernel that is no ideal, a radical that no power
    shows and a quotient without a unit stop it with fail.  Stage 8 sets
    sup_equality_residual whenever a character exists: on A / Ker p,
    p(b) = max |x(b)| over the quaternion characters.  unitization_checks
    stays None.  A sample_count whose stacks exceed SAMPLE_BUDGET_BYTES
    raises SampleBudgetExceeded before any stage runs.
    """
    config = config or PipelineConfig()
    check_sample_budget(config.sample_count, algebra.dim)
    report = VerificationReport(
        algebra_name=algebra.name,
        seminorm_kind=type(p).__name__,
        config={**_fields_dict(config),
                "max_square_iterates": MAX_SQUARE_ITERATES,
                "restarts": RESTARTS_ECHO},
        tolerances=stage_tolerances(config.tol),
    )
    note = _walk(report, algebra, p, config)
    if note is not None:
        report.notes.append(f"{note}; later stages skipped")
    report.verdict = compute_verdict(report)
    return report


@dataclass
class FuzzSummary:
    iterations: int
    seed: int
    tol: float
    checked: int = 0
    square_rejections: int = 0
    kind_counts: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return _fields_dict(self)


_FUZZ_SAMPLES = 24
_FUZZ_PARTS = {"R": corpus.reals, "C": corpus.complexes,
               "H": corpus.quaternions}
# the kinds of seminorm, in the order _random_instance draws them
_FUZZ_KINDS = ("character_sup", "spectral_radius", "coordinate_max")
# the instances whose checks are stacked at once: a constant, so that a call
# of any length holds one block's stacks, and at least the 50 instances of
# a benchmark op
_FUZZ_BLOCK = 64
# a stacked row has a slot of _WIDTH columns per summand, at most _SLOTS of
# them; a slot with no summand has the part _EMPTY, and a part has at most
# _PAIRS probes and basis pairs (H: 4 x 4)
_SLOTS, _WIDTH, _EMPTY = 3, 4, len(_FUZZ_PARTS)
_PAIRS = _WIDTH * _WIDTH


def _random_instance(rng, algebras):
    """One fuzz instance; `algebras` memoizes the immutable products by
    their kind tuple and the parts R, C and H by their letter, so every
    product is formed from one shared copy of each part, and a product's
    characters are read from its parts'.  The memo draws nothing from
    rng."""
    kinds = tuple(["R", "C", "H"][i]
                  for i in rng.integers(0, 3, rng.integers(1, 4)))
    algebra = algebras.get(kinds)
    if algebra is None:
        for k in kinds:
            if k not in algebras:
                algebras[k] = _FUZZ_PARTS[k]()
        algebra = algebras[kinds] = corpus.direct_sum(
            [algebras[k] for k in kinds])
    choice = int(rng.integers(0, 3))
    if choice == 0:
        chars = find_characters(algebra)
        keep = rng.random(len(chars)) < 0.7
        p = CharacterSup(chars[keep] if keep.any() else chars)
        kind = "character_sup"
    elif choice == 1:
        p = SpectralRadius()
        kind = "spectral_radius"
    else:
        if rng.random() < 0.3:
            weights = tuple([1.0] * algebra.dim)
        else:
            weights = tuple(rng.uniform(0.5, 2.0, algebra.dim))
        p = CoordinateMax(weights)
        kind = "coordinate_max"
    return algebra, p, kind


class _Layout(NamedTuple):
    """Where the instances of a product of R, C and H put their rows in a
    block's stacks."""

    part: np.ndarray      # (_SLOTS,): the part id of each slot
    columns: np.ndarray   # (dim,): the stack column of each coordinate
    squares: np.ndarray   # flat index in the square stack of each draw
    pairs: np.ndarray     # flat index in the pair stack of each draw


@functools.cache
def _layout(summands, n) -> _Layout:
    """The _Layout of a product of R, C and H whose summands are the
    (name, dim) pairs `summands`, in a block of n instances: summand s in
    slot s, its coordinates at the start of the slot.  Instance b of the
    block puts the square check's rows at .squares + b * _SLOTS * _WIDTH,
    and the ratio scan's at .pairs + b * _SLOTS * _WIDTH, in the order
    it draws them.  n is at most _FUZZ_BLOCK, so the cache is bounded."""
    part, columns = np.full(_SLOTS, _EMPTY), []
    for s, (name, dim) in enumerate(summands):
        part[s] = list(_FUZZ_PARTS).index(name)
        columns.extend(range(s * _WIDTH, s * _WIDTH + dim))
    columns = np.array(columns)
    row = n * _SLOTS * _WIDTH      # the stride of a stack row
    squares = (_PAIRS + np.arange(_FUZZ_SAMPLES))[:, None] * row + columns
    pairs = (_WIDTH + np.arange(2 * _FUZZ_SAMPLES))[:, None] * row + columns
    layout = _Layout(part, columns, squares.ravel(), pairs.ravel())
    for x in layout:    # shared by every block that has this layout
        x.setflags(write=False)
    return layout


class _Parts(NamedTuple):
    """The parts a fuzz call has built, with what the stacks read of them,
    indexed by part id (_EMPTY included, all 0) and padded with 0 to
    _PAIRS rows and _WIDTH columns."""

    built: list             # (id, part, the CharacterSup of its character)
    probes: np.ndarray      # (_EMPTY + 1, _PAIRS, _WIDTH): _square_probes
    squares: np.ndarray     # their squares
    basis: np.ndarray       # (_EMPTY + 1, _WIDTH, _WIDTH)
    table: np.ndarray       # (_EMPTY + 1, _WIDTH, _WIDTH, _WIDTH)


def _parts(algebras) -> _Parts:
    records = _Parts([], np.zeros((_EMPTY + 1, _PAIRS, _WIDTH)),
                     np.zeros((_EMPTY + 1, _PAIRS, _WIDTH)),
                     np.zeros((_EMPTY + 1, _WIDTH, _WIDTH)),
                     np.zeros((_EMPTY + 1,) + (_WIDTH,) * 3))
    for k, letter in enumerate(_FUZZ_PARTS):
        P = algebras.get(letter)
        if P is None:
            continue
        d = P.dim
        records.built.append((k, P, CharacterSup(find_characters(P))))
        records.probes[k, :d * d, :d], records.squares[k, :d * d, :d] = (
            _square_probes(P))
        records.basis[k, :d, :d] = np.eye(d)
        records.table[k, :d, :d, :d] = P.table
    return records


class _Block:
    """Fuzz instances, checked on stacks part by part.

    A stack of shape (rows, B, _SLOTS, _WIDTH) holds rows of each of the
    B instances, row-major, so that a range of rows is one contiguous
    stack; slot s of a row holds its coordinates on the s-th summand, a
    copy of R, C or H, and 0 past them.  A product is its summands'
    products, one per slot, and each fuzz seminorm on a row is the largest
    of one value per slot (values): the part's spectral radius, |x(a_s)|
    on a summand whose character the instance kept (R, C and H have one
    each) and 0 on the others, or the weighted max of |coordinate|.  So a
    stack takes one mul_coords_batch per part, and one
    SpectralRadius.values and one CharacterSup.values per part, on that
    part's slots of all instances: one index into the (rows B _SLOTS,
    _WIDTH) view of the stack."""

    def __init__(self, parts, part, kind, kept, weights):
        self.parts = parts      # the _Parts of the call
        self.part = part        # (B, _SLOTS): the part id of each slot
        self.kind = kind        # (B,): the index of the kind, _FUZZ_KINDS
        self.kept = kept        # (B, _SLOTS): the slots of kept characters
        self.weights = weights  # (B, _SLOTS, _WIDTH): coordinate_max's

    def take(self, rows) -> "_Block":
        return _Block(self.parts, self.part[rows], self.kind[rows],
                      self.kept[rows], self.weights[rows])

    @staticmethod
    def _slots(chosen, rows) -> np.ndarray:
        """Flat indices of the slots of a (rows, B, _SLOTS) stack where
        the (B, _SLOTS) mask chosen holds."""
        return np.flatnonzero(np.broadcast_to(chosen, (rows,) + chosen.shape))

    def products(self, A, B, out) -> None:
        """The row-wise products of the stacks A and B, written into the
        slots of the parts of out; all three contiguous."""
        a, b, ab = (x.reshape(-1, _WIDTH) for x in (A, B, out))
        for k, P, _ in self.parts.built:
            i = self._slots(self.part == k, len(A))
            if i.size:
                ab[i, :P.dim] = P.mul_coords_batch(a[i, :P.dim],
                                                   b[i, :P.dim])

    def values(self, Z) -> np.ndarray:
        """(rows, B, _SLOTS): p of each instance on each slot of its rows
        of the contiguous stack Z; p on a row is the largest of them."""
        V = np.zeros(Z.shape[:3])
        cm = self.kind == _FUZZ_KINDS.index("coordinate_max")
        # w |x| rounds once and a max is exact: CoordinateMax.values' bits
        Y = Z[:, cm]
        np.abs(Y, out=Y)
        Y *= self.weights[cm]
        V[:, cm] = Y.max(axis=3)
        sr = (self.kind == _FUZZ_KINDS.index("spectral_radius"))[:, None]
        flat, v = Z.reshape(-1, _WIDTH), V.reshape(-1)
        for k, P, sup in self.parts.built:
            on = self.part == k
            for p, chosen in ((SpectralRadius(), on & sr),
                              (sup, on & self.kept)):
                i = self._slots(chosen, len(Z))
                if i.size:
                    v[i] = p.values(P, flat[i, :P.dim])
        return V


def _residual(pa, pa2):
    """|p(a^2) - p(a)^2| / (1 + p(a)^2), as square_property_details
    reads it."""
    sq = pa ** 2
    return np.abs(pa2 - sq) / (1.0 + sq)


def _square_residuals(block, Z) -> np.ndarray:
    """Per instance of the block, the residual of check_square_property,
    read on the block's square stack Z, in which its random rows R are
    drawn (_stack_block): its rows are the probes, R, the probes' squares
    and R's.

    The probes are each summand's own, its part's _square_probes in its
    slot.  A probe 8 (e_i +- e_j) of the sum across two summands is left
    out: with x, y its values on the two and x2, y2 on their squares, its
    residual |max(x2, y2) - max(x, y)^2| / (1 + max(x, y)^2) is at most
    the larger of the residuals of 8 e_i and 8 e_j.  A probe lies in one
    summand, so p reads it on its slot alone."""
    m, parts = _PAIRS + _FUZZ_SAMPLES, block.parts
    Z[:_PAIRS] = parts.probes[block.part].transpose(2, 0, 1, 3)
    Z[m:m + _PAIRS] = parts.squares[block.part].transpose(2, 0, 1, 3)
    R = Z[_PAIRS:m]
    block.products(R, R, Z[m + _PAIRS:])
    V = block.values(Z)
    pa, pa2 = V[:m], V[m:]
    probes = _residual(pa[:_PAIRS], pa2[:_PAIRS])
    rows = _residual(pa[_PAIRS:].max(axis=2), pa2[_PAIRS:].max(axis=2))
    return np.maximum(probes.max(axis=(0, 2)), rows.max(axis=0))


def _ratios(block, Z) -> np.ndarray:
    """Per instance of the block, the ratio of check_submultiplicative,
    read on the block's pair stack Z, in which its random pairs (A, B)
    are drawn (_stack_block): p on the basis, A and B, then on the
    products of the pairs that clear the floor.

    A basis pair (e_i, e_j) across two summands has the product 0, and so
    the ratio 0; one inside a summand is its part's table row c[i, j]
    over p(e_i) p(e_j), under the same floor as in _ratio_scan."""
    S, parts, n = _FUZZ_SAMPLES, block.parts, Z.shape[1]
    Z[:_WIDTH] = parts.basis[block.part].transpose(2, 0, 1, 3)
    A, B = Z[_WIDTH:_WIDTH + S], Z[_WIDTH + S:]
    V = block.values(Z)
    pe = V[:_WIDTH]                            # [i, b, slot]: p(e_i)
    pa = V[_WIDTH:_WIDTH + S].max(axis=2)
    pb = V[_WIDTH + S:].max(axis=2)
    top = np.maximum(np.maximum(pe.max(axis=(0, 2)), pa.max(axis=0)),
                     pb.max(axis=0))
    floor = RATIO_FLOOR * (1.0 + np.maximum(top, 1.0)) ** 2
    pp = pe[:, None] * pe                      # [i, j, b, slot]
    basis = pp > floor[:, None]
    kept = pa * pb > floor
    Y = np.zeros((_PAIRS + S, n, _SLOTS, _WIDTH))
    np.divide(parts.table[block.part].transpose(2, 3, 0, 1, 4),
              pp[..., None], where=basis[..., None],
              out=Y[:_PAIRS].reshape(pp.shape + (_WIDTH,)))
    # each pair normalized to p = 1; a pair under the floor is left as drawn
    block.products(A / np.where(kept, pa, 1.0)[..., None, None],
                   B / np.where(kept, pb, 1.0)[..., None, None], Y[_PAIRS:])
    V = block.values(Y)
    on_basis = np.where(basis, V[:_PAIRS].reshape(pp.shape), 0.0)
    on_pairs = np.where(kept, V[_PAIRS:].max(axis=2), 0.0)
    return np.maximum(on_basis.max(axis=(0, 1, 3)), on_pairs.max(axis=0))


def _stack_block(seed, todo, algebras):
    """(block, squares, pairs, kinds) of the instances `todo`, with the
    memo `algebras` of _random_instance: their _Block, their square stack
    (2 (_PAIRS + _FUZZ_SAMPLES) rows, _square_residuals) and pair stack
    (_WIDTH + 2 _FUZZ_SAMPLES rows, _ratios), and the kind of each.  Each
    instance draws from default_rng([seed, i]) what the one-instance
    checks would, straight into the rows of the stacks that take it."""
    n = len(todo)
    part = np.full((n, _SLOTS), _EMPTY)
    kind = np.empty(n, dtype=int)
    kept = np.zeros((n, _SLOTS), dtype=bool)
    weights = np.zeros((n, _SLOTS * _WIDTH))
    squares = np.zeros((2 * (_PAIRS + _FUZZ_SAMPLES), n, _SLOTS, _WIDTH))
    pairs = np.zeros((_WIDTH + 2 * _FUZZ_SAMPLES, n, _SLOTS, _WIDTH))
    names = []
    for b, i in enumerate(todo):
        rng = np.random.default_rng([seed, i])
        algebra, p, name = _random_instance(rng, algebras)
        names.append(name)
        at = _layout(tuple((leaf.name, leaf.dim)
                           for _, leaf in algebra.summands), n)
        part[b], kind[b] = at.part, _FUZZ_KINDS.index(name)
        for stack, index in ((squares, at.squares), (pairs, at.pairs)):
            stack.reshape(-1)[index + b * _SLOTS * _WIDTH] = (
                rng.standard_normal(index.size))
        if name == "character_sup":   # the summands its characters read
            read = (np.asarray(p.characters) != 0).any(axis=(0, 2))
            kept[b, at.columns[read] // _WIDTH] = True
        elif name == "coordinate_max":
            weights[b, at.columns] = p.weights
    block = _Block(_parts(algebras), part, kind, kept,
                   weights.reshape(n, _SLOTS, _WIDTH))
    return block, squares, pairs, names


def _confirm(summary, i, config, algebras) -> None:
    """Instance i again, through check_square_property and
    check_submultiplicative on its replayed Generator, with the summary
    amended to what they give: a counterexample recorded with their
    numbers, or, should the square residual come out over tol after all,
    a rejection."""
    rng = np.random.default_rng([config.seed, i])
    algebra, p, kind = _random_instance(rng, algebras)
    residual = check_square_property(p, algebra, _FUZZ_SAMPLES, rng)
    if residual > config.tol:
        summary.checked -= 1
        summary.square_rejections += 1
        return
    ratio = check_submultiplicative(p, algebra, _FUZZ_SAMPLES, rng)
    if ratio > 1.0 + 10.0 * config.tol:
        summary.counterexamples.append({
            "iteration": i,
            "algebra": algebra.name,
            "seminorm": kind,
            "square_residual": residual,
            "ratio": ratio,
        })


def fuzz(config: PipelineConfig | None = None,
         iterations: int = 10000) -> FuzzSummary:
    """Randomized counterexample search over R/C/H products.

    Each instance runs the hypothesis check and the conclusion check; an
    instance with square residual within tolerance whose submultiplicativity
    ratio exceeds 1 + 10*tol is recorded as a counterexample (the theorem
    says there are none, so any hit is an artifact bug).  A character_sup
    instance keeps each character of find_characters with probability
    0.7 (all of them when that keeps none); R, C and H are built once per
    call.  Deterministic in the seed; iterations are independent, and each
    draws everything from one Generator, default_rng([seed, i]): its
    instance, then check_square_property's rows and
    check_submultiplicative's pairs, in that order.

    The checks run on blocks of _FUZZ_BLOCK instances, part by part
    (_Block): the square checks of a block's instances on one stack, then
    the ratio scans of those within tol on two.  They give the numbers of
    check_square_property and check_submultiplicative to a few ulps: a
    part's spectral radius takes its own scale, and its products sum in
    their own order.  A stacked ratio over the bound is a screen: the
    instance runs again through those two checks (_confirm), and the
    summary holds what they give.  A negative iterations raises
    ValueError; 0 checks nothing.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    config = config or PipelineConfig()
    summary = FuzzSummary(iterations=iterations, seed=config.seed,
                          tol=config.tol)
    algebras = {}
    for start in range(0, iterations, _FUZZ_BLOCK):
        todo = np.arange(start, min(start + _FUZZ_BLOCK, iterations))
        block, squares, pairs, names = _stack_block(config.seed, todo,
                                                    algebras)
        for name in names:
            summary.kind_counts[name] = summary.kind_counts.get(name, 0) + 1
        # a NaN residual is checked, as `residual > tol` decides one instance
        ok = ~(_square_residuals(block, squares) > config.tol)
        del squares     # freed before the ratio stage forms its stacks
        checked = int(ok.sum())
        summary.checked += checked
        summary.square_rejections += len(todo) - checked
        if not checked:
            continue
        ratios = _ratios(block.take(ok), pairs[:, ok])
        for i in todo[ok][ratios > 1.0 + 10.0 * config.tol]:
            _confirm(summary, int(i), config, algebras)
    return summary
