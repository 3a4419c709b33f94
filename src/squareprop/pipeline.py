"""End-to-end verification of the submultiplicativity proof chain.

verify_theorem walks, on one (algebra, seminorm) pair: square property
(and, for the spectral radius, whether it is a seminorm at all), working
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
looking for a counterexample the theorem says cannot exist.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import corpus
from .algebra import FiniteDimRealAlgebra, NotAnIdeal, quotient
from .characters import (check_prop31, find_characters, non_division_block,
                         nonexistence_explanation)
from .quaternion import random_unit_quaternion
from .seminorm import (CharacterSup, CoordinateMax, SeminormVariant,
                       SpectralRadius, check_square_property,
                       check_submultiplicative, estimate_m, kernel,
                       square_property_details)
from .spectral import gelfand_radius, log_square_norms


class VanishingSeminorm(ValueError):
    """p vanishes on all of A, so the quotient by its kernel is 0."""


@dataclass(frozen=True)
class PipelineConfig:
    sample_count: int = 2000
    seed: int = 0
    tol: float = 1e-9
    restarts: int = 50
    max_square_iterates: int = 10

    def __post_init__(self):
        for name in ("sample_count", "restarts", "max_square_iterates"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
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
        return asdict(self)


def compute_verdict(r: VerificationReport) -> str:
    """Pure residual-vs-tolerance gate; never passes a stage over budget,
    nor one whose residual is missing or not finite."""
    t = r.tolerances

    def within(x, bound):
        return x is not None and math.isfinite(x) and x <= bound

    sq = r.square_property_residual
    if sq is None or not math.isfinite(sq):
        return "fail"
    if sq > t["square_property"]:
        return "hypothesis_not_met"
    iterates = r.iterate_relation_residuals
    checks = [
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
    """Why stage 8 cannot run on Q = qm.algebra, as (verdict, note); None
    when Q has a unit and no radical.  For a radical row b of Q, the first
    of the squares c = b, b^2, b^4, ... with |p(c^2) - p(c)^2| > tol p(c)^2,
    p read on the lifts to A, is the witness."""
    Q = qm.algebra
    if not Q.radical.shape[0]:
        return None if Q.is_unital else (
            "fail", "A / Ker p has no radical, but no unit was found")
    c = Q.element(Q.radical[0])
    powers = [c.coords]
    for _ in range(Q.dim.bit_length() + 1):
        c = c * c
        powers.append(c.coords)
    lifts = np.array(powers) @ qm.lift.T
    v = p.values(algebra, lifts)
    for k, (pc, pc2) in enumerate(zip(v, v[1:])):
        if abs(pc2 - pc * pc) > tol * pc * pc:
            return "hypothesis_not_met", (
                f"A / Ker p has a radical: b = {lifts[0].tolist()} is "
                f"nilpotent, and c = b^{2 ** k} has p(c) = {pc:.6g} but "
                f"p(c^2) = {pc2:.6g}, not p(c)^2 = {pc * pc:.6g}, so the "
                "square property fails")
    return "fail", ("A / Ker p has a radical, but no square of its first "
                    "row shows p(c^2) != p(c)^2")


def verify_theorem(algebra: FiniteDimRealAlgebra, p: SeminormVariant,
                   config: PipelineConfig | None = None) -> VerificationReport:
    """Walk the proof chain on (algebra, p) and gate every residual.

    A radical in A / Ker p ends the walk after stage 4: hypothesis_not_met
    with the power of a radical row where p(c^2) != p(c)^2, or fail when no
    power shows it.  So does a quotient without a unit (fail).  Stage 8 sets
    sup_equality_residual whenever a character exists: on A / Ker p,
    p(b) = max |x(b)| over the quaternion characters.  unitization_checks
    stays None.
    """
    config = config or PipelineConfig()
    report = VerificationReport(
        algebra_name=algebra.name,
        seminorm_kind=type(p).__name__,
        config=asdict(config),
        tolerances=stage_tolerances(config.tol),
    )
    rng = np.random.default_rng(config.seed + 7)

    # 1. square property
    sq = square_property_details(p, algebra, config.sample_count, config.seed)
    report.square_property_residual = sq.residual
    report.square_witness = [float(v) for v in sq.witness]
    if not sq.residual <= config.tol:
        report.notes.append(
            f"square property fails: residual {sq.residual:.6g} at the "
            f"recorded witness; later stages skipped")
        report.verdict = "hypothesis_not_met"
        return report
    # r is a seminorm iff every simple block of A/rad(A) is R, C or H: an
    # M_k(D) block with k >= 2 holds nilpotents x, y with r(x + y) > 0
    if isinstance(p, SpectralRadius):
        bad = non_division_block(algebra)
        if bad is not None:
            report.notes.append(
                f"the spectral radius is not a seminorm: block {bad[0]} of "
                f"A/rad(A) is {bad[1]}, not R, C or H; later stages skipped")
            report.verdict = "hypothesis_not_met"
            return report

    # 2. working constant
    m = estimate_m(p, algebra, config.sample_count, config.seed + 1)
    m_hat = report.m_hat = m.m_hat
    report.m_hat_pair = [list(map(float, m.pair[0])), list(map(float, m.pair[1]))]

    # 3. kernel is a two-sided ideal; 4. the quotient by it, which checks
    # that once, and well-definedness of the induced norm
    K = kernel(p, algebra)
    report.kernel_dim = int(K.shape[0])
    if K.shape[0] == algebra.dim:
        raise VanishingSeminorm(
            f"p vanishes on all of {algebra.name}, so no quotient is left "
            "to check")
    try:
        qm = quotient(algebra, K)
    except NotAnIdeal:             # the verdict stays "fail"
        report.ideal_check = False
        report.notes.append("computed kernel is not a two-sided ideal")
        return report
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
        report.verdict, note = stop
        report.notes.append(f"{note}; later stages skipped")
        return report

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
    residuals = [0.0] * config.max_square_iterates
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
        return asdict(self)


_FUZZ_SAMPLES = 24


def _random_instance(rng, algebras):
    """One fuzz instance; `algebras` memoizes the immutable products by
    their kind tuple, which draws nothing from rng."""
    kinds = tuple(["R", "C", "H"][i]
                  for i in rng.integers(0, 3, rng.integers(1, 4)))
    algebra = algebras.get(kinds)
    if algebra is None:
        parts = {"R": corpus.reals, "C": corpus.complexes,
                 "H": corpus.quaternions}
        algebra = algebras[kinds] = corpus.direct_sum(
            [parts[k]() for k in kinds])
    choice = int(rng.integers(0, 3))
    if choice == 0:
        twists = {i: random_unit_quaternion(rng)
                  for i, (k, _) in enumerate(algebra.components)
                  if k != "R" and rng.random() < 0.5}
        chars = corpus.known_characters(algebra, twists)
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


def fuzz(config: PipelineConfig | None = None,
         iterations: int = 10000) -> FuzzSummary:
    """Randomized counterexample search over R/C/H products.

    Each instance runs the hypothesis check and the conclusion check; an
    instance with square residual within tolerance whose submultiplicativity
    ratio exceeds 1 + 10*tol is recorded as a counterexample (the theorem
    says there are none, so any hit is an artifact bug).  Deterministic in
    the seed; iterations are independent.
    """
    config = config or PipelineConfig()
    summary = FuzzSummary(iterations=iterations, seed=config.seed,
                          tol=config.tol)
    algebras = {}
    for i in range(iterations):
        rng = np.random.default_rng([config.seed, i])
        algebra, p, kind = _random_instance(rng, algebras)
        summary.kind_counts[kind] = summary.kind_counts.get(kind, 0) + 1
        inst_seed = int(rng.integers(0, 2 ** 31))
        residual = check_square_property(p, algebra, _FUZZ_SAMPLES, inst_seed)
        if residual > config.tol:
            summary.square_rejections += 1
            continue
        summary.checked += 1
        ratio = check_submultiplicative(p, algebra, _FUZZ_SAMPLES,
                                       inst_seed + 1)
        if ratio > 1.0 + 10.0 * config.tol:
            summary.counterexamples.append({
                "iteration": i,
                "algebra": algebra.name,
                "seminorm": kind,
                "square_residual": residual,
                "ratio": ratio,
            })
    return summary
