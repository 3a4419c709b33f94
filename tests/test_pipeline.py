import dataclasses
import json
import math

import numpy as np
import pytest

from squareprop import algebra, cli, corpus, pipeline
from squareprop.algebra import FiniteDimRealAlgebra, make_algebra
from squareprop.pipeline import (PipelineConfig, compute_verdict, fuzz,
                                 verify_theorem)
from squareprop.seminorm import (CharacterSup, ComponentSup, CoordinateMax,
                                 CoordinateSum, SpectralRadius,
                                 UnsupportedVariant,
                                 check_square_property,
                                 check_submultiplicative)

from oracles import CallableSeminorm, manifest_pair

QUICK = PipelineConfig(sample_count=400, seed=5)


def _run(pair_name):
    pair = next(p for p in corpus.MANIFEST if p.name == pair_name)
    algebra, p = manifest_pair(pair)
    return verify_theorem(algebra, p, QUICK)


def _regated(rep):
    """compute_verdict of the report as a consumer of its JSON reads it."""
    blob = json.loads(json.dumps(rep.to_dict()))
    return compute_verdict(pipeline.VerificationReport(**blob))


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(sample_count=0)
    with pytest.raises(ValueError):
        PipelineConfig(tol=2.0)


def test_pass_rrc_spectral_radius():
    rep = _run("rrc_spectral_radius")
    assert rep.verdict == "pass"
    assert rep.kernel_dim == 0
    assert rep.branch == "unital"
    assert rep.m_hat <= 1.0 + 1e-9


def test_pass_component_sup_with_kernel():
    rep = _run("rr_component_sup")
    assert rep.verdict == "pass"
    assert rep.kernel_dim == 1
    assert rep.quotient_dim == 1
    assert rep.final_submultiplicativity_ratio <= 1.0 + 1e-9


def test_hypothesis_not_met_l1_on_c():
    rep = _run("c_coordinate_sum")
    assert rep.verdict == "hypothesis_not_met"
    assert rep.square_property_residual >= 0.4
    assert rep.square_witness is not None
    assert rep.m_hat is None  # later stages skipped


def test_iterate_relation_residuals():
    rep = _run("h_character_sup")
    assert rep.verdict == "pass"
    assert len(rep.iterate_relation_residuals) == pipeline.MAX_SQUARE_ITERATES
    for n, res in enumerate(rep.iterate_relation_residuals, start=1):
        assert res <= 1e-8 * 2.0 ** n
    assert rep.radius_match_residual <= 1e-6


def test_nonunital_ambient_quotient_is_unital():
    rep = _run("nonunital3_component_sup")
    assert rep.verdict == "pass"
    assert rep.kernel_dim == 1
    assert rep.branch == "unital"


def test_unital_algebra_built_without_its_unit_passes():
    """H built by make_algebra without unit= finds its unit.  Its kernel
    is 0, so the quotient is H itself, and stage 8 reads H's unit; it used
    to get fail with the note "no unit was found"."""
    H = corpus.quaternions()
    A = make_algebra(4, H.labels, H.table)
    rep = verify_theorem(A, SpectralRadius())
    assert rep.verdict == _regated(rep) == "pass"
    assert rep.kernel_dim == 0 and rep.branch == "unital"
    assert np.abs(A.unit - H.unit).max() <= 1e-12


def test_quotient_without_a_unit_fails(monkeypatch):
    """A / Ker p without a radical has a unit; where the unit solve
    fails, verify stops after stage 4 with fail and a note (it used to
    pass on the unitization route)."""
    monkeypatch.setattr(algebra, "_solve_unit", lambda c: None)
    rep = _run("rr_component_sup")    # A / Ker p = R, which gives no unit
    assert rep.verdict == _regated(rep) == "fail"
    assert rep.branch is None and rep.character_count is None
    assert [n for n in rep.notes if "no unit was found" in n], rep.notes


def test_radical_without_a_square_defect_fails(monkeypatch):
    """A radical in A / Ker p whose squares show no defect (here a spurious
    one, an idempotent of R (+) R) is no pass either: verify stops after
    stage 4 with fail and a note."""
    monkeypatch.setattr(FiniteDimRealAlgebra, "radical",
                        property(lambda self: np.eye(self.dim)[:1]))
    rep = _run("rr_coordinate_max")
    assert rep.verdict == _regated(rep) == "fail"
    assert rep.quotient_dim == 2 and rep.branch is None
    assert [n for n in rep.notes if "has a radical, but" in n], rep.notes


def test_opaque_seminorm_rejected():
    rr = corpus.builtin("rr")
    p = CallableSeminorm(lambda a: float(np.abs(a.coords).max()))
    with pytest.raises(UnsupportedVariant):
        verify_theorem(rr, p, QUICK)


def test_report_serializable():
    rep = _run("rr_coordinate_max")
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    assert "verdict" in blob


def test_verdict_never_passes_on_injected_violation():
    rep = _run("rrc_spectral_radius")
    assert compute_verdict(rep) == "pass"
    for field, bad in [
        ("ideal_check", False),
        ("quotient_norm_well_defined_residual", 1e-3),
        ("normed_algebra_ratio", 1.5),
        ("scaled_norm_square_residual", 1e-3),
        ("iterate_relation_residuals", [1.0] * 10),
        ("radius_match_residual", 1e-2),
        ("character_count", 0),
        ("prop31_forward_ok", False),
        ("prop31_inclusion_ok", False),
        ("sup_bound_residual", 1e-2),
        ("sup_equality_residual", 1e-2),
        ("final_submultiplicativity_ratio", 1.1),
        ("m_hat", 1.5),
    ]:
        mutated = dataclasses.replace(rep, **{field: bad})
        assert compute_verdict(mutated) != "pass", field


@pytest.fixture(scope="module")
def rr_max_report():
    return _run("rr_coordinate_max")


@pytest.mark.parametrize("field, bad", [
    ("scaled_norm_square_residual", math.inf),
    ("radius_match_residual", math.nan),
    ("normed_algebra_ratio", -math.inf),
    ("iterate_relation_residuals", [0.0] * 9 + [math.nan]),
    ("sup_equality_residual", math.nan),
    ("final_submultiplicativity_ratio", -math.inf),
    ("m_hat", math.nan),
])
def test_verdict_fails_on_non_finite_residual(rr_max_report, field, bad):
    assert compute_verdict(rr_max_report) == "pass"
    mutated = dataclasses.replace(rr_max_report, **{field: bad})
    assert compute_verdict(mutated) == "fail"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verdict_hypothesis_not_met_on_non_finite_square_residual(
        rr_max_report, bad):
    """A seminorm maps into [0, inf), so a square residual that is NaN or
    inf means p failed the seminorm hypothesis, not that the theorem did:
    hypothesis_not_met, as verify_theorem and the CLI (exit 3) say."""
    mutated = dataclasses.replace(rr_max_report,
                                  square_property_residual=bad)
    assert compute_verdict(mutated) == "hypothesis_not_met"


@pytest.mark.parametrize("field, missing", [
    ("ideal_check", None),
    ("quotient_norm_well_defined_residual", None),
    ("normed_algebra_ratio", None),
    ("scaled_norm_square_residual", None),
    ("iterate_relation_residuals", []),
    ("radius_match_residual", None),
    ("character_count", None),
    ("prop31_forward_ok", None),
    ("prop31_inclusion_ok", None),
    ("sup_bound_residual", None),
    ("sup_equality_residual", None),
    ("final_submultiplicativity_ratio", None),
    ("m_hat", None),
    ("square_property_residual", None),
])
def test_verdict_fails_on_a_missing_residual(rr_max_report, field, missing):
    """No stage is skipped in silence: a residual left unset fails the
    verdict (a missing sup_equality_residual used to pass)."""
    assert compute_verdict(rr_max_report) == "pass"
    mutated = dataclasses.replace(rr_max_report, **{field: missing})
    assert compute_verdict(mutated) == "fail"


@pytest.mark.parametrize("pair", corpus.MANIFEST, ids=lambda c: c.name)
def test_manifest_reports_keep_the_branch_keys(pair):
    """Stage 8 has one branch: a report that reaches it says "unital", and
    unitization_checks stays in the JSON as null."""
    rep = verify_theorem(*manifest_pair(pair), QUICK)
    assert rep.verdict == pair.expected
    blob = rep.to_dict()
    assert blob["unitization_checks"] is None
    assert blob["branch"] == ("unital" if rep.character_count is not None
                              else None)


def _mutate(value):
    """Append to every list and add a key to every dict in value."""
    if isinstance(value, list):
        for v in value:
            _mutate(v)
        value.append("mutated")
    elif isinstance(value, dict):
        for v in value.values():
            _mutate(v)
        value["mutated"] = True


def _assert_dict_is_asdict(obj):
    """to_dict gives asdict's JSON byte for byte, and a caller that
    mutates its lists and dicts leaves the object as it was."""
    want = json.dumps(dataclasses.asdict(obj), sort_keys=True, indent=2)
    blob = obj.to_dict()
    assert json.dumps(blob, sort_keys=True, indent=2) == want
    _mutate(blob)
    assert json.dumps(dataclasses.asdict(obj), sort_keys=True,
                      indent=2) == want


@pytest.mark.parametrize("pair", corpus.MANIFEST, ids=lambda c: c.name)
def test_report_to_dict_is_asdict(pair):
    _assert_dict_is_asdict(verify_theorem(*manifest_pair(pair)))


def test_fuzz_summary_to_dict_is_asdict():
    summary = fuzz(PipelineConfig(seed=42), iterations=60)
    assert summary.kind_counts and summary.square_rejections
    summary.counterexamples.append({"iteration": 0, "ratio": 2.0})
    _assert_dict_is_asdict(summary)


def test_sample_budget_is_read_from_samples_and_dim():
    """Checked before anything is drawn: at dim 4 the largest count within
    the budget passes and one more is rejected.  The default 2000 fits on
    every manifest pair and up to H^64 (dim 256)."""
    budget = pipeline.SAMPLE_BUDGET_BYTES
    largest = budget // (8 * 4 * 4)   # the 4 x 4 left matrices dominate
    assert pipeline.sample_bytes(largest, 4) == budget
    pipeline.check_sample_budget(largest, 4)
    with pytest.raises(pipeline.SampleBudgetExceeded, match="samples"):
        pipeline.check_sample_budget(largest + 1, 4)
    default = PipelineConfig().sample_count
    for pair in corpus.MANIFEST:
        pipeline.check_sample_budget(default,
                                     corpus.builtin(pair.algebra_name).dim)
    pipeline.check_sample_budget(default, 256)
    rrc, p = corpus.builtin("rrc"), SpectralRadius()
    with pytest.raises(pipeline.SampleBudgetExceeded, match="samples"):
        verify_theorem(rrc, p, PipelineConfig(sample_count=10 ** 9))


def test_nan_square_residual_stops_at_stage_one():
    rr = corpus.builtin("rr")

    def max_abs_but_nan_at_8e0(a):   # 8 e_0 is one of the square probes
        if list(a.coords) == [8.0, 0.0]:
            return math.nan
        return float(np.abs(a.coords).max())

    rep = verify_theorem(rr, CallableSeminorm(max_abs_but_nan_at_8e0), QUICK)
    assert math.isnan(rep.square_property_residual)
    assert rep.square_witness == [8.0, 0.0]
    assert rep.verdict == _regated(rep) == "hypothesis_not_met"
    assert rep.m_hat is None  # later stages skipped


def _shorthand(pair):
    subset = pair.seminorm_args.get("subset")
    return pair.seminorm_kind + (f":{','.join(map(str, subset))}"
                                 if subset is not None else "")


# (algebra, seminorm, verdict): the radical stop and the spectral-radius
# axiom stop, which the JSON once re-gated to fail; C with a tiny l1 norm,
# whose square residual the 1 + p(a)^2 normaliser hides; a subnormal weight
# on R (+) R; a weight 1.01e-9 under 1, whose square residual is in tol
_INSTANCES = [
    ("nonunital3", "coordinate_max:1,1,1e-6", "hypothesis_not_met"),
    ("m2_reals", "spectral_radius", "hypothesis_not_met"),
    ("complexes", "coordinate_sum:1e-12,1e-12", "fail"),
    ("rr", "coordinate_max:1e-320,1", "fail"),
    ("rr", "coordinate_max:1,0.99999999899", "fail"),
] + [(c.algebra_name, _shorthand(c), c.expected) for c in corpus.MANIFEST]


@pytest.mark.parametrize("algebra, seminorm, verdict", _INSTANCES,
                         ids=[f"{a}-{s}" for a, s, _ in _INSTANCES])
def test_one_verdict_from_the_walk_the_json_and_the_exit_code(
        capsys, algebra, seminorm, verdict):
    """verify_theorem, compute_verdict on its JSON and the CLI's exit code
    give one verdict, and the CLI prints the report verify_theorem builds.
    The subnormal weight sends non-finite numbers through stage 4, an open
    fault of its own; its RuntimeWarnings are silenced here."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = cli.load_algebra(algebra)
        rep = verify_theorem(A, cli.load_seminorm(seminorm, A), QUICK)
        code = cli.run(["verify", "--algebra", algebra, "--seminorm", seminorm,
                        "--samples", str(QUICK.sample_count),
                        "--seed", str(QUICK.seed), "--format", "json"])
    assert rep.verdict == _regated(rep) == verdict
    assert code == {"pass": 0, "fail": 1, "hypothesis_not_met": 3}[verdict]
    assert capsys.readouterr().out == json.dumps(
        rep.to_dict(), sort_keys=True, indent=2) + "\n"


def test_one_verdict_on_fuzz_instances():
    rng, algebras, verdicts = np.random.default_rng(21), {}, set()
    for _ in range(200):
        algebra, p, _ = pipeline._random_instance(rng, algebras)
        rep = verify_theorem(algebra, p, QUICK)
        assert rep.verdict == _regated(rep), (algebra.name, p)
        verdicts.add(rep.verdict)
    assert verdicts == {"pass", "hypothesis_not_met"}


def test_fuzz_deterministic_and_clean():
    cfg = PipelineConfig(seed=42)
    a = fuzz(cfg, iterations=150)
    b = fuzz(cfg, iterations=150)
    assert a.to_dict() == b.to_dict()
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True)
    assert a.counterexamples == []
    assert a.checked + a.square_rejections == 150


def _fuzz_with_fresh_algebras(config, iterations):
    """fuzz's loop, building every instance's algebra anew."""
    summary = pipeline.FuzzSummary(iterations=iterations, seed=config.seed,
                                   tol=config.tol)
    for i in range(iterations):
        rng = np.random.default_rng([config.seed, i])
        algebra, p, kind = pipeline._random_instance(rng, {})
        summary.kind_counts[kind] = summary.kind_counts.get(kind, 0) + 1
        residual = check_square_property(p, algebra, pipeline._FUZZ_SAMPLES,
                                         rng)
        if residual > config.tol:
            summary.square_rejections += 1
            continue
        summary.checked += 1
        ratio = check_submultiplicative(p, algebra, pipeline._FUZZ_SAMPLES,
                                        rng)
        if ratio > 1.0 + 10.0 * config.tol:
            summary.counterexamples.append({
                "iteration": i, "algebra": algebra.name, "seminorm": kind,
                "square_residual": residual, "ratio": ratio})
    return summary


def test_fuzz_shared_algebras_match_fresh_ones(monkeypatch):
    built = []
    orig = corpus.direct_sum
    monkeypatch.setattr(corpus, "direct_sum",
                        lambda parts, **kw: built.append(1) or orig(parts, **kw))
    config = PipelineConfig(seed=42)
    shared = fuzz(config, iterations=500)
    n_shared = len(built)
    assert n_shared <= 39        # one per kind tuple of 1 to 3 of R, C, H
    fresh = _fuzz_with_fresh_algebras(config, 500)
    assert len(built) == n_shared + 500
    assert shared.to_dict() == fresh.to_dict()


def test_fuzz_reads_its_characters_from_find_characters(monkeypatch):
    """The character_sup instances take their characters from
    find_characters alone, and the summary is the one the closed form
    corpus.known_characters gave."""
    def closed_form(algebra):
        raise AssertionError("fuzz called corpus.known_characters")

    monkeypatch.setattr(corpus, "known_characters", closed_form)
    summary = fuzz(PipelineConfig(seed=42), iterations=2000)
    assert (summary.checked, summary.square_rejections,
            summary.counterexamples) == (1363, 637, [])
    assert summary.kind_counts["character_sup"] == 656


def test_fuzz_zero_iterations():
    summary = fuzz(PipelineConfig(seed=1), iterations=0)
    assert summary.checked == 0
    assert summary.counterexamples == []


def test_fuzz_rejects_a_negative_count():
    with pytest.raises(ValueError, match="iterations"):
        fuzz(PipelineConfig(seed=1), iterations=-3)


def test_character_sup_subset_still_passes():
    # any nonempty subset of characters keeps the square property
    hc = corpus.builtin("hc")
    chars = corpus.known_characters(hc)
    rep = verify_theorem(hc, CharacterSup((chars[0],)), QUICK)
    assert rep.verdict in ("pass", "fail")
    assert rep.square_property_residual <= 1e-9


def test_stage_tolerances_in_report():
    rep = _run("rr_coordinate_max")
    assert rep.tolerances == pipeline.stage_tolerances(QUICK.tol)


def test_kernel_that_is_no_ideal_fails_at_the_quotient(monkeypatch):
    """Stage 4's quotient is the one ideal check: a kernel that is not a
    two-sided ideal gives ideal_check False, a note and verdict fail, with
    no quotient built."""
    calls = []
    orig = pipeline.quotient

    def counted(algebra, V):
        calls.append(np.array(V))
        return orig(algebra, V)
    monkeypatch.setattr(pipeline, "quotient", counted)
    # span{(1, 1)}, the unit of R (+) R: (1, 1)(1, 0) = (1, 0) is outside
    monkeypatch.setattr(pipeline, "kernel",
                        lambda p, algebra: np.array([[1.0, 1.0]]))
    rep = _run("rr_coordinate_max")
    assert rep.kernel_dim == 1
    assert rep.ideal_check is False
    assert rep.verdict == _regated(rep) == "fail"
    assert rep.quotient_dim is None
    assert "computed kernel is not a two-sided ideal" in rep.notes
    assert len(calls) == 1


def test_verify_checks_the_kernel_ideal_once(monkeypatch):
    """verify_theorem tests Ker(p) for being an ideal once, inside the
    quotient of stage 4 (the parent checked it in stage 3 as well)."""
    from squareprop import algebra as algebra_mod
    pair = next(p for p in corpus.MANIFEST if p.name == "rr_component_sup")
    A, p = manifest_pair(pair)
    seen = []
    # the gate that quotient and subspace_is_two_sided_ideal both run
    orig = algebra_mod._absorbs

    def counted(algebra, V, Q):
        if algebra is A:    # not the checks of the quotient's own record
            seen.append(np.shape(V))
        return orig(algebra, V, Q)
    monkeypatch.setattr(algebra_mod, "_absorbs", counted)
    rep = verify_theorem(A, p, QUICK)
    assert rep.verdict == "pass" and rep.ideal_check is True
    assert seen == [(1, 2)]
