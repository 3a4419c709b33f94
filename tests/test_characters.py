import numpy as np
import pytest

from squareprop import characters, corpus
from squareprop.algebra import make_algebra
from squareprop.algebra import NotUnital
from squareprop.characters import (EmptyCharacterSet, Prop31Result,
                                   character_residual, check_prop31,
                                   find_characters, nonexistence_explanation,
                                   sampled_sup_norm)
from squareprop.quaternion import HAMILTON, qmul, qnorm
from squareprop.pipeline import PipelineConfig, verify_theorem
from squareprop.seminorm import SpectralRadius, kernel
from squareprop.spectral import spectrum

from oracles import full_spectrum_match, j_evaluate, random_unit_quaternion
from transforms import rotated


def test_residual_examples():
    rr = corpus.builtin("rr")
    proj = np.zeros((2, 4))
    proj[0, 0] = 1.0
    assert character_residual(rr, proj) == 0.0
    H = corpus.quaternions()
    assert character_residual(H, np.eye(4)) == 0.0
    bad = np.zeros((2, 4))
    bad[:, 0] = 1.0  # x(e1) = x(e2) = 1 but e1 e2 = 0
    assert character_residual(rr, bad) >= 1.0 / 3.0


def test_find_characters_rr():
    rr = corpus.builtin("rr")
    chars = find_characters(rr)
    assert len(chars) == 2
    firsts = sorted(round(float(c[0, 0])) for c in chars)
    assert firsts == [0, 1]  # the two coordinate projections
    for c in chars:
        assert character_residual(rr, c) <= 1e-11


def test_find_characters_h_conjugations():
    H = corpus.quaternions()
    chars = find_characters(H)
    assert len(chars) == 1  # one representative for the one H block
    (x,) = chars
    rng = np.random.default_rng(0)
    elements = [H.element(rng.standard_normal(4)) for _ in range(20)]
    for a in elements:
        assert qnorm(a.coords @ x) == pytest.approx(np.linalg.norm(a.coords),
                                                    rel=1e-9)
    # Skolem-Noether: every character of H is a conjugate u x u^-1, and
    # conjugating by a unit quaternion leaves |x(a)| unchanged
    for _ in range(20):
        u = random_unit_quaternion(rng)
        images = qmul(qmul(u, x),
                      u * np.array([1.0, -1.0, -1.0, -1.0]))
        assert character_residual(H, images) <= 1e-12
        for a in elements:
            assert np.linalg.norm(a.coords @ images) == pytest.approx(
                qnorm(a.coords @ x), rel=1e-12)


def test_find_characters_m2_empty():
    m2 = corpus.m2_reals()
    assert len(find_characters(m2)) == 0
    note = nonexistence_explanation(m2)
    assert note is not None and "E12" in note


@pytest.mark.parametrize("name, count", [
    ("hc", 2), ("nonunital3", 2), ("m2_reals", 0)])
def test_find_characters_is_one_read_only_stack(name, count):
    A = corpus.builtin(name)
    chars = find_characters(A)
    assert isinstance(chars, np.ndarray) and chars.dtype == float
    assert chars.shape == (count, A.dim, 4)
    assert not chars.flags.writeable
    with pytest.raises(ValueError):
        chars[...] = 0.0


def _record_block_characters(monkeypatch):
    """The algebras whose blocks give characters, in call order."""
    built = []
    orig = characters._block_characters
    monkeypatch.setattr(characters, "_block_characters",
                        lambda A: built.append(A) or orig(A))
    return built


def test_find_characters_deterministic(monkeypatch):
    """A second call on one algebra returns the kept stack itself and
    builds no block character."""
    hc = corpus.builtin("hc")
    a = find_characters(hc)
    built = _record_block_characters(monkeypatch)
    b = find_characters(hc)
    assert b is a
    assert built == []


def test_function_algebra_builds_its_part_characters_once(monkeypatch):
    """H^8 repeats one H: its characters, a second call, and H's own
    characters build H's character once, on H."""
    built = _record_block_characters(monkeypatch)
    A = corpus.function_algebra_H(8)
    (H,) = set(A._parts)
    assert len(find_characters(A)) == 8
    find_characters(A)
    (x,) = find_characters(H)
    assert built == [H]
    assert np.array_equal(find_characters(A)[:, :4].sum(axis=0), x)


def test_j_evaluate_examples():
    rr = corpus.builtin("rr")
    chars = corpus.known_characters(rr)
    vals = j_evaluate(rr.element([2, 3]), chars)
    assert sorted(q[0] for q in vals) == [2.0, 3.0]
    unit_vals = j_evaluate(rr.element(rr.unit), chars)
    assert all(qnorm(q) == pytest.approx(1.0) and q[0] == pytest.approx(1.0)
               for q in unit_vals)
    zero_vals = j_evaluate(rr.element(np.zeros(rr.dim)), chars)
    assert all(qnorm(q) == 0.0 for q in zero_vals)


def test_sampled_sup_norm():
    rr = corpus.builtin("rr")
    chars = corpus.known_characters(rr)
    assert sampled_sup_norm(rr.element([2, -3]), chars) == 3.0
    assert sampled_sup_norm(rr.element(np.zeros(rr.dim)), chars) == 0.0
    with pytest.raises(EmptyCharacterSet):
        sampled_sup_norm(rr.element([1, 1]), [])


def test_prop31_rr():
    rr = corpus.builtin("rr")
    chars = corpus.known_characters(rr)
    X = np.array([[2.0, 3.0], [-1.0, 0.5]])
    res = check_prop31(rr, X, chars)
    assert res.forward_ok and res.spectrum_inclusion_ok
    assert full_spectrum_match(rr, X, chars).tolist() == [True, True]
    # witnessed non-invertibility: the first projection vanishes at (0, 3);
    # the row is not invertible, so forward_ok does not look at it
    W = np.array([[2.0, 3.0], [0.0, 3.0]])
    assert check_prop31(rr, W, chars).forward_ok
    vals = j_evaluate(rr.element(W[1]), chars)
    assert min(qnorm(q) for q in vals) <= 1e-12


def test_prop31_quaternions():
    H = corpus.quaternions()
    chars = find_characters(H)
    X = np.array([[1.0, 1.0, 1.0, 1.0], [0.5, -2.0, 0.0, 3.0]])
    res = check_prop31(H, X, chars)
    assert res.forward_ok and res.spectrum_inclusion_ok
    assert full_spectrum_match(H, X, chars).all()


def test_prop31_flags_a_wrong_character_row_by_row():
    """Images that are no character: x(e_1) = 2 on R(+)R puts 4 outside
    sp((2, 3)) = {2, 3}, while at 0 both spectra are {0}."""
    rr = corpus.builtin("rr")
    bad = [np.array([[2.0, 0, 0, 0], [0, 0, 0, 0]])]
    X = np.array([[2.0, 3.0], [0.0, 0.0]])
    assert check_prop31(rr, X, bad) == Prop31Result(True, False)
    assert full_spectrum_match(rr, X, bad).tolist() == [False, True]
    # a value of 0 at an invertible element breaks invertibility transfer
    assert not check_prop31(rr, np.array([[0.0, 1.0], [1.0, 1.0]]),
                            [np.array([[0.0, 0, 0, 0], [0, 0, 0, 0]])]
                            ).forward_ok


def test_prop31_with_no_characters():
    """Both parts hold vacuously; no union of spectra can equal sp(a)."""
    rr = corpus.builtin("rr")
    X = np.random.default_rng(3).standard_normal((5, 2))
    assert check_prop31(rr, X, []) == Prop31Result(True, True)
    assert full_spectrum_match(rr, X, []).tolist() == [False] * 5


def test_prop31_needs_a_unit():
    A = corpus.builtin("nonunital3")
    with pytest.raises(NotUnital):
        check_prop31(A, np.ones((1, 3)), find_characters(A))


def test_spectral_bound_for_characters():
    rng = np.random.default_rng(6)
    for name in ("rr", "rrc", "quaternions", "hc"):
        A = corpus.builtin(name)
        chars = corpus.known_characters(A)
        for _ in range(30):
            a = A.element(rng.standard_normal(A.dim))
            r = spectrum(a).radius
            for q in j_evaluate(a, chars):
                assert qnorm(q) <= r + 1e-8


def test_known_characters_are_exact():
    for name in ("rr", "rrc", "quaternions", "hc", "h2"):
        A = corpus.builtin(name)
        for c in corpus.known_characters(A):
            assert character_residual(A, c) <= 1e-14


def test_known_characters_recognise_the_standard_tables():
    """R, C and H are recognised by their tables, whatever built them;
    any other table, a rotated H's included, is refused."""
    labels = ["1", "i", "j", "k"]
    H = make_algebra(4, labels, np.array(HAMILTON), name="H by hand")
    assert np.array_equal(corpus.known_characters(H),
                          corpus.known_characters(corpus.quaternions()))
    for A in (rotated(corpus.quaternions(), 0)[0], corpus.m2_reals(),
              corpus.direct_sum([corpus.m2_reals(), corpus.reals()])):
        with pytest.raises(ValueError):
            corpus.known_characters(A)


def test_sup_norm_matches_spectral_radius_on_products():
    rng = np.random.default_rng(8)
    for name in ("rr", "rrc", "hc", "h2"):
        A = corpus.builtin(name)
        chars = find_characters(A)
        assert len(chars) > 0
        for _ in range(30):
            a = A.element(rng.standard_normal(A.dim))
            r = spectrum(a).radius
            assert abs(sampled_sup_norm(a, chars) - r) <= 1e-6 * (1.0 + r)


def _upper_triangular_2x2():
    """T2(R) with basis E11, E12, E22; its radical is the line of E12."""
    table = {(0, 0, 0): 1.0, (0, 1, 1): 1.0, (1, 2, 1): 1.0, (2, 2, 2): 1.0}
    return make_algebra(3, ["E11", "E12", "E22"], table,
                        unit=[1.0, 0.0, 1.0], name="T2(R)")


def _check_characters(A, count, sup_is_radius=True):
    chars = find_characters(A)
    assert len(chars) == count
    assert all(character_residual(A, c) <= 1e-12 for c in chars)
    rng = np.random.default_rng(30)
    for _ in range(30):
        a = A.element(rng.standard_normal(A.dim))
        r = spectrum(a).radius
        sup = max((qnorm(q) for q in j_evaluate(a, chars)), default=0.0)
        if sup_is_radius:
            assert abs(sup - r) <= 1e-9 * (1.0 + r)
        else:
            assert sup <= r + 1e-9 * (1.0 + r)
    return chars


@pytest.mark.parametrize("A, count", [
    (rotated(corpus.builtin("hc"), 1)[0], 2),
    (rotated(corpus.function_algebra_H(4), 2)[0], 4),
    (_upper_triangular_2x2(), 2),
    (corpus.builtin("nonunital3"), 2),
], ids=["rotated_hc", "rotated_H4", "T2R", "nonunital3"])
def test_construction_exact_on_untagged_algebras(A, count):
    _check_characters(A, count)


def test_construction_t2_radical():
    assert kernel(SpectralRadius(), _upper_triangular_2x2()).shape[0] == 1


def test_construction_m2_plus_r():
    A = corpus.direct_sum([corpus.m2_reals(), corpus.reals()])
    (x,) = _check_characters(A, 1, sup_is_radius=False)
    a = A.element(np.random.default_rng(4).standard_normal(5))
    assert qnorm(a.coords @ x) == pytest.approx(abs(a.coords[4]), rel=1e-12)


def test_construction_rotated_m2_names_block():
    A = rotated(corpus.m2_reals(), 3)[0]
    _check_characters(A, 0, sup_is_radius=False)
    note = nonexistence_explanation(A)
    assert note is not None and "block 0" in note and "M2(R)" in note


@pytest.mark.parametrize("kind", ["spectral_radius", "character_sup"])
def test_verify_h12_passes(kind):
    A = corpus.function_algebra_H(12)
    rep = verify_theorem(A, corpus.make_seminorm(kind, {}, A),
                         PipelineConfig(sample_count=400))
    assert rep.verdict == "pass"
    assert rep.character_count == 12


@pytest.mark.parametrize("A, count", [
    (corpus.builtin("rr"), 2), (corpus.builtin("rrc"), 3),
    (corpus.builtin("hc"), 2), (corpus.builtin("h2"), 2),
    (corpus.function_algebra_H(8), 8),
    (corpus.direct_sum([corpus.nonunital_with_ideal(),
                        corpus.quaternions()]), 3),
], ids=["rr", "rrc", "hc", "h2", "H8", "nonunital3+H"])
def test_direct_sum_characters_are_its_parts(A, count):
    """One character per R, C or H block, each exactly 0 outside one part
    and gated on the sum; its sup is that of the characters built from
    the sum's own blocks."""
    chars = find_characters(A)
    own = np.array(list(characters._block_characters(A)))
    assert len(chars) == len(own) == count
    assert count == sum(b.division for b in A.simple_blocks) - (
        not A.is_unital)   # the hull's extra block kills A
    ends = np.cumsum([0] + [part.dim for part in A._parts])
    for x in chars:
        support = [k for k in range(len(A._parts))
                   if np.any(x[ends[k]:ends[k + 1]] != 0.0)]
        assert len(support) == 1
        outside = np.ones(A.dim, dtype=bool)
        outside[ends[support[0]]:ends[support[0] + 1]] = False
        assert np.all(x[outside] == 0.0)
        assert character_residual(A, x) <= 1e-11
    X = np.random.default_rng(31).standard_normal((100, A.dim))
    sup = qnorm(np.einsum("sn,mnq->smq", X, chars)).max(axis=1)
    sup_own = qnorm(np.einsum("sn,mnq->smq", X, own)).max(axis=1)
    assert np.abs(sup - sup_own).max() <= 1e-12 * (1.0 + sup_own.max())
