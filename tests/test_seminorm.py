import json

import numpy as np
import pytest

from squareprop import algebra as algebra_mod
from squareprop import corpus
from squareprop.algebra import (make_algebra, subspace_is_two_sided_ideal,
                                unitize)
from squareprop.seminorm import (CharacterSup, ComponentSup, CoordinateMax,
                                 CoordinateSum, OperatorNorm,
                                 PayloadMismatch, SpectralRadius,
                                 UnsupportedVariant, _nullspace,
                                 check_square_property,
                                 check_submultiplicative, estimate_m, kernel,
                                 square_property_details)

from oracles import CallableSeminorm, twisted
from transforms import rotated


def _identity_char_sup():
    H = corpus.quaternions()
    return H, CharacterSup(tuple(corpus.known_characters(H)))


def test_evaluate_examples():
    H, p = _identity_char_sup()
    assert p.value(H.element([1, 1, 1, 1])) == pytest.approx(2.0)
    rr = corpus.builtin("rr")
    assert ComponentSup((0,)).value(rr.element([0, 7])) == 0.0
    assert CoordinateMax((1.0, 1.0)).value(rr.element([2, -3])) == 3.0


def test_payload_mismatch():
    rr = corpus.builtin("rr")
    with pytest.raises(PayloadMismatch):
        CoordinateMax((1.0, 1.0, 1.0)).check_payload(rr)
    with pytest.raises(PayloadMismatch):
        ComponentSup((5,)).check_payload(rr)


def test_seminorm_axioms_random():
    rng = np.random.default_rng(0)
    rrc = corpus.builtin("rrc")
    variants = [SpectralRadius(), CoordinateMax(None), CoordinateSum(None),
                OperatorNorm(), ComponentSup((0, 2))]
    for p in variants:
        for _ in range(50):
            a = rrc.element(rng.standard_normal(4))
            b = rrc.element(rng.standard_normal(4))
            k = float(rng.standard_normal())
            pa, pb = p.value(a), p.value(b)
            assert pa >= 0.0
            assert p.value(k * a) == pytest.approx(abs(k) * pa, rel=1e-12,
                                                   abs=1e-12)
            a_plus_b = rrc.element(a.coords + b.coords)
            assert p.value(a_plus_b) <= pa + pb + 1e-10 * (1.0 + pa + pb)


def test_square_property_positive_cases():
    rrc = corpus.builtin("rrc")
    assert check_square_property(SpectralRadius(), rrc, 500, 1) <= 1e-10
    H, p = _identity_char_sup()
    assert check_square_property(p, H, 500, 1) <= 1e-12


def test_square_property_l1_failure():
    C = corpus.complexes()
    details = square_property_details(CoordinateSum(None), C, 500, 1)
    assert details.residual >= 0.4
    # the classical witness: p((1+i)^2) = 2 but p(1+i)^2 = 4
    a = C.element([1.0, 1.0])
    p = CoordinateSum(None)
    assert p.value(a * a) == pytest.approx(2.0)
    assert p.value(a) ** 2 == pytest.approx(4.0)


def test_submultiplicative_examples():
    H, p = _identity_char_sup()
    assert check_submultiplicative(p, H, 500, 1) == pytest.approx(1.0, abs=1e-12)
    rr = corpus.builtin("rr")
    assert check_submultiplicative(SpectralRadius(), rr, 500, 1) <= 1.0 + 1e-12
    m2 = corpus.m2_reals()
    assert check_submultiplicative(OperatorNorm(), m2, 500, 1) <= 1.0 + 1e-10


def test_estimate_m():
    rr = corpus.builtin("rr")
    est = estimate_m(CoordinateMax(None), rr, 500, 1)
    assert est.m_hat == pytest.approx(1.0, abs=1e-9)
    C = corpus.complexes()
    assert estimate_m(CoordinateSum(None), C, 500, 1).m_hat <= 1.0 + 1e-12
    scaled = CoordinateMax((2.0, 2.0))
    est = estimate_m(scaled, rr, 500, 1)
    assert est.m_hat == pytest.approx(0.5, abs=1e-12)
    a, b = est.pair
    pa = scaled.value(rr.element(a))
    pb = scaled.value(rr.element(b))
    pab = scaled.value(rr.element(rr.mul_coords(a, b)))
    assert pab / (pa * pb) == pytest.approx(est.m_hat, rel=1e-9)


def test_kernels():
    rr = corpus.builtin("rr")
    K = kernel(ComponentSup((0,)), rr)
    assert K.shape == (1, 2)
    assert abs(abs(K[0, 1]) - 1.0) <= 1e-12 and abs(K[0, 0]) <= 1e-12
    H, p = _identity_char_sup()
    assert kernel(p, H).shape[0] == 0
    assert kernel(CoordinateMax((1.0, 1.0)), rr).shape[0] == 0
    assert kernel(CoordinateMax((1.0, 0.0)), rr).shape[0] == 1
    assert kernel(OperatorNorm(), rr).shape[0] == 0


def test_spectral_radius_kernel():
    # commutative semisimple: trivial kernel
    rrc = corpus.builtin("rrc")
    assert kernel(SpectralRadius(), rrc).shape[0] == 0
    # R + null line: the radius vanishes exactly on the null direction
    A = corpus.nonunital_with_ideal()
    K = kernel(SpectralRadius(), A)
    assert K.shape[0] == 1
    assert np.allclose(np.abs(K[0]), [0, 0, 1])
    assert subspace_is_two_sided_ideal(A, K)


def test_kernel_ideal_when_square_property_holds():
    rr = corpus.builtin("rr")
    for p in (ComponentSup((0,)), ComponentSup((1,)), CoordinateMax(None)):
        if check_square_property(p, rr, 200, 0) <= 1e-9:
            assert subspace_is_two_sided_ideal(rr, kernel(p, rr))


def test_quotient_value_constant_on_cosets():
    rr = corpus.builtin("rr")
    p = ComponentSup((0,))
    K = kernel(p, rr)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a = rng.standard_normal(2)
        k = K.T @ rng.standard_normal(1)
        pa = p.value(rr.element(a))
        assert abs(p.value(rr.element(a + k)) - pa) <= 1e-10 * (1.0 + pa)


def test_opaque_escape_hatch():
    rr = corpus.builtin("rr")
    p = CallableSeminorm(lambda a: float(np.abs(a.coords).max()))
    assert p.value(rr.element([2, -3])) == 3.0
    with pytest.raises(UnsupportedVariant):
        kernel(p, rr)


def test_character_sup_payload_forms_agree():
    """The (m, n, 4) stack, a tuple of its (n, 4) rows and the nested lists
    a seminorm file holds give the same values, bit for bit."""
    H2 = corpus.builtin("h2")
    rng = np.random.default_rng(21)
    chars = twisted(corpus.known_characters(H2), range(2), rng)
    X = rng.standard_normal((40, H2.dim))
    want = CharacterSup(chars).values(H2, X)
    for form in (tuple(chars), json.loads(json.dumps(chars.tolist()))):
        assert np.array_equal(CharacterSup(form).values(H2, X), want)


def test_character_sup_rejects_empty():
    rr = corpus.builtin("rr")
    with pytest.raises(PayloadMismatch):
        CharacterSup(()).check_payload(rr)


def _specials(rows, cols, seed):
    """rows x cols of normals at scales 1e-300 to 1e300, with about a
    third of the entries NaN, -NaN, +-inf or +-0."""
    rng = np.random.default_rng(seed)
    X = (rng.standard_normal((rows, cols))
         * 10.0 ** rng.integers(-300, 301, (rows, cols)))
    mask = rng.random((rows, cols)) < 0.3
    X[mask] = rng.choice([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0],
                         int(mask.sum()))
    return X


@pytest.mark.parametrize("name, p", [
    ("reals", CoordinateMax()),
    ("reals", CoordinateMax((0.0,))),
    ("nonunital3", CoordinateMax()),
    ("nonunital3", CoordinateMax((0.0, 2.5, 1e300))),
    ("nonunital3", ComponentSup((0, 2))),
    ("h2", CoordinateMax((0.0, 1.0, 1e-300, 3.0, 0.0, 1.0, 0.5, 2.0))),
    ("h2", ComponentSup((1, 4, 7))),
])
@pytest.mark.parametrize("rows", [0, 1, 2, 500])
def test_coordinate_max_values_are_the_row_major_max(name, p, rows):
    """values reduces block-major; it gives the row-major
    (w |X|).max(axis=1) bit for bit wherever that is not NaN, and NaN where
    it is, 0 * inf included.  Only a NaN's sign may differ: NumPy's max
    over a row returns a NaN of its own, where the block-major max keeps
    the one it met."""
    A = corpus.builtin(name)
    w = p._w(A)
    with np.errstate(invalid="ignore", over="ignore"):
        for seed in range(5):
            X = _specials(rows, A.dim, seed)
            want = (w * np.abs(X)).max(axis=1)
            got = p.values(A, X)
            assert got.shape == (rows,)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            kept = ~np.isnan(want)
            assert got[kept].tobytes() == want[kept].tobytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_coordinate_max_rejects_non_finite_weights(bad):
    rr = corpus.builtin("rr")
    with pytest.raises(PayloadMismatch):
        CoordinateMax((bad, 1.0)).check_payload(rr)


def test_character_sup_kernel_wide_matrix():
    # one character on H^2 gives a 4 x 8 matrix whose kernel is the second
    # H summand; a thin SVD of a wide matrix would drop it
    H2 = corpus.builtin("h2")
    K = kernel(CharacterSup((corpus.known_characters(H2)[0],)), H2)
    assert K.shape == (4, 8)
    assert np.allclose(K[:, :4], 0.0, atol=1e-12)
    # no character: an empty constraint matrix, whose kernel is all of A
    assert np.array_equal(CharacterSup(np.zeros((0, 2, 4))).kernel(
        corpus.complexes()), np.eye(2))


def _radical_by_loop(algebra):
    """Reference for SpectralRadius.kernel: the Dickson matrix
    M[i, j] = tr(L_(x_i e_j)) built entry by entry in the unital hull."""
    hull = algebra if algebra.is_unital else unitize(algebra)
    pad = hull.dim - algebra.dim
    M = np.zeros((algebra.dim, hull.dim))
    for i in range(algebra.dim):
        xi = np.concatenate([np.zeros(pad), np.eye(algebra.dim)[i]])
        for j in range(hull.dim):
            prod = hull.mul_coords(xi, np.eye(hull.dim)[j])
            M[i, j] = np.trace(np.einsum("i,ijk->kj", prod, hull.table))
    return _nullspace(M.T)


def _h4_nonunital3_rotated():
    """H^4 (+) nonunital3 in the dense basis of rotated(., 3), dim 19: the
    algebra the tier-1 CI verifies from a file."""
    base = corpus.direct_sum([corpus.quaternions()] * 4
                             + [corpus.nonunital_with_ideal()])
    return rotated(base, 3)[0]


@pytest.mark.parametrize("parts, seed", [(["T2", "hc"], 12),
                                         (["nonunital3"], 12),
                                         (["quaternions"] * 4
                                          + ["nonunital3"], 3)],
                         ids=["T2_plus_hc", "nonunital3",
                              "H4_plus_nonunital3"])
def test_spectral_radius_kernel_matches_loop_on_rotated_algebra(parts, seed):
    # each has a 1-dim radical: the line of E12, or the null line
    t2 = make_algebra(3, ["E11", "E12", "E22"],
                      {(0, 0, 0): 1.0, (0, 1, 1): 1.0, (1, 2, 1): 1.0,
                       (2, 2, 2): 1.0}, unit=[1.0, 0.0, 1.0])
    base = corpus.direct_sum([t2 if name == "T2" else corpus.builtin(name)
                              for name in parts])
    n = base.dim
    A, _ = rotated(base, seed)
    K = kernel(SpectralRadius(), A)
    ref = _radical_by_loop(A)
    assert K.shape == ref.shape == (1, n)
    assert np.allclose(K.T @ K, ref.T @ ref, atol=1e-10)


@pytest.mark.parametrize("make", [lambda: corpus.builtin("nonunital3"),
                                  _h4_nonunital3_rotated],
                         ids=["nonunital3", "H4_plus_nonunital3_rotated"])
def test_radical_solves_for_no_unit_and_builds_no_hull(monkeypatch, make):
    """Dickson's criterion reads A's own table: on a non-unital A the
    radical neither solves for a unit nor builds the unitization."""
    A = make()
    calls = []
    for name in ("_solve_unit", "unitize"):
        orig = getattr(algebra_mod, name)
        monkeypatch.setattr(algebra_mod, name, lambda *args, name=name,
                            orig=orig: calls.append(name) or orig(*args))
    assert A.radical.shape == (1, A.dim)
    assert calls == []
    assert "unit" not in vars(A) and "_quotients" not in vars(A)


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("name", corpus.builtin_names())
def test_coordinate_sum_m_hat_is_the_exact_supremum(name, weighted):
    """The l1 ball's vertices are +-e_i / w_i and p(ab) is bilinear, so
    sup p(ab) / (p(a) p(b)) = max_ij sum_k w_k |c_ijk| / (w_i w_j), reached
    on a basis pair: the basis sweep makes estimate_m exact, and no
    sampled ratio exceeds it."""
    A = corpus.builtin(name)
    w = (np.random.default_rng(A.dim).uniform(0.5, 2.0, A.dim) if weighted
         else np.ones(A.dim))
    exact = (np.abs(A.table) @ w / np.outer(w, w)).max()
    p = CoordinateSum(tuple(w))
    for seed in range(3):
        m_hat = estimate_m(p, A, 2000, seed).m_hat
        assert m_hat == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert check_submultiplicative(p, A, 2000, seed + 10) <= (
            exact * (1.0 + 1e-12))
