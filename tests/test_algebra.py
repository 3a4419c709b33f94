import numpy as np
import pytest

from squareprop import corpus
from squareprop.algebra import (AlgebraError, AlgebraMismatch,
                                AssociativityViolation, BadUnit,
                                NotAnIdeal, NotUnital, _solve_unit,
                                left_regular_matrix, make_algebra, mul,
                                quotient, subspace_is_two_sided_ideal, unitize)

from oracles import is_invertible
from transforms import in_basis, skew


def test_complexes_accepted_with_unit():
    C = corpus.complexes()
    assert C.is_unital
    assert np.allclose(C.unit, [1.0, 0.0])


def test_quaternions_accepted():
    corpus.quaternions()


def test_associativity_violation_reported():
    # e1 e1 = e2, e2 e1 = e1: (e1 e1) e1 = e1 but e1 (e1 e1) = e1 e2 = 0
    with pytest.raises(AssociativityViolation):
        make_algebra(2, ["a", "b"], {(0, 0, 1): 1.0, (1, 0, 0): 1.0})


def test_mul_examples():
    rr = corpus.builtin("rr")
    assert np.allclose(mul(rr.element([2, 3]), rr.element([5, 7])).coords,
                       [10, 21])
    C = corpus.complexes()
    assert np.allclose(mul(C.element([0, 1]), C.element([0, 1])).coords,
                       [-1, 0])
    m2 = corpus.m2_reals()
    e12, e21 = m2.element([0, 1, 0, 0]), m2.element([0, 0, 1, 0])
    assert np.allclose(mul(e12, e21).coords, [1, 0, 0, 0])


def test_mul_mismatch():
    rr = corpus.builtin("rr")
    with pytest.raises(AlgebraMismatch):
        mul(rr.element([1, 0]), corpus.complexes().element([1, 0]))


def test_left_regular_matrix_examples():
    C = corpus.complexes()
    assert np.allclose(left_regular_matrix(C.element(C.unit)), np.eye(2))
    assert np.allclose(left_regular_matrix(C.element([0, 1])),
                       [[0, -1], [1, 0]])
    rr = corpus.builtin("rr")
    assert np.allclose(left_regular_matrix(rr.element([2, 3])),
                       np.diag([2.0, 3.0]))


def test_left_regular_is_homomorphism():
    rng = np.random.default_rng(3)
    for name in ("rr", "rrc", "quaternions", "m2_reals", "hc"):
        A = corpus.builtin(name)
        for _ in range(50):
            a = A.element(rng.standard_normal(A.dim))
            b = A.element(rng.standard_normal(A.dim))
            lhs = left_regular_matrix(mul(a, b))
            rhs = left_regular_matrix(a) @ left_regular_matrix(b)
            scale = (1 + np.abs(a.coords).max()) * (1 + np.abs(b.coords).max())
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_is_invertible():
    rr = corpus.builtin("rr")
    assert is_invertible(rr.element([2, 3]))
    assert not is_invertible(rr.element([0, 3]))
    m2 = corpus.m2_reals()
    assert not is_invertible(m2.element([0, 1, 0, 0]))  # nilpotent E12


def test_is_invertible_needs_unit():
    A = corpus.nonunital_with_ideal()
    with pytest.raises(NotUnital):
        is_invertible(A.element([1, 1, 1]))


def test_find_unit():
    assert np.allclose(_solve_unit(corpus.quaternions().table), [1, 0, 0, 0])
    null = make_algebra(1, ["n"], {})  # one-dim null product
    assert not null.is_unital   # its least-squares unit fails the unit gate


@pytest.mark.parametrize("k", range(-8, 9))
def test_rescaled_algebra_finds_its_unit(k):
    """hc in the basis 10^k e_i, built without a unit, finds its unit 10^-k
    e: the unit gate is relative to the size of the products u e_j."""
    H = corpus.builtin("hc")
    A = make_algebra(H.dim, H.labels, H.table * 10.0 ** k)
    assert A.is_unital
    assert np.abs(A.unit * 10.0 ** k - H.unit).max() <= 1e-12


def test_algebra_without_a_unit_finds_none():
    """nonunital3, built without a unit, in its own basis and in a skewed
    one, has no unit: the least-squares solution fails the gate."""
    N = corpus.builtin("nonunital3")
    for S in (np.eye(3), skew(3)):
        A = in_basis(N, S)
        assert not A.is_unital and A.unit is None
        assert A.hull.dim == 4


@pytest.mark.parametrize("k", range(-8, 9))
def test_mixed_scale_algebra_without_a_unit_finds_none(k):
    """nonunital3 in the basis diag(10^k, 10^-k, 1), built without a unit,
    has none.  Its least-squares solution has a large component that
    multiplies only small entries, or only zeros; the gate is set by the
    terms the products add up, so that component does not widen it."""
    N = corpus.builtin("nonunital3")
    A = in_basis(N, np.diag([10.0 ** k, 10.0 ** -k, 1.0]))
    assert not A.is_unital and A.unit is None


def test_unitize_null_line():
    null = make_algebra(1, ["n"], {})
    up = unitize(null)
    assert up.dim == 2
    e, b = up.element([1.0, 0.0]), up.element([0.0, 1.0])
    assert np.allclose(mul(e, e).coords, e.coords)
    assert np.allclose(mul(e, b).coords, b.coords)
    assert np.allclose(mul(b, b).coords, 0)
    assert np.allclose(_solve_unit(up.table), up.unit)


def test_unitize_recovers_unit_for_all_builtins():
    for name in corpus.builtin_names():
        up = unitize(corpus.builtin(name))
        assert np.allclose(_solve_unit(up.table), up.unit, atol=1e-12)


def test_ideal_checks():
    rr = corpus.builtin("rr")
    assert subspace_is_two_sided_ideal(rr, [[0, 1]])
    assert subspace_is_two_sided_ideal(rr, np.eye(2))
    m2 = corpus.m2_reals()
    assert not subspace_is_two_sided_ideal(m2, [[0, 1, 0, 0]])  # span{E12}


def test_quotient_rr_mod_second_coord():
    rr = corpus.builtin("rr")
    qm = quotient(rr, [[0, 1]])
    assert qm.algebra.dim == 1
    assert qm.algebra.is_unital
    # induced table is e*e = e, i.e. the quotient is R
    assert np.allclose(qm.algebra.table, np.ones((1, 1, 1)))


def test_quotient_by_zero_is_identity():
    rrc = corpus.builtin("rrc")
    qm = quotient(rrc, np.zeros((0, 4)))
    assert qm.algebra is rrc
    assert np.allclose(qm.projection, np.eye(4))


def test_quotient_componentwise():
    rrc = corpus.builtin("rrc")  # R + R + C, C in coords 2, 3
    qm = quotient(rrc, np.eye(4)[2:])
    assert qm.algebra.dim == 2
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rrc.element(rng.standard_normal(4))
        b = rrc.element(rng.standard_normal(4))
        lhs = qm.projection @ mul(a, b).coords
        rhs = mul(qm.algebra.element(qm.projection @ a.coords),
                  qm.algebra.element(qm.projection @ b.coords)).coords
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_quotient_requires_ideal():
    m2 = corpus.m2_reals()
    with pytest.raises(NotAnIdeal):
        quotient(m2, [[0, 1, 0, 0]])


def test_corpus_constructors():
    assert corpus.direct_sum([corpus.reals(), corpus.complexes()]).dim == 3
    h2 = corpus.function_algebra_H(2)
    assert h2.dim == 8 and h2.is_unital
    m2 = corpus.m2_reals()
    assert np.allclose(m2.unit, [1, 0, 0, 1])


def test_unit_residuals_tight():
    for name in corpus.builtin_names():
        A = corpus.builtin(name)
        if not A.is_unital:
            continue
        for j in range(A.dim):
            ej = np.eye(A.dim)[j]
            assert np.abs(A.mul_coords(A.unit, ej) - ej).max() <= 1e-12
            assert np.abs(A.mul_coords(ej, A.unit) - ej).max() <= 1e-12


def test_non_finite_table_rejected():
    with pytest.raises(AlgebraError, match="non-finite"):
        make_algebra(1, ["1"], {(0, 0, 0): float("nan")})
    with pytest.raises(BadUnit):
        make_algebra(1, ["1"], {(0, 0, 0): 1.0}, unit=[float("nan")])
    with pytest.raises(BadUnit):   # its bound UNIT_TOL (1 + inf) is inf too
        make_algebra(1, ["1"], {(0, 0, 0): 1.0}, unit=[float("inf")])
