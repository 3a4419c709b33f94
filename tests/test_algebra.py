import math

import numpy as np
import pytest

from squareprop import algebra as algebra_mod
from squareprop import corpus
from squareprop.algebra import (AlgebraError, AlgebraMismatch,
                                AssociativityViolation, BadUnit,
                                DimensionMismatch, NotAnIdeal, NotUnital, _solve_unit,
                                left_regular_matrix, make_algebra, mul,
                                quotient, subspace_is_two_sided_ideal, unitize)
from squareprop.spectral import spectrum

from oracles import is_invertible
from transforms import in_basis, power_of_two, skew


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


@pytest.mark.parametrize("build, message", [
    (lambda: make_algebra(2, ["a"], {}), "got 1 basis labels for dim 2"),
    (lambda: make_algebra(2, ["a", "b"], np.zeros((3, 3, 3))),
     "table shape (3, 3, 3), expected (2, 2, 2)"),
    (lambda: corpus.complexes().element([1.0, 2.0, 3.0]),
     "coords shaped (3,) for dim 2"),
], ids=["labels", "table_shape", "element"])
def test_size_mismatch_names_the_sizes(build, message):
    with pytest.raises(DimensionMismatch) as exc:
        build()
    assert str(exc.value) == message


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


def test_no_unit_when_the_least_squares_solve_fails(monkeypatch):
    """_solve_unit gives None when lstsq does not converge, and a table
    given without a unit is then not unital."""
    def stalls(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "lstsq", stalls)
    H = corpus.quaternions()
    assert _solve_unit(H.table) is None
    A = make_algebra(4, H.labels, H.table)
    assert A.unit is None and not A.is_unital


@pytest.mark.parametrize("k", range(-8, 9))
def test_rescaled_algebra_finds_its_unit(k):
    """hc in the basis 10^k e_i, built without a unit, finds its unit 10^-k
    e: the unit gate is relative to the size of the products u e_j."""
    H = corpus.builtin("hc")
    A = make_algebra(H.dim, H.labels, H.table * 10.0 ** k)
    assert A.is_unital
    assert np.abs(A.unit * 10.0 ** k - H.unit).max() <= 1e-12


UNITAL_BUILTINS = [name for name in corpus.builtin_names()
                   if corpus.builtin(name).is_unital]


@pytest.mark.parametrize("K", [10, 20, 30, 60])
@pytest.mark.parametrize("name", UNITAL_BUILTINS)
def test_power_of_two_copies_find_their_unit(name, K):
    """A unital builtin in a basis diag(2^k), given no unit, finds
    S^-1 u: the unit's system is balanced by powers of two before it is
    solved.  Unbalanced, 78 of these 320 copies found none and were
    taken for non-unital algebras."""
    B = corpus.builtin(name)
    for seed in range(10):
        A, S = power_of_two(B, K, seed)
        want = np.linalg.solve(S, B.unit)
        assert A.unit is not None, seed
        assert np.abs(A.unit - want).max() <= 1e-14 * np.abs(want).max()


def test_power_of_two_copy_of_h2_has_no_spurious_zero():
    """h2 at K = 20, seed 1 found no unit when its system was solved
    unbalanced, so spectrum added the 0 of a non-unital algebra to the
    points of an invertible element."""
    A, _ = power_of_two(corpus.builtin("h2"), 20, 1)
    x = np.random.default_rng(3).standard_normal(A.dim)
    points = np.array(spectrum(A.element(x)).points)
    assert len(points) == A.dim and 0.0 not in points


def test_algebra_without_a_unit_finds_none():
    """nonunital3, built without a unit, in its own basis and in a skewed
    one, has no unit: the least-squares solution fails the gate.  Its
    A / rad(A), R + R, finds its own."""
    N = corpus.builtin("nonunital3")
    for S in (np.eye(3), skew(3)):
        A = in_basis(N, S)
        assert not A.is_unital and A.unit is None
        B = A.semisimple_quotient.algebra
        assert B.dim == 2 and B.is_unital


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


def test_quotient_is_kept_per_v():
    """An equal V, as another array or as a list, gets the map formed
    first; a V with other bytes gets its own, the identity map of a zero
    V too."""
    rrc = corpus.direct_sum([corpus.reals(), corpus.reals(),
                             corpus.complexes()])
    qm = quotient(rrc, np.eye(4)[2:])
    assert quotient(rrc, np.eye(4)[2:].copy()) is qm
    assert quotient(rrc, [[0, 0, 1, 0], [0, 0, 0, 1]]) is qm
    other = quotient(rrc, np.eye(4)[[3, 2]])
    assert other is not qm and other.algebra.dim == qm.algebra.dim
    same = quotient(rrc, np.zeros((0, 4)))
    assert same.algebra is rrc and quotient(rrc, np.zeros((0, 4))) is same
    assert list(rrc._quotients.values()) == [qm, other, same]


def test_a_refused_v_raises_on_every_call(monkeypatch):
    """A refusal is not kept: the gate runs, and raises, again.  A V with
    a NaN entry is kept as it is by _row_basis, and the gate refuses it."""
    m2 = corpus.m2_reals()
    gates = []
    orig = algebra_mod._absorbs
    monkeypatch.setattr(algebra_mod, "_absorbs",
                        lambda *args: gates.append(1) or orig(*args))
    for V in ([[0, 1, 0, 0]], [[math.nan, 0, 0, 0]]):
        for _ in range(2):
            with pytest.raises(NotAnIdeal):
                quotient(m2, V)
    assert len(gates) == 4
    assert vars(m2).get("_quotients", {}) == {}


@pytest.mark.parametrize("V", [np.eye(4)[2:], np.zeros((0, 4))],
                         ids=["ideal", "zero"])
def test_a_kept_quotient_is_read_only(V):
    qm = quotient(corpus.builtin("rrc"), V)
    arrays = [qm.projection, qm.lift, qm.algebra.table]
    assert not [x for x in arrays if x.flags.writeable]


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
