"""The matrix-product kernels of ``algebra`` against the dense einsums and
Python loops they replaced, which are kept here as the references."""

import re
import tracemalloc

import numpy as np
import pytest

from squareprop import algebra, corpus
from squareprop.algebra import (ASSOC_TOL, IDEAL_TOL, AlgebraError,
                                AssociativityViolation, BadUnit,
                                left_regular_matrix, make_algebra, quotient,
                                subspace_is_two_sided_ideal)


def _rotate(A, seed):
    """(A in the basis f_i = sum_a Q[a, i] e_a, Q) for a seeded orthogonal
    Q; the coordinates of e_g in the new basis are Q[g, :]."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (A.dim, A.dim)))
    table = np.einsum("abg,ai,bj,gk->ijk", A.table, Q, Q, Q, optimize=True)
    unit = None if A.unit is None else Q.T @ A.unit
    return make_algebra(A.dim, [f"f{i}" for i in range(A.dim)], table,
                        unit=unit, name=f"rotated {A.name}"), Q


def _t2r_hc():
    """T2(R) (+) H (+) C; E12 (index 1) spans the radical, C is 7 and 8."""
    t2r = make_algebra(3, ["E11", "E12", "E22"],
                       {(0, 0, 0): 1.0, (0, 1, 1): 1.0, (1, 2, 1): 1.0,
                        (2, 2, 2): 1.0},
                       unit=[1.0, 0.0, 1.0], name="T2(R)")
    return corpus.direct_sum([t2r, corpus.builtin("hc")])


# -- associativity ------------------------------------------------------

def _dense_assoc(c):
    """The parent's check: (worst defect, its (i, j, k, l), tolerance)."""
    lhs = np.einsum("ijm,mkl->ijkl", c, c)
    rhs = np.einsum("jkm,iml->ijkl", c, c)
    err = np.abs(lhs - rhs)
    at = np.unravel_index(np.argmax(err), err.shape)
    tol = ASSOC_TOL * (1.0 + np.abs(c).max()) ** 2
    return err[at], tuple(int(x) for x in at), tol


def _chunked_witness(c):
    """(i, j, k, l) named by the chunked check, or None if it accepts c."""
    n = c.shape[0]
    try:
        make_algebra(n, [str(i) for i in range(n)], c)
    except AssociativityViolation as exc:
        m = re.match(r"\(e(\d+) e(\d+)\) e(\d+) != e\1 \(e\2 e\3\): "
                     r"coefficient (\d+) differs by", str(exc))
        assert m, str(exc)
        return tuple(int(x) for x in m.groups())
    return None


def _block_rows(n):
    return max(1, algebra._ASSOC_BLOCK_BYTES // (8 * n ** 3))


@pytest.fixture(scope="module")
def rotated_43():
    """H^10 (+) nonunital3 in a dense basis: dim 43, several i-blocks."""
    base = corpus.direct_sum([corpus.quaternions()] * 10
                             + [corpus.nonunital_with_ideal()])
    A, _ = _rotate(base, 5)
    assert 1 < _block_rows(A.dim) < A.dim
    return A.table.copy()


def test_chunked_associativity_accepts_like_dense(rotated_43):
    worst, _, tol = _dense_assoc(rotated_43)
    assert worst <= tol
    assert _chunked_witness(rotated_43) is None


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_chunked_associativity_names_dense_witness(rotated_43, where):
    c = rotated_43.copy()
    n = c.shape[0]
    step = _block_rows(n)
    rng = np.random.default_rng(11)
    if where == "last":
        # a large change of row n-1 makes its square the largest defect,
        # and only rows i = n-1 see it
        c[n - 1] += 3.0 * rng.standard_normal((n, n))
    else:
        i = 0 if where == "first" else n // 2
        c[i, rng.integers(n), rng.integers(n)] += 1e-6
    worst, at, tol = _dense_assoc(c)
    assert worst > tol
    if where == "last":
        assert at[0] >= (n - 1) // step * step  # the premise: last block
    assert _chunked_witness(c) == at


def test_nan_defect_rejected():
    with pytest.raises(AlgebraError, match="non-finite"):
        make_algebra(2, ["a", "b"], {(0, 0, 0): 1.0, (1, 1, 0): np.nan})
    # finite entries and a finite tolerance, but the sums of products
    # overflow: the defect inf - inf is NaN, which a `worst > tol` gate passes
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(AssociativityViolation, match="nan"):
            make_algebra(2, ["a", "b"], np.full((2, 2, 2), 1.3e154))


def test_associativity_check_memory_is_cubic():
    base = corpus.direct_sum([corpus.quaternions()] * 15
                             + [corpus.nonunital_with_ideal()])
    A, _ = _rotate(base, 7)
    table = A.table.copy()
    assert table.shape == (63, 63, 63)
    tracemalloc.start()
    try:
        make_algebra(63, A.labels, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one 63^4 float array is 126 MB; the dense check held three
    assert peak < 64 << 20


# -- unit, ideal, quotient and batch products ---------------------------

def _loop_first_bad_unit(c, u):
    """The parent's check: first j with u e_j != e_j or e_j u != e_j."""
    n = c.shape[0]
    for j in range(n):
        ej = np.eye(n)[j]
        left = np.einsum("i,j,ijk->k", u, ej, c)
        right = np.einsum("i,j,ijk->k", ej, u, c)
        if not (np.abs(left - ej).max() <= algebra.UNIT_TOL
                and np.abs(right - ej).max() <= algebra.UNIT_TOL):
            return j
    return None


@pytest.mark.parametrize("case", ["t2r_hc_drop_c", "rotated_t2r_hc",
                                  "nonunital3"])
def test_bad_unit_message_matches_loop(case):
    if case == "t2r_hc_drop_c":
        A = _t2r_hc()
        u = A.unit.copy()
        u[7] = 0.0  # identity on everything but the C block
    elif case == "rotated_t2r_hc":
        A, Q = _rotate(_t2r_hc(), 2)
        u = A.unit + 1e-9 * Q[4]
    else:
        A = corpus.builtin("nonunital3")
        u = np.array([1.0, 1.0, 0.0])
    j = _loop_first_bad_unit(A.table, u)
    assert j is not None
    with pytest.raises(BadUnit,
                       match=f"^claimed unit fails on basis element {j}$"):
        make_algebra(A.dim, A.labels, A.table, unit=u)
    if case == "rotated_t2r_hc":
        assert _loop_first_bad_unit(A.table, A.unit) is None


def _loop_is_ideal(A, V):
    """The parent's check: every e_i v and v e_i stays in span(V)."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    Q, _ = np.linalg.qr(V.T)
    P = np.eye(A.dim) - Q @ Q.T
    scale = 1.0 + np.abs(A.table).max() * (1.0 + np.abs(V).max())
    for i in range(A.dim):
        ei = np.eye(A.dim)[i]
        for v in V:
            for prod in (A.mul_coords(ei, v), A.mul_coords(v, ei)):
                if np.abs(P @ prod).max() > IDEAL_TOL * scale:
                    return False
    return True


def _ideal_cases():
    A, Q = _rotate(_t2r_hc(), 3)
    m2, Qm = _rotate(corpus.m2_reals(), 4)
    return [
        ("radical", A, Q[[1]], True),
        ("radical+C", A, Q[[1, 7, 8]], True),
        ("E11", A, Q[[0]], False),
        ("E12+H", A, Q[[1, 3]], False),
        ("null line", corpus.builtin("nonunital3"), [[0, 0, 1]], True),
        ("first summand", corpus.builtin("nonunital3"), [[1, 0, 0]], True),
        ("a+b", corpus.builtin("nonunital3"), [[1, 1, 0]], False),
        ("E12 in M2", m2, Qm[[1]], False),
    ]


IDEAL_CASES = _ideal_cases()
IDEALS = [c[:3] for c in IDEAL_CASES if c[3]]


@pytest.mark.parametrize("label, A, V, expected", IDEAL_CASES,
                         ids=[c[0] for c in IDEAL_CASES])
def test_ideal_check_matches_loop(label, A, V, expected):
    assert _loop_is_ideal(A, V) is expected
    assert subspace_is_two_sided_ideal(A, V) is expected


@pytest.mark.parametrize("label, A, V", IDEALS, ids=[c[0] for c in IDEALS])
def test_quotient_table_matches_loop(label, A, V):
    qm = quotient(A, V)
    S, proj = qm.lift, qm.projection
    q = S.shape[1]
    ref = np.zeros((q, q, q))
    for i in range(q):
        for j in range(q):
            ref[i, j, :] = proj @ A.mul_coords(S[:, i], S[:, j])
    assert np.abs(qm.algebra.table - ref).max() <= 1e-12
    # only nonunital3 / span{a} = R (+) null line lacks a unit
    assert qm.algebra.is_unital is (label != "first summand")
    if qm.algebra.is_unital:
        assert np.abs(qm.algebra.unit - algebra.find_unit(
            make_algebra(q, qm.algebra.labels, ref))).max() <= 1e-9


@pytest.mark.parametrize("name", ["t2r_hc", "rotated_t2r_hc", "nonunital3"])
def test_batch_products_match_scalar(name):
    if name == "nonunital3":
        A = corpus.builtin(name)
    else:
        A = _t2r_hc() if name == "t2r_hc" else _rotate(_t2r_hc(), 6)[0]
    rng = np.random.default_rng(8)
    X = rng.standard_normal((25, A.dim))
    Y = rng.standard_normal((25, A.dim))
    prods = A.mul_coords_batch(X, Y)
    mats = A.left_matrices_batch(X)
    assert prods.shape == (25, A.dim) and mats.shape == (25, A.dim, A.dim)
    for x, y, p, L in zip(X, Y, prods, mats):
        scale = (1 + np.abs(x).max()) * (1 + np.abs(y).max())
        assert np.abs(p - A.mul_coords(x, y)).max() <= 1e-13 * scale
        assert np.abs(L - left_regular_matrix(A.element(x))).max() \
            <= 1e-13 * (1 + np.abs(x).max())
