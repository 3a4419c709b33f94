"""The reference definitions of tests/oracles.py against the library's
batched paths, on stacks of rows of every unital builtin, and the
block-major seminorm kernels bit for bit against their row-major forms,
and the pivot columns of algebra.quotient against LAPACK's.
j_evaluate is checked in test_evaluation_paths.py, bit for bit against a
one-row stack of CharacterSup.evaluations
(test_element_wise_calls_are_rows_of_the_batch)."""

import itertools
import math

import numpy as np
import pytest

from squareprop import algebra, corpus
from squareprop.algebra import _pivot_columns, nonsingular, quotient
from squareprop.characters import (check_prop31, find_characters,
                                   non_division_block)
from squareprop.seminorm import CharacterSup
from squareprop.spectral import division_radii, spectra

import golden
from oracles import (block_widths, character_sup_rows, division_radii_rows,
                     full_spectrum_match, in_spectrum_paper_def,
                     is_invertible, lapack_pivot_columns)
from transforms import rotated

UNITAL = [name for name in corpus.builtin_names()
          if corpus.builtin(name).is_unital]


def _stack(A, seed, rows=8):
    """Random rows, the zero row and each basis element."""
    X = np.random.default_rng(seed).standard_normal((rows, A.dim))
    return np.concatenate([X, np.zeros((1, A.dim)), np.eye(A.dim)])


@pytest.mark.parametrize("name", UNITAL)
def test_paper_definition_holds_on_every_point_of_spectra(name):
    A = corpus.builtin(name)
    X = _stack(A, 1)
    W = spectra(A, A.left_matrices_batch(X))
    for x, points in zip(X, W):
        a = A.element(x)
        for z in points:
            assert in_spectrum_paper_def(a, z.real, z.imag)
        # a point 0.1 outward from each, where no other point is near
        for z in points:
            w = z + 0.1 * (z / abs(z) if abs(z) > 0 else 1.0)
            if np.abs(points - w).min() > 0.05:
                assert not in_spectrum_paper_def(a, w.real, w.imag)


@pytest.mark.parametrize("name", UNITAL)
def test_is_invertible_is_a_row_of_nonsingular(name):
    """is_invertible(a) is the batched nonsingular on the row of a, and an
    invertible a has a two-sided inverse."""
    A = corpus.builtin(name)
    X = _stack(A, 2)
    rows = nonsingular(A.left_matrices_batch(X))
    assert [is_invertible(A.element(x)) for x in X] == rows.tolist()
    assert rows.any() and not rows.all()
    for x in X[rows]:
        b = np.linalg.solve(A.left_matrices_batch(x[None])[0], A.unit)
        back = A.mul_coords_batch(b[None], x[None])[0]
        assert np.abs(back - A.unit).max() <= 1e-8


@pytest.mark.parametrize("name", UNITAL)
def test_full_spectrum_match_where_every_block_is_a_division_algebra(name):
    """The characters of find_characters give all of sp(a) on every row
    exactly when non_division_block finds no block past R, C and H, and
    then check_prop31's one-sided inclusion holds on the stack too."""
    A = corpus.builtin(name)
    X = _stack(A, 5)
    chars = find_characters(A)
    match = full_spectrum_match(A, X, chars)
    if non_division_block(A) is None:
        assert match.all()
        assert check_prop31(A, X, chars).spectrum_inclusion_ok
    else:
        assert not match.any()


# -- block-major seminorm kernels against their row-major forms ----------

def _exact_table(rng, n):
    """A signed permutation scaled by powers of 2: every entry of X @ table
    is one product x * 2^k, exact in any order of summation, so a
    comparison through it pins the reductions and not BLAS's bits."""
    signs = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-4, 5, n)
    return np.eye(n)[rng.permutation(n)] * signs


def _scaled_rows(rng, rows, n):
    """Random rows, each scaled by 10^k for k uniform in [-150, 150], with
    row rows // 2 set to 0."""
    X = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-150, 150,
                                                             (rows, 1))
    X[rows // 2] = 0.0
    return X


def _stacks(X):
    """The stack, its first row alone and its zero row alone."""
    return X, X[:1], X[len(X) // 2:len(X) // 2 + 1]


def _padded(table, widths):
    """The columns of table, read as blocks of the given widths in order,
    each padded with columns of 0 to width 4, as algebra._radius_factor
    pads the factor of an R or C block."""
    blocks = np.split(table, np.cumsum(widths)[:-1], axis=1)
    return np.hstack([np.pad(B, ((0, 0), (0, 4 - B.shape[1])))
                      for B in blocks])


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("K", range(1, 9))
def test_division_radii_are_the_row_major_radii(K, d):
    rng = np.random.default_rng(100 * K + d)
    table = _padded(_exact_table(rng, K * d), [d] * K)
    for X in _stacks(_scaled_rows(rng, 300, K * d)):
        got = division_radii(X, table)
        assert np.array_equal(got, division_radii_rows(X, table))
    assert got[0] == 0.0


@pytest.mark.parametrize("counts", [(1, 1, 0), (0, 2, 1), (3, 0, 2),
                                    (2, 1, 1), (1, 3, 2)],
                         ids=lambda c: "R%dC%dH%d" % c)
def test_mixed_division_radii_are_the_row_major_radii(counts):
    """R, C and H blocks side by side, as many of each as counted, each
    padded to four columns, under the one scale per row."""
    widths = [d for d, K in zip((1, 2, 4), counts) for _ in range(K)]
    rng = np.random.default_rng(sum(counts))
    n = sum(widths)
    table = _padded(_exact_table(rng, n), widths)
    for X in _stacks(_scaled_rows(rng, 300, n)):
        got = division_radii(X, table)
        assert np.array_equal(got, division_radii_rows(X, table))
    assert got[0] == 0.0


def test_a_group_far_below_the_common_scale_cannot_set_the_max():
    """Three C blocks 2^-600 below two H blocks: on the row over the one
    scale their squares underflow to 0, and the radii are the H blocks'
    alone, bit for bit."""
    rng = np.random.default_rng(12)
    small = _padded(_exact_table(rng, 6) * 2.0 ** -600, [2] * 3)
    big = _exact_table(rng, 8)
    table = np.zeros((14, 20))
    table[:6, :12], table[6:, 12:] = small, big
    X = rng.standard_normal((50, 14))
    got = division_radii(X, table)
    assert np.array_equal(got, division_radii(X[:, 6:], big))
    assert (division_radii(X[:, :6], small) > 0.0).all()


@pytest.mark.parametrize("m", range(1, 9))
def test_character_sup_is_the_row_major_sup(m):
    """m characters on H^m, whose dimension 4m the images must match."""
    rng = np.random.default_rng(m)
    A = corpus.function_algebra_H(m)
    chars = _exact_table(rng, 4 * m).reshape(4 * m, m, 4).transpose(1, 0, 2)
    p = CharacterSup(chars)
    for X in _stacks(_scaled_rows(rng, 300, 4 * m)):
        got = p.values(A, X)
        assert np.array_equal(got, character_sup_rows(A, X, chars))
    assert got[0] == 0.0


def _division_table(A):
    """The table of the division group of A's split, or None."""
    return next((T for _, division, T in A.spectral_split if division),
                None)


def _corpus_algebras():
    cases = [(name, corpus.builtin(name)) for name in corpus.builtin_names()]
    return cases + [(f"H{n}", corpus.function_algebra_H(n))
                    for n in (2, 4, 8)]


@pytest.mark.parametrize("case", _corpus_algebras(), ids=lambda c: c[0])
def test_block_major_kernels_keep_the_corpus_bits(case):
    """On the tables the benchmarks and the manifest run, table.T @ X.T
    has the bits of X @ table on this BLAS, so both kernels give the
    row-major results bit for bit, on 2000 rows and on one."""
    _, A = case
    X = np.random.default_rng(8).standard_normal((2000, A.dim))
    chars = find_characters(A)
    table = _division_table(A)
    for Z in (X, X[:1]):
        if table is not None:
            assert np.array_equal(division_radii(Z, table),
                                  division_radii_rows(Z, table))
        if len(chars):
            assert np.array_equal(CharacterSup(chars).values(A, Z),
                                  character_sup_rows(A, Z, chars))


@pytest.mark.parametrize("bad", [
    pytest.param(math.nan, id="nan"),
    # inf * 0 in the products is the NaN this test feeds on purpose
    pytest.param(math.inf, id="inf", marks=pytest.mark.filterwarnings(
        "ignore:invalid value encountered in matmul:RuntimeWarning")),
])
def test_non_finite_row_raises_in_both_layouts(bad):
    rng = np.random.default_rng(9)
    table = _exact_table(rng, 12)
    X = _scaled_rows(rng, 5, 12)
    X[3, 7] = bad
    with pytest.raises(np.linalg.LinAlgError):
        division_radii(X, table)
    with pytest.raises(np.linalg.LinAlgError):
        division_radii_rows(X, table)


def _mixed_splits():
    """Every builtin and every R, C, H product of two or three parts whose
    division group has blocks of more than one width."""
    parts = {"R": corpus.reals(), "C": corpus.complexes(),
             "H": corpus.quaternions()}
    cases = [(name, corpus.builtin(name)) for name in corpus.builtin_names()]
    cases += [("".join(kinds), corpus.direct_sum([parts[k] for k in kinds]))
              for k in (2, 3) for kinds in itertools.product("RCH", repeat=k)]
    return [(name, A) for name, A in cases
            if _division_table(A) is not None
            and len(set(block_widths(_division_table(A)))) > 1]


@pytest.mark.parametrize("case", _mixed_splits(), ids=lambda c: c[0])
def test_one_scale_moves_mixed_radii_by_rounding(case):
    """Against the radii taken one block width at a time, each on its own
    scale: both round each step of their formula once, a few eps each, so
    they agree to 8 eps relative."""
    _, A = case
    table = _division_table(A)
    widths = block_widths(table)
    blocks = table.reshape(A.dim, -1, 4)
    X = np.random.default_rng(14).standard_normal((2000, A.dim))
    per_width = [division_radii(X, blocks[:, widths == d].reshape(A.dim, -1))
                 for d in sorted(set(widths))]
    np.testing.assert_allclose(division_radii(X, table),
                               np.max(per_width, axis=0),
                               rtol=8 * np.finfo(float).eps, atol=0.0)


# -- the complement a quotient keeps ------------------------------------

@pytest.fixture
def pivots(monkeypatch):
    """Every (P, q) that algebra.quotient hands _pivot_columns while the
    test runs, in order."""
    taken = []

    def record(P, q):
        taken.append((P.copy(), q))
        return _pivot_columns(P, q)

    monkeypatch.setattr(algebra, "_pivot_columns", record)
    return taken


def _agree_with_lapack(taken):
    for P, q in taken:
        assert np.array_equal(np.sort(_pivot_columns(P, q)),
                              lapack_pivot_columns(P, q))


def test_pivots_are_lapack_s_on_dense_ideals():
    """P = I - Qv Qv^T as quotient forms it, for random dense V of m <= 5
    rows in dimension n <= 64."""
    rng = np.random.default_rng(29)
    taken = []
    for _ in range(300):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(1, min(5, n - 1) + 1))
        Qv, _ = np.linalg.qr(rng.standard_normal((m, n)).T)
        taken.append((np.eye(n) - Qv @ Qv.T, n - m))
    _agree_with_lapack(taken)


@pytest.mark.parametrize("copies", [8, 12, 15])
def test_pivots_are_lapack_s_on_rotated_null_lines(pivots, copies):
    """The structure benchmark's quotients: H^copies (+) nonunital3 in a
    rotated basis, by the null line of its last summand."""
    base = corpus.direct_sum([corpus.quaternions()] * copies
                             + [corpus.nonunital_with_ideal()])
    for seed in (0, 1):
        A, Q = rotated(base, seed)
        lift = quotient(A, Q[[A.dim - 1]]).lift
        P, q = pivots[-1]
        assert P.shape == (base.dim, base.dim) and q == base.dim - 1
        # the section is the columns LAPACK's QR picked, in basis order
        assert np.array_equal(lift, P[:, lapack_pivot_columns(P, q)])
    assert len(pivots) == 2


def test_pivots_are_lapack_s_on_every_golden_quotient(pivots):
    cases = set()
    for name, thunk in golden.cases():
        before = len(pivots)
        thunk()
        if len(pivots) > before:
            cases.add(name)
    # the pairs with a nonzero kernel, and nonunital3 by its radical
    assert cases >= {f"verify {pair} seed {seed}" for seed in (0, 5)
                     for pair in ("rr_component_sup",
                                  "nonunital3_component_sup")}
    assert "characters nonunital3" in cases
    _agree_with_lapack(pivots)


def test_pivot_ties_go_to_the_first_index():
    assert _pivot_columns(np.eye(4), 2).tolist() == [0, 1]
    # span(e1 + e2) in dim 4: columns 2 and 3 (e3, e4) tie at norm 1
    # exactly; columns 0 and 1 then differ by rounding, as in LAPACK
    Qv, _ = np.linalg.qr(np.array([[1.0, 1.0, 0.0, 0.0]]).T)
    P = np.eye(4) - Qv @ Qv.T
    assert _pivot_columns(P, 3).tolist() == [2, 3, 0]
    assert lapack_pivot_columns(P, 3).tolist() == [0, 2, 3]
