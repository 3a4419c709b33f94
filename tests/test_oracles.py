"""The reference definitions of tests/oracles.py against the library's
batched paths, on stacks of rows of every unital builtin, and the
block-major seminorm kernels bit for bit against their row-major forms.
j_evaluate is checked in test_evaluation_paths.py, bit for bit against a
one-row stack of CharacterSup.evaluations
(test_element_wise_calls_are_rows_of_the_batch)."""

import math

import numpy as np
import pytest

from squareprop import corpus
from squareprop.algebra import nonsingular
from squareprop.characters import (check_prop31, find_characters,
                                   non_division_block)
from squareprop.seminorm import CharacterSup
from squareprop.spectral import _group_radii, spectra

from oracles import (character_sup_rows, division_radii_rows,
                     full_spectrum_match, in_spectrum_paper_def,
                     is_invertible)

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


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("K", range(1, 9))
def test_division_radii_are_the_row_major_radii(K, d):
    rng = np.random.default_rng(100 * K + d)
    table = _exact_table(rng, K * d)
    for X in _stacks(_scaled_rows(rng, 300, K * d)):
        got = _group_radii(X, d, True, table)
        assert np.array_equal(got, division_radii_rows(X, d, table))
    assert got[0] == 0.0


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
    for Z in (X, X[:1]):
        for d, division, table in A.spectral_split:
            if division:
                assert np.array_equal(_group_radii(Z, d, True, table),
                                      division_radii_rows(Z, d, table))
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
        _group_radii(X, 4, True, table)
    with pytest.raises(np.linalg.LinAlgError):
        division_radii_rows(X, 4, table)
