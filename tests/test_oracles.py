"""The reference definitions of tests/oracles.py against the library's
batched paths, on stacks of rows of every unital builtin.  j_evaluate is
checked in test_evaluation_paths.py, bit for bit against a one-row stack
of CharacterSup.evaluations
(test_element_wise_calls_are_rows_of_the_batch)."""

import numpy as np
import pytest

from squareprop import corpus
from squareprop.algebra import nonsingular
from squareprop.characters import (check_prop31, find_characters,
                                   non_division_block)
from squareprop.spectral import spectra

from oracles import full_spectrum_match, in_spectrum_paper_def, is_invertible

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
