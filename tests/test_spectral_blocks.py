"""Spectral radii on the blocks of A/rad(A) against the dense eigenvalue
formula they replace.

``spectral_radius_batch`` evaluates r(a) = r(pi(a)) on the diagonal blocks
of L_pi(a) on B = hull / rad(hull): on B's simple blocks once dim B
reaches ``algebra._BLOCKED_MIN_DIM`` (by two traces on R, C and H blocks,
whose eigenvalues are one conjugate pair, so that
r^2 = (2 (tr M)^2 - d tr M^2) / d^2 on a d x d block M; by eigenvalues on
any other block), and on B as one block below it or when the blocks fail
their gate (invariance on the basis, independence, dimensions summing to
dim B).  The dense formula (eigenvalues
of the whole left regular matrix, in the unital hull) is kept here as the
reference, at ordinary and extreme scales, on hulls with a radical and on
non-finite rows, and on R + C + H^4 in the basis 10^k e_i, k = -8 ... 8.
A failed gate and a single block give the dense numbers exactly, and the
record is built once per algebra.
"""

import math
import sys

import numpy as np
import pytest
import scipy.optimize

from squareprop import algebra as algebra_mod
from squareprop import corpus
from squareprop.algebra import make_algebra, unitize
from squareprop.pipeline import PipelineConfig, fuzz, verify_theorem
from squareprop.seminorm import (CharacterSup, SpectralRadius,
                                 check_submultiplicative)
from squareprop.spectral import spectral_radius_batch, spectrum


def _dense_radius(A, X):
    """The dense formula: the largest |eigenvalue| of L_x in the unital
    hull, one eigenvalue problem of the hull's size per row."""
    if not A.is_unital:
        A = unitize(A)
        X = np.hstack([np.zeros((X.shape[0], 1)), X])
    L = A.left_matrices_batch(X)
    return np.abs(np.linalg.eigvals(L)).max(axis=1)


def _rotated(A, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (A.dim, A.dim)))
    table = np.einsum("abg,ai,bj,gk->ijk", A.table, Q, Q, Q, optimize=True)
    unit = None if A.unit is None else Q.T @ A.unit
    return make_algebra(A.dim, [f"f{i}" for i in range(A.dim)], table,
                        unit=unit, name=f"rotated {A.name}")


def _t2r():
    """T2(R) with basis E11, E12, E22; its radical is the line of E12."""
    return make_algebra(3, ["E11", "E12", "E22"],
                        {(0, 0, 0): 1.0, (0, 1, 1): 1.0, (1, 2, 1): 1.0,
                         (2, 2, 2): 1.0},
                        unit=[1.0, 0.0, 1.0], name="T2(R)")


def _matrix_algebra(k):
    """M_k(R) on the matrix units E_ab (index a*k + b); its center is R."""
    table = {}
    for a in range(k):
        for b in range(k):
            for d in range(k):
                table[(a * k + b, b * k + d, a * k + d)] = 1.0
    unit = np.eye(k).ravel()
    return make_algebra(k * k, [f"E{a}{b}" for a in range(k) for b in range(k)],
                        table, unit=unit, name=f"M{k}(R)")


def _h(k):
    return [corpus.quaternions() for _ in range(k)]


def _mixed(rotate=True):
    """R + C + H^4 after a change of basis: one division group per size."""
    A = corpus.direct_sum([corpus.reals(), corpus.complexes()] + _h(4))
    return _rotated(A, 6) if rotate else A


def _rescaled(A, t):
    """A in the basis t e_i: table entries times t, unit over t."""
    unit = None if A.unit is None else A.unit / t
    return make_algebra(A.dim, A.labels, A.table * t, unit=unit,
                        name=f"{t:g} {A.name}")


# (algebra, relative bound, {(block size, division): block count} of the
# split); T2(R) and the null line of nonunital3 give the hull a radical
CASES = {
    "H8": (lambda: corpus.function_algebra_H(8), 1e-12, {(4, True): 8}),
    "H16": (lambda: corpus.function_algebra_H(16), 1e-12, {(4, True): 16}),
    "rotated_H8": (lambda: _rotated(corpus.function_algebra_H(8), 3),
                   1e-12, {(4, True): 8}),
    "rotated_R+C+H4": (_mixed, 1e-12,
                       {(1, True): 1, (2, True): 1, (4, True): 4}),
    "H4+M2R": (lambda: corpus.direct_sum(_h(4) + [corpus.m2_reals()]),
               1e-10, {(4, False): 1, (4, True): 4}),
    "H4+T2R": (lambda: corpus.direct_sum(_h(4) + [_t2r()]), 1e-10,
               {(1, True): 2, (4, True): 4}),
    "rotated_H4+nonunital3": (lambda: _rotated(corpus.direct_sum(
        _h(4) + [corpus.builtin("nonunital3")]), 5), 1e-10,
        {(1, True): 3, (4, True): 4}),
}
# R + C + H^4, rotated or not, in the basis 10^k e_i
CASES.update({
    f"{'rotated_' if rotate else ''}R+C+H4_1e{k}": (
        lambda rotate=rotate, k=k: _rescaled(_mixed(rotate), 10.0 ** k),
        1e-12, {(1, True): 1, (2, True): 1, (4, True): 4})
    for rotate in (False, True) for k in range(-8, 9)})
# below t = 1e-5 the trace form of the hull falls under the absolute rank
# floor of algebra._nullspace, so the radical is all of A, B is empty and
# building the split fails in algebra._solve_unit
_RADICAL_FLOOR = {f"{prefix}R+C+H4_1e{k}" for prefix in ("", "rotated_")
                  for k in (-8, -7, -6)}


def _case_params():
    floor = pytest.mark.xfail(
        raises=ValueError, strict=True,
        reason="the rank floor of _nullspace is absolute, not relative")
    return [pytest.param(name, marks=floor) if name in _RADICAL_FLOOR
            else name for name in sorted(CASES)]


@pytest.mark.parametrize("name", _case_params())
def test_blocked_radius_matches_dense(name):
    build, bound, sizes = CASES[name]
    A = build()
    split = A.spectral_split
    assert {(d, division): table.shape[1] // (d * d)
            for d, division, table in split} == sizes
    assert all(table.shape[0] == A.dim for _, _, table in split)
    X = np.random.default_rng(7).standard_normal((2000, A.dim))
    dense = _dense_radius(A, X)
    blocked = spectral_radius_batch(A, X)
    assert np.all(dense > 0.0)
    assert float(np.max(np.abs(blocked - dense) / dense)) <= bound


def test_blocked_spectrum_is_the_dense_multiset():
    """spectrum keeps the hull's multiplicities, which the blocks of B do
    not: on a hull with a radical and on a semisimple one it is eig(L_a)."""
    for parts in (_h(4) + [_t2r()], _h(4) + [corpus.m2_reals()]):
        A = corpus.direct_sum(parts)
        a = A.element(np.random.default_rng(2).standard_normal(A.dim))
        L = np.einsum("i,ijk->kj", a.coords, A.table)
        dense = np.sort_complex(np.linalg.eigvals(L))
        got = np.array(spectrum(a).points)
        assert got.shape == dense.shape
        assert np.abs(np.sort_complex(got) - dense).max() <= 1e-10


@pytest.mark.parametrize("scale", [1e150, 1e-150])
@pytest.mark.parametrize("name", ["H8", "rotated_H8"])
def test_determinant_radius_holds_at_extreme_scales(name, scale):
    """The traces, taken on M/m with m = max|M| per block, neither
    overflow nor underflow where tr M^2 alone would."""
    A = CASES[name][0]()
    X = scale * np.random.default_rng(13).standard_normal((500, A.dim))
    dense = _dense_radius(A, X)
    blocked = spectral_radius_batch(A, X)
    assert np.all(np.isfinite(dense)) and np.all(dense > 0.0)
    assert float(np.max(np.abs(blocked - dense) / dense)) <= 1e-12


@pytest.mark.parametrize("name", ["H8", "rotated_R+C+H4"])
def test_zero_row_has_radius_zero(name):
    A = CASES[name][0]()
    X = np.random.default_rng(14).standard_normal((3, A.dim))
    X[1] = 0.0
    r = spectral_radius_batch(A, X)
    assert r[1] == 0.0 and np.all(r[[0, 2]] > 0.0)
    assert _dense_radius(A, X[1:2])[0] == 0.0


@pytest.mark.parametrize("name", ["H8", "H4+M2R"])
def test_empty_stack_gives_empty_radii(name):
    """The ratio scan evaluates its random samples apart from the basis,
    so a scan without samples hands the blocked path zero rows."""
    A = CASES[name][0]()
    assert spectral_radius_batch(A, np.zeros((0, A.dim))).shape == (0,)
    ratio = check_submultiplicative(SpectralRadius(), A, samples=0)
    assert abs(ratio - 1.0) <= 1e-12


@pytest.mark.parametrize("bad", [
    pytest.param(math.nan, id="nan"),
    # inf * 0 in the products is the NaN this test feeds on purpose
    pytest.param(math.inf, id="inf", marks=pytest.mark.filterwarnings(
        "ignore:invalid value encountered in matmul:RuntimeWarning")),
])
@pytest.mark.parametrize("name", ["H8", "H4+M2R", "H2_dense"])
def test_non_finite_row_raises_on_both_paths(monkeypatch, name, bad):
    """On division groups, on eigvals groups, and on B as one block
    (H^2 with the crossover raised above its dimension)."""
    if name == "H2_dense":
        monkeypatch.setattr(algebra_mod, "_BLOCKED_MIN_DIM", 9)
        A = corpus.function_algebra_H(2)
    else:
        A = CASES[name][0]()
    assert [division for _, division, _ in A.spectral_split] == {
        "H8": [True], "H4+M2R": [False, True], "H2_dense": [False]}[name]
    X = np.random.default_rng(15).standard_normal((4, A.dim))
    X[2, 1] = bad
    with pytest.raises(np.linalg.LinAlgError):
        _dense_radius(A, X)
    with pytest.raises(np.linalg.LinAlgError):
        spectral_radius_batch(A, X)


def test_h8_radius_batch_calls_no_eigensolver(monkeypatch):
    """Every block of H^8 is a division block: once the split is built,
    its radii come from two traces of each block."""
    A = corpus.function_algebra_H(8)
    assert A.spectral_split is not None
    eig_sizes = _record_eig_sizes(monkeypatch)
    X = np.random.default_rng(16).standard_normal((200, A.dim))
    spectral_radius_batch(A, X)
    assert eig_sizes == []


@pytest.mark.parametrize("leak", [-1.0, math.nan], ids=["negative", "nan"])
def test_failed_invariance_gate_gives_dense_numbers(monkeypatch, leak):
    monkeypatch.setattr(algebra_mod, "_SPLIT_LEAK", leak)
    A = _rotated(corpus.function_algebra_H(8), 3)
    assert [(d, div) for d, div, _ in A.spectral_split] == [(32, False)]
    X = np.random.default_rng(8).standard_normal((300, A.dim))
    assert np.array_equal(spectral_radius_batch(A, X), _dense_radius(A, X))


def test_single_block_gives_dense_numbers():
    A = _matrix_algebra(4)
    assert A.dim >= algebra_mod._BLOCKED_MIN_DIM
    assert [(d, div) for d, div, _ in A.spectral_split] == [(16, False)]
    X = np.random.default_rng(9).standard_normal((300, A.dim))
    assert np.array_equal(spectral_radius_batch(A, X), _dense_radius(A, X))


# LAPACK's real QR iteration does not converge on L_q of this quaternion
# when L_q is laid out in C order, as a block of the split is
_STALLING_Q = np.array([0.01776737537132592, -0.1593314977115078,
                        -0.0126456452583658, 0.13573614522656216])


@pytest.mark.parametrize("points", [1, 4])
def test_stalled_qr_iteration_is_retried(points):
    A = corpus.function_algebra_H(points)   # H^4 takes the blocked path
    x = np.zeros((1, A.dim))
    x[0, :4] = _STALLING_Q
    r = spectral_radius_batch(A, x)[0]
    assert abs(r - np.linalg.norm(_STALLING_Q)) <= 1e-15
    assert abs(spectrum(A.element(x[0])).radius - r) <= 1e-15


@pytest.mark.parametrize("name", ["H8", "H8_unbuilt", "rrc"])
def test_every_real_eigvals_failure_is_retried(monkeypatch, name):
    """On the blocks and on B as one block; a real eigensolver that fails
    while the simple blocks are built leaves B as one block."""
    A = corpus.builtin("rrc") if name == "rrc" else corpus.function_algebra_H(8)
    if name == "H8":
        assert A.spectral_split is not None
    X = np.random.default_rng(11).standard_normal((200, A.dim))
    want = _dense_radius(A, X)
    orig = np.linalg.eigvals

    def real_fails(M):
        if not np.iscomplexobj(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return orig(M)

    monkeypatch.setattr(np.linalg, "eigvals", real_fails)
    monkeypatch.setattr(np.linalg, "eig", real_fails)   # the block build
    got = spectral_radius_batch(A, X)
    if name != "rrc":
        assert [(d, div) for d, div, _ in A.spectral_split] == (
            [(32, False)] if name == "H8_unbuilt" else [(4, True)])
    assert float(np.max(np.abs(got - want) / want)) <= 1e-12


def test_hull_and_split_are_built_once_and_separately():
    A = corpus.function_algebra_H(8)
    assert A.hull is A
    N = corpus.nonunital_with_ideal()
    assert N.hull is N.hull and N.hull.dim == N.dim + 1
    assert "spectral_split" not in vars(N)
    SpectralRadius().kernel(N)   # the kernel reads the hull only
    assert "spectral_split" not in vars(N)
    assert A.spectral_split is A.spectral_split


# -- hulls with a radical ------------------------------------------------

def _truncated_polynomials(k):
    """R[x]/(x^k) on 1, x, ..., x^(k-1); its radical is spanned by the x^i,
    i >= 1, so r(a) = |a_0|."""
    table = {(i, j, i + j): 1.0 for i in range(k) for j in range(k - i)}
    return make_algebra(k, [f"x{i}" for i in range(k)], table,
                        unit=np.eye(k)[0], name=f"R[x]/(x^{k})")


@pytest.mark.parametrize("k", [2, 3])
def test_rotated_truncated_polynomials_pass_with_spectral_radius(k):
    """L_a is defective here, and eigvals of L_a err by about eps^(1/k):
    the square residual read 3.5e-8 (k = 2) and 2.2e-5 (k = 3) against the
    tolerance 1e-9, and verify stopped with hypothesis_not_met.  On the
    quotient by the radical r is exact to rounding."""
    A = _rotated(_truncated_polynomials(k), 1)
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((k, k)))
    X = np.random.default_rng(17).standard_normal((500, k))
    exact = np.abs(X @ Q.T[:, 0])          # |a_0| in the monomial basis
    got = spectral_radius_batch(A, X)
    assert float(np.max(np.abs(got - exact) / (1.0 + exact))) <= 1e-13
    rep = verify_theorem(A, SpectralRadius(), PipelineConfig(seed=0))
    assert rep.verdict == "pass"
    assert rep.square_property_residual <= 1e-13


# -- non-unital algebras -------------------------------------------------

def _count_unitize(monkeypatch):
    calls = []
    orig = algebra_mod.unitize

    def counted(A):
        calls.append(A.name)
        return orig(A)

    for key, mod in list(sys.modules.items()):
        if key == "squareprop" or key.startswith("squareprop."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_nonunital_verify_unitizes_at_most_once(monkeypatch):
    calls = _count_unitize(monkeypatch)
    rep = verify_theorem(corpus.builtin("nonunital3"), SpectralRadius(),
                         PipelineConfig(seed=1))
    assert rep.verdict == "pass"
    assert len(calls) <= 1


@pytest.mark.parametrize("name", ["nonunital3", "rotated_hc+nonunital3",
                                  "rotated_H4+nonunital3"])
def test_nonunital_radius_equals_hull_formula(name):
    A = {
        "nonunital3": lambda: corpus.builtin("nonunital3"),
        "rotated_hc+nonunital3": lambda: _rotated(corpus.direct_sum(
            [corpus.builtin("hc"), corpus.builtin("nonunital3")]), 4),
        "rotated_H4+nonunital3": lambda: _rotated(corpus.direct_sum(
            _h(4) + [corpus.builtin("nonunital3")]), 5),
    }[name]()
    assert not A.is_unital
    X = np.random.default_rng(10).standard_normal((2000, A.dim))
    dense = _dense_radius(A, X)
    got = spectral_radius_batch(A, X)
    assert float(np.max(np.abs(got - dense) / (1.0 + dense))) <= 1e-12


@pytest.mark.parametrize("name", ["nonunital3", "rotated_hc+nonunital3"])
def test_nonunital_spectrum_is_the_hull_multiset(name):
    """spectrum's dense path: eig(L_a) and the 0 the hull adds."""
    A = corpus.builtin("nonunital3")
    if name != "nonunital3":
        A = _rotated(corpus.direct_sum([corpus.builtin("hc"), A]), 4)
    hull = unitize(A)
    for row in np.random.default_rng(12).standard_normal((20, A.dim)):
        L = np.einsum("i,ijk->kj", np.concatenate([[0.0], row]), hull.table)
        dense = np.linalg.eigvals(L)
        got = np.array(spectrum(A.element(row)).points)
        assert got.shape == dense.shape
        # pair the two multisets up at least total distance
        gap = np.abs(got[:, None] - dense[None, :])
        pairs = scipy.optimize.linear_sum_assignment(gap)
        assert gap[pairs].max() <= 1e-12 * (1.0 + np.abs(dense).max())


# -- structural guard: where the crossover sends each workload ------------

def _record_eig_sizes(monkeypatch):
    sizes = []
    orig = np.linalg.eigvals

    def recorded(M):
        sizes.append(np.shape(M)[-1])
        return orig(M)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    return sizes


def test_h8_spectral_radius_asks_only_for_small_eigenproblems(monkeypatch):
    """Once H^8's split is built (its one-time eigenproblem is on the
    center), every radius the proof chain asks for comes from the traces
    of 4 x 4 blocks; the one eigenproblem left is stage 8's Proposition 3.1
    check, one stacked eigvals call on the 20 matrices L_a, 32 x 32."""
    A = corpus.function_algebra_H(8)
    assert [(d, div) for d, div, _ in A.spectral_split] == [(4, True)]
    eig_sizes = _record_eig_sizes(monkeypatch)
    rep = verify_theorem(A, SpectralRadius(), PipelineConfig(seed=0))
    assert rep.verdict == "pass"
    assert eig_sizes == [32]


def _record_builds(monkeypatch, attr):
    built = []
    orig = getattr(algebra_mod, attr)
    monkeypatch.setattr(algebra_mod, attr, lambda A: built.append(A) or orig(A))
    return built


def _record_names(monkeypatch):
    names = []
    orig = algebra_mod._classify

    def counted(*args):
        name, basis = orig(*args)
        names.append(name)
        return name, basis

    monkeypatch.setattr(algebra_mod, "_classify", counted)
    return names


def test_h8_verify_builds_the_simple_blocks_once(monkeypatch):
    """The split, the seminorm test of the spectral radius and the
    characters read one cached block decomposition and its names: verify
    with both seminorms on one H^8 builds it, and names each block, once."""
    blocks = _record_builds(monkeypatch, "_simple_blocks")
    splits = _record_builds(monkeypatch, "_spectral_split")
    names = _record_names(monkeypatch)
    A = corpus.function_algebra_H(8)
    for p in (SpectralRadius(), CharacterSup(tuple(corpus.known_characters(A)))):
        rep = verify_theorem(A, p, PipelineConfig(seed=0))
        assert rep.verdict == "pass" and rep.character_count == 8
    assert splits == [A]
    assert blocks == [A]
    assert names == ["H"] * 8


def test_fuzz_chunk_builds_one_record_per_product(monkeypatch):
    """fuzz builds each product once per call, and each product's split
    and simple blocks at most once; below the crossover B stays one block
    and no simple blocks are built."""
    eig_sizes = _record_eig_sizes(monkeypatch)
    splits = _record_builds(monkeypatch, "_spectral_split")
    blocks = _record_builds(monkeypatch, "_simple_blocks")
    summary = fuzz(PipelineConfig(seed=42), iterations=50)
    assert splits and len({id(A) for A in splits}) == len(splits)
    assert len({id(A) for A in blocks}) == len(blocks)
    assert {id(A) for A in blocks} == {
        id(A) for A in splits if A.dim >= algebra_mod._BLOCKED_MIN_DIM}
    assert max(eig_sizes) < algebra_mod._BLOCKED_MIN_DIM
    # the summary of the dense code path before the split existed
    assert summary.to_dict() == {
        "iterations": 50, "seed": 42, "tol": 1e-09, "checked": 37,
        "square_rejections": 13,
        "kind_counts": {"spectral_radius": 19, "character_sup": 15,
                        "coordinate_max": 16},
        "counterexamples": []}
