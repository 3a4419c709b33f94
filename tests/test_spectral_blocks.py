"""Spectral radii on the blocks of A/rad(A) against the dense eigenvalue
formula they replace.

``spectral_radius_batch`` evaluates r(a) = r(pi(a)) on the diagonal blocks
of L_pi(a) on B = A / rad(A): on B's simple blocks when every one is
R, C or H (whose eigenvalues are one conjugate pair, as the norm |a W|
of a factor W of the quadratic form r^2 = (2 (tr M)^2 - d tr M^2) / d^2
on a d x d block M, built once into the division table), and on B as
one block, by eigenvalues, when a block is not R, C or H, when the
blocks fail their gate (invariance on the basis, independence,
dimensions summing to dim B) or when a solver stalls.  A direct sum
solves nothing of its own: its table is its parts' tables side by side,
each in that part's rows, with no table on the sum when a part has
none, and its blocks are its summands' blocks, so no path decomposes a
sum whole.  The dense formula (eigenvalues of the whole left
regular matrix, in the unitization of a non-unital A) is kept here as the
reference, at ordinary and extreme scales, on algebras with a radical, on
non-unital, M2(R) and nested parts and on non-finite rows, on R + C + H^4
in the basis 10^k e_i, k = -8 ... 8, and on H^4 and R + C + H^4 in bases
of condition number up to 100 (1000 on C + nonunital3).  A failed gate
and a single block give the dense numbers exactly, and each record is
built once per algebra.
"""

import collections
import contextlib
import io
import math
import sys

import numpy as np
import pytest
import scipy.optimize

from squareprop import algebra as algebra_mod
from squareprop import cli, corpus
from squareprop import spectral as spectral_mod
from squareprop.algebra import make_algebra, unitize
from squareprop.characters import non_division_block, nonexistence_explanation
from squareprop.pipeline import PipelineConfig, fuzz, verify_theorem
from squareprop.seminorm import (CharacterSup, SpectralRadius,
                                 check_submultiplicative)
from squareprop.spectral import (division_table, spectral_radius_batch,
                                 spectrum)

from oracles import block_widths
from transforms import (conditioned, in_basis, orthogonal, rotated,
                        write_algebra)


def _dense_radius(A, X):
    """The dense formula: the largest |eigenvalue| of L_x in the unital
    hull, one eigenvalue problem of the hull's size per row."""
    if not A.is_unital:
        A = unitize(A)
        X = np.hstack([np.zeros((X.shape[0], 1)), X])
    L = A.left_matrices_batch(X)
    return np.abs(np.linalg.eigvals(L)).max(axis=1)


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
    """R + C + H^4 after a change of basis: division blocks of each width."""
    A = corpus.direct_sum([corpus.reals(), corpus.complexes()] + _h(4))
    return rotated(A, 6)[0] if rotate else A


def _block_counts(table):
    """{d: K} over the blocks of a division table, or None without one.
    It keeps a factor four columns wide per block, whose width d is the
    number of its nonzero columns, which lead."""
    if table is None:
        return None
    nonzero = (table.reshape(len(table), -1, 4) != 0.0).any(axis=0)
    assert (nonzero[:, :-1] >= nonzero[:, 1:]).all()
    return dict(collections.Counter(int(w) for w in block_widths(table)))


def _rescaled(A, t):
    """A in the basis t e_i: table entries times t, unit over t."""
    unit = None if A.unit is None else A.unit / t
    return make_algebra(A.dim, A.labels, A.table * t, unit=unit,
                        name=f"{t:g} {A.name}")


# (algebra, relative bound, {block width: block count} of the division
# table, None without one); T2(R) and the null line of nonunital3 give A a
# radical
CASES = {
    "H8": (lambda: corpus.function_algebra_H(8), 1e-12, {4: 8}),
    "H16": (lambda: corpus.function_algebra_H(16), 1e-12, {4: 16}),
    "rotated_H8": (lambda: rotated(corpus.function_algebra_H(8), 3)[0],
                   1e-12, {4: 8}),
    "rotated_R+C+H4": (_mixed, 1e-12, {1: 1, 2: 1, 4: 4}),
    # a sum with an M2(R) part: each part's radii on its own columns
    "H4+M2R": (lambda: corpus.direct_sum(_h(4) + [corpus.m2_reals()]),
               1e-10, None),
    "H4+T2R": (lambda: corpus.direct_sum(_h(4) + [_t2r()]), 1e-10,
               {1: 2, 4: 4}),
    "rotated_H4+nonunital3": (lambda: rotated(corpus.direct_sum(
        _h(4) + [corpus.builtin("nonunital3")]), 5)[0], 1e-10, {1: 2, 4: 4}),
    # no sum, and a block that is not R, C or H: B is one block
    "rotated_H4+M2R": (lambda: rotated(corpus.direct_sum(
        _h(4) + [corpus.m2_reals()]), 3)[0], 1e-10, None),
    "rotated_M2R+M2R+C": (lambda: rotated(corpus.direct_sum(
        [corpus.m2_reals(), corpus.m2_reals(), corpus.complexes()]), 4)[0],
        1e-10, None),
}
# R + C + H^4, rotated or not, in the basis 10^k e_i
CASES.update({
    f"{'rotated_' if rotate else ''}R+C+H4_1e{k}": (
        lambda rotate=rotate, k=k: _rescaled(_mixed(rotate), 10.0 ** k),
        1e-12, {1: 1, 2: 1, 4: 4})
    for rotate in (False, True) for k in range(-8, 9)})
# H^4 and R + C + H^4 in bases of condition number 1, 10 and 100: the
# nonzero eigenvalues of a division block's quadratic form spread by up to
# kappa^2, and its top d eigenpairs still give r to the same bound
CASES.update({
    f"{name}_cond{kappa}": (
        lambda build=build, kappa=kappa: conditioned(build(), kappa),
        1e-12, sizes)
    for name, build, sizes in [
        ("H4", lambda: corpus.function_algebra_H(4), {4: 4}),
        ("R+C+H4", lambda: _mixed(False), {1: 1, 2: 1, 4: 4})]
    for kappa in (1, 10, 100)})


@pytest.mark.parametrize("name", sorted(CASES))
def test_blocked_radius_matches_dense(name):
    build, bound, sizes = CASES[name]
    A = build()
    table = division_table(A)
    assert _block_counts(table) == sizes
    assert table is None or table.shape[0] == A.dim
    X = np.random.default_rng(7).standard_normal((2000, A.dim))
    dense = _dense_radius(A, X)
    blocked = spectral_radius_batch(A, X)
    assert np.all(dense > 0.0)
    assert float(np.max(np.abs(blocked - dense) / dense)) <= bound


def test_blocked_spectrum_is_the_dense_multiset():
    """spectrum keeps the multiplicities, which the blocks of B do not: on
    a unital A with a radical and on a semisimple one it is eig(L_a)."""
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
    """The row norms, taken on Y/m with m = max|Y| per row, neither
    overflow nor underflow where the sum of squares of Y alone would."""
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
    """On a division table, on a sum without one, and on B as one block
    (H^2 with the invariance gate forced to fail, so that each part's B
    is one block)."""
    if name == "H2_dense":
        monkeypatch.setattr(spectral_mod, "_SPLIT_LEAK", -1.0)
        A = corpus.function_algebra_H(2)
    else:
        A = CASES[name][0]()
    assert (division_table(A) is not None) == (name == "H8")
    X = np.random.default_rng(15).standard_normal((4, A.dim))
    X[2, 1] = bad
    with pytest.raises(np.linalg.LinAlgError):
        _dense_radius(A, X)
    with pytest.raises(np.linalg.LinAlgError):
        spectral_radius_batch(A, X)


def test_non_finite_row_on_a_nil_part_raises():
    """A sum with no division table reads each part on its own columns,
    and a nil part reads none of its own: a NaN there still raises, as
    the dense formula does."""
    A = corpus.direct_sum([corpus.m2_reals(),
                           make_algebra(1, ["n"], {}, name="null line")])
    assert division_table(A) is None
    X = np.random.default_rng(15).standard_normal((4, A.dim))
    X[2, 4] = math.nan
    for radii in (_dense_radius, spectral_radius_batch):
        with pytest.raises(np.linalg.LinAlgError):
            radii(A, X)


def test_h8_radius_batch_calls_no_eigensolver(monkeypatch):
    """Every block of H^8 is a division block: once the division table is
    built, it holds a 32 x 4 factor per block, and the radii of a stack
    are one matmul and a row norm, with no eigvals and no einsum call."""
    A = corpus.function_algebra_H(8)
    assert division_table(A).shape == (32, 32)
    eig_sizes = _record_eig_sizes(monkeypatch)
    einsums = []
    orig = np.einsum
    monkeypatch.setattr(np, "einsum",
                        lambda *a, **k: einsums.append(a[0]) or orig(*a, **k))
    X = np.random.default_rng(16).standard_normal((200, A.dim))
    spectral_radius_batch(A, X)
    assert eig_sizes == [] and einsums == []


@pytest.mark.parametrize("leak", [-1.0, math.nan], ids=["negative", "nan"])
def test_failed_invariance_gate_gives_dense_numbers(monkeypatch, leak):
    monkeypatch.setattr(spectral_mod, "_SPLIT_LEAK", leak)
    A = rotated(corpus.function_algebra_H(8), 3)[0]
    assert division_table(A) is None
    X = np.random.default_rng(8).standard_normal((300, A.dim))
    assert np.array_equal(spectral_radius_batch(A, X), _dense_radius(A, X))


def test_single_block_gives_dense_numbers():
    A = _matrix_algebra(4)
    assert division_table(A) is None
    X = np.random.default_rng(9).standard_normal((300, A.dim))
    assert np.array_equal(spectral_radius_batch(A, X), _dense_radius(A, X))


# LAPACK's real QR iteration does not converge on L_q of this quaternion
# when L_q is laid out in C order
_STALLING_Q = np.array([0.01776737537132592, -0.1593314977115078,
                        -0.0126456452583658, 0.13573614522656216])


@pytest.mark.parametrize("points", [1, 4])
def test_stalled_qr_iteration_is_retried(points):
    """r from the factor of H's block, and spectrum from eigvals of
    L_a, which retries in complex arithmetic."""
    A = corpus.function_algebra_H(points)
    x = np.zeros((1, A.dim))
    x[0, :4] = _STALLING_Q
    r = spectral_radius_batch(A, x)[0]
    assert abs(r - np.linalg.norm(_STALLING_Q)) <= 1e-15
    assert abs(spectrum(A.element(x[0])).radius - r) <= 1e-15


@pytest.mark.parametrize("name", ["H8", "H8_unbuilt", "rrc"])
def test_every_real_eigvals_failure_is_retried(monkeypatch, name):
    """On the blocks and on B as one block; a real eigensolver that fails
    while the simple blocks are built leaves B as one block, on each part
    of a direct sum on its own."""
    A = corpus.builtin("rrc") if name == "rrc" else corpus.function_algebra_H(8)
    if name == "H8":
        assert division_table(A) is not None
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
        assert (division_table(A) is None) == (name == "H8_unbuilt")
    assert float(np.max(np.abs(got - want) / want)) <= 1e-12


def test_quotient_and_split_are_built_once_and_separately():
    """A / rad(A) is A itself when the radical is 0, and B = R + R on
    nonunital3, with B's own unit; the radical needs neither."""
    A = corpus.function_algebra_H(8)
    assert A.semisimple_quotient.algebra is A
    assert A.semisimple_quotient is A.semisimple_quotient
    N = corpus.nonunital_with_ideal()
    SpectralRadius().kernel(N)   # the radical, from N's own table
    built = {"_quotients", "unit", "_division_table"}
    assert not built & set(vars(N))
    B = N.semisimple_quotient.algebra
    assert N.semisimple_quotient is N.semisimple_quotient
    assert B.dim == N.dim - 1 and B.is_unital and not N.is_unital
    assert "_division_table" not in vars(N)
    assert division_table(A) is division_table(A)


def _skewed(A, t):
    """A in the basis t Q^T e_i for a seeded orthogonal Q: every table
    entry a sum of rounded products, the whole table scaled by t."""
    return in_basis(A, t * orthogonal(A.dim, 3), f"{t:g} skewed {A.name}")


_NIL = make_algebra(2, ["x", "x2"], {(0, 0, 1): 1.0}, name="x R[x]/(x^3)")


@pytest.mark.parametrize("t", [1.0, 1e-6, 1e6])
@pytest.mark.parametrize("name, radical, blocks", [
    ("rrc", 0, ["C", "R", "R"]), ("hc", 0, ["C", "H"]),
    ("nonunital3", 1, ["R", "R"]), ("nil", 2, [])])
def test_rank_cuts_follow_the_scale_of_the_table(name, radical, blocks, t):
    """Where the commutator or the trace form is 0 in exact arithmetic it
    is rounding of the size of the table, and the rank cuts of the center
    and the radical are taken on that size: a commutative table keeps its
    whole center, a nil one is all radical, at any scale.  A cut at 1e-10
    times the largest singular value alone counts that rounding as rank:
    the rrc blocks fail to build at t = 1 and are one M2(R) at t = 1e6,
    nonunital3's fail to build at t = 1e-6 and 1e6, and the nil radical
    is 1 at t = 1 and 1e6.  A / rad(A) holds the blocks alone, and is 0
    on the nil algebra."""
    A = _skewed(_NIL if name == "nil" else corpus.builtin(name), t)
    assert A.radical.shape[0] == radical
    assert sorted(b.name for b in A.simple_blocks) == blocks
    if radical < A.dim:
        assert A.semisimple_quotient.algebra.dim == A.dim - radical
    else:
        assert A.semisimple_quotient is None
        assert division_table(A).shape == (A.dim, 0)


def test_blocks_of_a_quotient_whose_unit_misses_the_gate():
    """C + nonunital3 in a basis of condition 1000: its A / rad(A), rounded
    through that change of basis, misses the unit gate by rounding, and
    the least-squares unit the gate refuses still cuts out its blocks.
    The radii match the dense formula to the rounding such a basis brings
    (2e-10)."""
    A = conditioned(corpus.direct_sum(
        [corpus.complexes(), corpus.builtin("nonunital3")]), 1000)
    assert not A.semisimple_quotient.algebra.is_unital
    assert sorted(b.name for b in A.simple_blocks) == ["C", "R", "R"]
    X = np.random.default_rng(7).standard_normal((500, A.dim))
    dense = _dense_radius(A, X)
    got = spectral_radius_batch(A, X)
    assert float(np.max(np.abs(got - dense) / dense)) <= 1e-9


# -- unital algebras with a radical ----------------------------------------

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
    A = rotated(_truncated_polynomials(k), 1)[0]
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


NO_UNIT = {
    "nonunital3": lambda: corpus.builtin("nonunital3"),
    "rotated_H4+nonunital3": CASES["rotated_H4+nonunital3"][0],
    "null_line": lambda: make_algebra(1, ["n"], {}, name="null line"),
}


@pytest.mark.parametrize("name", sorted(NO_UNIT))
def test_no_library_path_unitizes(monkeypatch, tmp_path, capsys, name):
    """verify with the spectral radius and characters, on a file without a
    unit, read A / rad(A), which has its own unit: neither builds the
    unitization.  The null line is nil, so verify stops on a seminorm
    that vanishes on A (exit 2)."""
    A = NO_UNIT[name]()
    path = write_algebra(tmp_path / "a.json", A, unit=False)
    calls = _count_unitize(monkeypatch)
    codes = [cli.run(["verify", "--algebra", path, "--seminorm",
                      "spectral_radius", "--format", "json"]),
             cli.run(["characters", "--algebra", path])]
    capsys.readouterr()
    assert codes == [2 if name == "null_line" else 0, 0]
    assert calls == []


@pytest.mark.parametrize("name", corpus.builtin_names()
                         + ["rotated_H4+nonunital3"])
def test_semisimple_quotient_is_a_by_its_radical(name):
    """B = A / rad(A), which has a unit of its own: 2-dimensional on
    nonunital3, where the quotient of its unitization was 3-dimensional."""
    A = NO_UNIT[name]() if name in NO_UNIT else corpus.builtin(name)
    B = A.semisimple_quotient.algebra
    assert B.dim == A.dim - len(A.radical) and B.is_unital
    assert sum(b.V.shape[1] for b in A.simple_blocks) == B.dim


@pytest.mark.parametrize("name", ["nonunital3", "rotated_hc+nonunital3",
                                  "rotated_H4+nonunital3"])
def test_nonunital_radius_equals_hull_formula(name):
    A = {
        "nonunital3": lambda: corpus.builtin("nonunital3"),
        "rotated_hc+nonunital3": lambda: rotated(corpus.direct_sum(
            [corpus.builtin("hc"), corpus.builtin("nonunital3")]), 4)[0],
        "rotated_H4+nonunital3": lambda: rotated(corpus.direct_sum(
            _h(4) + [corpus.builtin("nonunital3")]), 5)[0],
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
        A = rotated(corpus.direct_sum([corpus.builtin("hc"), A]), 4)[0]
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


# -- structural guard: which solver each workload reaches ----------------

def _record_eig_sizes(monkeypatch):
    sizes = []
    orig = np.linalg.eigvals

    def recorded(M):
        sizes.append(np.shape(M)[-1])
        return orig(M)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    return sizes


def test_h8_spectral_radius_asks_only_for_small_eigenproblems(monkeypatch):
    """Once H^8's division table is built (its one-time eigenproblem is on
    the center), every radius the proof chain asks for comes from the
    factors of its 4 x 4 blocks; the one eigenproblem left is stage 8's
    Proposition 3.1 check, one stacked eigvals call on the 20 matrices
    L_a, 32 x 32."""
    A = corpus.function_algebra_H(8)
    assert division_table(A) is not None
    eig_sizes = _record_eig_sizes(monkeypatch)
    rep = verify_theorem(A, SpectralRadius(), PipelineConfig(seed=0))
    assert rep.verdict == "pass"
    assert eig_sizes == [32]


def _record_builds(monkeypatch, attr, module=algebra_mod):
    """The first argument of every call of module.<attr>."""
    built = []
    orig = getattr(module, attr)
    monkeypatch.setattr(module, attr,
                        lambda A, *args: built.append(A) or orig(A, *args))
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
    """H^8 repeats one H.  Its division table is H's table eight times,
    and the seminorm test of the spectral radius and the characters read
    H's blocks too.  verify with both seminorms builds each table once and
    decomposes and names H alone, once."""
    blocks = _record_builds(monkeypatch, "_simple_blocks")
    tables = _record_builds(monkeypatch, "_division_table", spectral_mod)
    names = _record_names(monkeypatch)
    A = corpus.function_algebra_H(8)
    (H,) = set(A._parts)
    for p in (SpectralRadius(), CharacterSup(tuple(corpus.known_characters(A)))):
        rep = verify_theorem(A, p, PipelineConfig(seed=0))
        assert rep.verdict == "pass" and rep.character_count == 8
    assert tables == [A, H]
    assert blocks == [H]
    assert names == ["H"]


def test_fuzz_chunk_builds_one_record_per_product(monkeypatch):
    """fuzz builds R, C and H once per call, forms every product from
    them, and checks its instances on R, C and H alone: the simple blocks
    and the division tables are built on R, C and H, once each, every
    radius comes from the factors of their blocks, with no eigvals call,
    and no product builds square probes, a division table or the matrix of
    its nonzero products."""
    eig_sizes = _record_eig_sizes(monkeypatch)
    tables = _record_builds(monkeypatch, "_division_table", spectral_mod)
    blocks = _record_builds(monkeypatch, "_simple_blocks")
    sums, orig = [], corpus.direct_sum
    monkeypatch.setattr(corpus, "direct_sum",
                        lambda parts, **kw: sums.append(orig(parts, **kw))
                        or sums[-1])
    summary = fuzz(PipelineConfig(seed=42), iterations=50)
    assert sorted(A.name for A in tables) == ["C", "H", "R"]
    assert sorted(A.name for A in blocks) == ["C", "H", "R"]
    assert not any(A._parts for A in blocks)
    assert {id(A) for A in tables} == {id(A) for A in blocks}
    assert sums and not any(
        {"_square_probes", "_division_table", "_nonzero_products"}
        & set(vars(A)) for A in sums)
    assert eig_sizes == []
    # the summary of the dense code path before the division table existed
    assert summary.to_dict() == {
        "iterations": 50, "seed": 42, "tol": 1e-09, "checked": 37,
        "square_rejections": 13,
        "kind_counts": {"spectral_radius": 19, "character_sup": 15,
                        "coordinate_max": 16},
        "counterexamples": []}


# -- direct sums: the parts' tables side by side --------------------------

def _scaled_parts(k):
    """R, C and H^2 in the basis 10^k e_i, and H in the basis 10^-k e_i."""
    t = 10.0 ** k
    return corpus.direct_sum([
        _rescaled(corpus.reals(), t), _rescaled(corpus.complexes(), t),
        _rescaled(corpus.function_algebra_H(2), t),
        _rescaled(corpus.quaternions(), 1.0 / t)])


# (sum, {block width: block count} of the division table, None without
# one); a non-unital part adds the blocks of its A / rad(A) alone
SUMS = {
    "H+nonunital3": (lambda: corpus.direct_sum(
        [corpus.quaternions(), corpus.nonunital_with_ideal()]), {1: 2, 4: 1}),
    "H4+M2R": (lambda: corpus.direct_sum(_h(4) + [corpus.m2_reals()]),
               None),
    "R[x]/(x^2)+C": (lambda: corpus.direct_sum(
        [_truncated_polynomials(2), corpus.complexes()]), {1: 1, 2: 1}),
    "sum_of_sums": (lambda: corpus.direct_sum([
        corpus.builtin("hc"),
        corpus.direct_sum([corpus.reals(), corpus.nonunital_with_ideal()]),
        rotated(corpus.builtin("rrc"), 2)[0], corpus.quaternions()]),
        {1: 5, 2: 2, 4: 2}),
}
SUMS.update({f"scaled_parts_1e{k}": (
    lambda k=k: _scaled_parts(k), {1: 1, 2: 1, 4: 3}) for k in range(-8, 9)})


@pytest.mark.parametrize("name", sorted(SUMS))
def test_direct_sum_split_is_its_parts_splits(name):
    """The division table of a sum is assembled from its parts' tables,
    with no quotient, block or solve of its own: each part's table sits
    in its rows, zero elsewhere, in part order, and a part without one
    leaves the sum without one.  Its radii match the dense formula on
    rows over the whole sum and on rows in one part, where each part is
    read at its own scale."""
    build, sizes = SUMS[name]
    A = build()
    table = division_table(A)
    assert "_quotients" not in vars(A)
    assert "simple_blocks" not in vars(A)
    assert _block_counts(table) == sizes
    offsets = np.cumsum([0] + [P.dim for P in A._parts])
    if table is not None:
        want = []
        for P, off in zip(A._parts, offsets):
            T = division_table(P)
            rows = np.zeros((A.dim, T.shape[1]))
            rows[off:off + P.dim] = T
            want.append(rows)
        assert np.array_equal(table, np.hstack(want))
    rng = np.random.default_rng(18)
    X = rng.standard_normal((500, A.dim))
    stacks = [X]
    for P, off in zip(A._parts, offsets):
        Y = np.zeros_like(X)
        Y[:, off:off + P.dim] = X[:, off:off + P.dim]
        stacks.append(Y)
    for Y in stacks:
        dense = _dense_radius(A, Y)
        got = spectral_radius_batch(A, Y)
        assert np.all(dense > 0.0)
        assert float(np.max(np.abs(got - dense) / dense)) <= 1e-12


# -- direct sums: blocks from the summands ---------------------------------

def _nested():
    return corpus.direct_sum([
        corpus.direct_sum([corpus.nonunital_with_ideal(), corpus.m2_reals()]),
        corpus.quaternions()])


def _decomposed(A):
    """A and the sums nested in it that hold blocks or a quotient table of
    their own (the identity map that verify keeps for a zero kernel is
    the sum itself, and builds no table)."""
    sums = [A] if A._parts else []
    for P in A._parts:
        sums += _decomposed(P)
    return [S for S in sums if "simple_blocks" in vars(S)
            or any(qm.algebra is not S
                   for qm in vars(S).get("_quotients", {}).values())]


def test_summands_flatten_nested_sums_depth_first():
    inner = corpus.direct_sum([corpus.nonunital_with_ideal(),
                               corpus.m2_reals()])
    H = corpus.quaternions()
    A = corpus.direct_sum([corpus.reals(), inner, H])
    assert [(off, P.name) for off, P in A.summands] == [
        (0, "R"), (1, "R(+)R(+)null"), (4, "M2(R)"), (8, "H")]
    assert A.summands[-1][1] is H and H.summands == ((0, H),)


def _in_scale(build, s):
    A = build()
    return in_basis(A, 10.0 ** s * np.eye(A.dim), name=f"{A.name}(1e{s})")


# two-part sums whose parts are written at far-apart scales; the sum's
# own blocks, decomposed whole, named a block of C or H as M2(R) or as a
# simple block of dim 2 with center dim 1
RESCALED_SUMS = {
    "C(1e-5)+H(1e5)": ((corpus.complexes, -5), (corpus.quaternions, 5)),
    "R(1e9)+H(1e-9)": ((corpus.reals, 9), (corpus.quaternions, -9)),
    "C+H(1e9)": ((corpus.complexes, 0), (corpus.quaternions, 9)),
}


@pytest.mark.parametrize("name", sorted(RESCALED_SUMS))
def test_rescaled_sums_pass_with_the_spectral_radius(name):
    """The spectral radius is a seminorm on a sum of R, C and H at any
    scale: the seminorm test reads each part's blocks at its own scale."""
    A = corpus.direct_sum([_in_scale(build, s)
                           for build, s in RESCALED_SUMS[name]])
    rep = verify_theorem(A, SpectralRadius(), PipelineConfig(seed=0))
    assert rep.verdict == "pass", rep.notes
    assert _decomposed(A) == []


# (sum, its first non-division block); blocks sort by dimension, then name,
# so the R blocks of each part's A / rad(A) come first
NON_DIVISION_SUMS = {
    "M2R+R": (lambda: corpus.direct_sum([corpus.m2_reals(), corpus.reals()]),
              (1, "M2(R)")),
    "nonunital3+M2R+H": (_nested, (3, "M2(R)")),
    "2nonunital3+M2R": (lambda: corpus.direct_sum(
        [corpus.nonunital_with_ideal()] * 2 + [corpus.m2_reals()]),
        (4, "M2(R)")),
    "H4+M2R": (lambda: corpus.direct_sum(_h(4) + [corpus.m2_reals()]),
               (4, "M2(R)")),
    "hc": (lambda: corpus.builtin("hc"), None),
}


@pytest.mark.parametrize("name", sorted(NON_DIVISION_SUMS))
def test_non_division_block_of_a_sum_is_read_from_its_summands(name):
    """A sum names the block that a copy of its table, which is no sum and
    is decomposed whole, names, and decomposes nothing of its own."""
    build, want = NON_DIVISION_SUMS[name]
    A = build()
    assert non_division_block(A) == want
    assert _decomposed(A) == []
    copy = in_basis(A, np.eye(A.dim), unit=False)
    assert non_division_block(copy) == want


def test_nested_sum_with_an_m2r_leaf_is_no_seminorm():
    """The spectral radius on a nested sum with an M2(R) leaf stops with
    hypothesis_not_met (exit code 3) and names the M2(R) block."""
    A = _nested()
    rep = verify_theorem(A, SpectralRadius(), PipelineConfig(seed=0))
    assert rep.verdict == "hypothesis_not_met"
    assert "block 3 of A/rad(A) is M2(R)" in rep.notes[0]
    assert _decomposed(A) == []


def _h16_verify(seminorm):
    A = corpus.function_algebra_H(16)
    rep = verify_theorem(A, seminorm(A), PipelineConfig(seed=0))
    assert rep.verdict == "pass"


def _explain_sum():
    """H + a rotated M2(R), whose basis holds no nilpotent: the
    explanation names the M2(R) block."""
    A = corpus.direct_sum([corpus.quaternions(),
                           rotated(corpus.m2_reals(), 0)[0]])
    assert "block 1 of A/rad(A) is M2(R)" in nonexistence_explanation(A)


def _characters_h2():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["characters", "--algebra", "h2"]) == 0


@pytest.mark.parametrize("run", [
    lambda: _h16_verify(lambda A: SpectralRadius()),
    lambda: _h16_verify(
        lambda A: CharacterSup(tuple(corpus.known_characters(A)))),
    _explain_sum, _characters_h2],
    ids=["H16_spectral_radius", "H16_character_sup",
         "nonexistence_explanation", "characters_h2"])
def test_no_path_decomposes_a_sum_whole(monkeypatch, run):
    """verify, the explanation of an empty character set and the
    characters command read a sum's blocks from its summands: neither
    _simple_blocks nor _classify runs on a sum."""
    blocks = _record_builds(monkeypatch, "_simple_blocks")
    classified = _record_builds(monkeypatch, "_classify")
    run()
    assert blocks and not any(A._parts for A in blocks + classified)
