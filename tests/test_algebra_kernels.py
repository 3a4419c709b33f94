"""The matrix-product kernels of ``algebra`` against the dense einsums and
Python loops they replaced, which are kept here as the references."""

import functools
import json
import re
import tracemalloc

import numpy as np
import pytest

from squareprop import algebra, cli, corpus, pipeline
from squareprop.algebra import (ASSOC_TOL, IDEAL_TOL, AlgebraError,
                                AssociativityViolation, BadUnit,
                                left_regular_matrix, make_algebra, quotient,
                                subspace_is_two_sided_ideal)
from squareprop.seminorm import ComponentSup

from transforms import rotated, write_algebra


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
    A, _ = rotated(base, 5)
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
    A, _ = rotated(base, 7)
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


# -- associativity inherited by the unitization and by direct sums -------

def _h2_nonunital3():
    return corpus.direct_sum([corpus.quaternions()] * 2
                             + [corpus.nonunital_with_ideal()])


def _inheritance_cases():
    cases = [(name, corpus.builtin(name)) for name in corpus.builtin_names()]
    cases.append(("rotated nonunital3",
                  rotated(corpus.builtin("nonunital3"), 12)[0]))
    cases.append(("rotated H2+nonunital3", rotated(_h2_nonunital3(), 13)[0]))
    return cases


INHERITANCE_CASES = _inheritance_cases()


def _assert_inherits(table, parts):
    """The dense defect of table is within its tolerance, and equal to the
    worst of the parts' defects up to the rounding of the check."""
    worst, _, tol = _dense_assoc(table)
    checks = [_dense_assoc(part.table) for part in parts]
    assert all(t <= tol for _, _, t in checks)
    assert worst <= tol
    rounding = 8 * np.finfo(float).eps * (1.0 + np.abs(table).max()) ** 2
    assert abs(worst - max(w for w, _, _ in checks)) <= rounding


@pytest.mark.parametrize("label, A", INHERITANCE_CASES,
                         ids=[c[0] for c in INHERITANCE_CASES])
def test_unitize_inherits_the_associativity_check(label, A):
    _assert_inherits(algebra.unitize(A).table, [A])


def test_direct_sum_inherits_the_associativity_check():
    parts = [rotated(corpus.builtin(name), seed)[0] for name, seed in
             (("quaternions", 14), ("nonunital3", 15), ("m2_reals", 16),
              ("complexes", 17))]
    parts.append(rotated(_h2_nonunital3(), 18)[0])
    _assert_inherits(corpus.direct_sum(parts).table, parts)


@pytest.fixture
def assoc_checks(monkeypatch):
    """The dims of the tables that run the dense associativity check."""
    dims = []
    check = algebra.FiniteDimRealAlgebra._check_associativity

    def counted(self):
        dims.append(self.dim)
        return check(self)

    monkeypatch.setattr(algebra.FiniteDimRealAlgebra, "_check_associativity",
                        counted)
    return dims


def test_hull_and_direct_sum_run_no_associativity_check(assoc_checks):
    A, _ = rotated(_h2_nonunital3(), 19)
    parts = [corpus.quaternions(), A, corpus.builtin("rrc")]
    assoc_checks.clear()
    hull = algebra.unitize(A)
    assert hull.is_unital and hull.dim == A.dim + 1
    assert corpus.direct_sum(parts).dim == 4 + A.dim + 4
    assert assoc_checks == []


def test_make_algebra_and_quotient_check_once(assoc_checks):
    A = corpus.builtin("nonunital3")
    assoc_checks.clear()
    B = make_algebra(A.dim, A.labels, A.table)
    assert assoc_checks == [3]
    # a quotient's certificate vouches for its table: no dense check (see
    # test_quotient_falls_back_to_the_dense_check for one that runs it)
    for V, unital in (([[0, 0, 1]], True), ([[1, 0, 0]], False)):
        assoc_checks.clear()
        assert quotient(B, V).algebra.is_unital is unital
        assert assoc_checks == []


def test_algebra_file_without_unit_is_checked_once(tmp_path, assoc_checks):
    A = corpus.builtin("hc")
    path = write_algebra(tmp_path / "hc.json", A, unit=False)
    assoc_checks.clear()
    loaded = cli.load_algebra(path)
    assert assoc_checks == [A.dim]
    assert np.array_equal(loaded.unit, A.unit)


NON_ASSOCIATIVE = {(0, 0, 1): 1.0, (1, 0, 0): 1.0}   # (e0 e0) e0 = e0, e0 e1 = 0


def test_non_associative_tables_still_raise(tmp_path, capsys):
    message = r"^\(e0 e0\) e0 != e0 \(e0 e0\): coefficient 0 differs by"
    with pytest.raises(AssociativityViolation, match=message):
        make_algebra(2, ["a", "b"], NON_ASSOCIATIVE)
    with pytest.raises(AssociativityViolation, match=message):
        algebra.FiniteDimRealAlgebra(2, ["a", "b"], NON_ASSOCIATIVE)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 2, "basis": ["a", "b"],
        "table": [[*ijk, v] for ijk, v in NON_ASSOCIATIVE.items()]}))
    assert cli.run(["verify", "--algebra", str(path), "--seminorm",
                    "spectral_radius"]) == 2
    assert "(e0 e0) e0 != e0 (e0 e0)" in capsys.readouterr().err


# -- unit, ideal, quotient and batch products ---------------------------

def _loop_first_bad_unit(c, u):
    """The unit gate as a loop: the first j with u e_j or e_j u off e_j by
    more than UNIT_TOL (1 + s), s the largest sum over i of |u_i c[i,j,k]|
    or of |u_i c[j,i,k]|."""
    n = c.shape[0]
    s = max(max(sum(abs(u[i] * c[i, j, k]) for i in range(n)),
                sum(abs(u[i] * c[j, i, k]) for i in range(n)))
            for j in range(n) for k in range(n))
    tol = algebra.UNIT_TOL * (1.0 + s)
    for j in range(n):
        ej = np.eye(n)[j]
        left = np.einsum("i,j,ijk->k", u, ej, c)
        right = np.einsum("i,j,ijk->k", ej, u, c)
        if not (np.abs(left - ej).max() <= tol
                and np.abs(right - ej).max() <= tol):
            return j
    return None


@pytest.mark.parametrize("case", ["t2r_hc_drop_c", "rotated_t2r_hc",
                                  "nonunital3", "nonunital3_null_line"])
def test_bad_unit_message_matches_loop(case):
    if case == "t2r_hc_drop_c":
        A = _t2r_hc()
        u = A.unit.copy()
        u[7] = 0.0  # identity on everything but the C block
    elif case == "rotated_t2r_hc":
        A, Q = rotated(_t2r_hc(), 2)
        u = A.unit + 1e-9 * Q[4]
    elif case == "nonunital3":
        A = corpus.builtin("nonunital3")
        u = np.array([1.0, 1.0, 0.0])
    else:   # a huge component on the null line multiplies only zeros
        A = corpus.builtin("nonunital3")
        u = np.array([1.0, 1.0, 1e13])
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
    A, Q = rotated(_t2r_hc(), 3)
    m2, Qm = rotated(corpus.m2_reals(), 4)
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
        assert np.abs(qm.algebra.unit
                      - algebra._solve_unit(ref)).max() <= 1e-9


def test_dependent_rows_span_their_rank():
    rrc = corpus.builtin("rrc")
    # (e0 + e1) e0 = e0 leaves span{e0 + e1}, however often it is listed
    assert subspace_is_two_sided_ideal(rrc, [[1, 1, 0, 0]]) is False
    assert subspace_is_two_sided_ideal(rrc, [[1, 1, 0, 0], [2, 2, 0, 0]]) \
        is False
    once = quotient(rrc, [[0, 1, 0, 0]])
    twice = quotient(rrc, [[0, 1, 0, 0], [0, 2, 0, 0]])
    assert twice.algebra.dim == once.algebra.dim == 3
    assert np.abs(twice.algebra.table - once.algebra.table).max() <= 1e-15
    # span{0} = 0: the identity map, as for an empty V
    assert subspace_is_two_sided_ideal(rrc, [[0, 0, 0, 0]])
    zero = quotient(rrc, [[0, 0, 0, 0]])
    assert zero.algebra is rrc and np.array_equal(zero.projection, np.eye(4))
    # rows of full rank are kept as they are
    for _, A, V in IDEALS:
        V = np.atleast_2d(np.asarray(V, dtype=float))
        assert algebra._row_basis(V, A.dim) is V


def test_quotient_cuts_v_and_takes_its_qr_once(monkeypatch):
    """quotient hands its own cut of V and the QR of it to the ideal gate,
    so neither is taken twice; the public ideal check takes each once."""
    A = corpus.builtin("nonunital3")
    calls = []
    for name in ("svd", "qr"):
        orig = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda *a, name=name, orig=orig, **k: calls.append(name)
            or orig(*a, **k))
    qm = quotient(A, [[0, 0, 1]])
    assert sorted(calls) == ["qr", "svd"]
    calls.clear()
    assert subspace_is_two_sided_ideal(A, [[0, 0, 1]])
    assert sorted(calls) == ["qr", "svd"]
    assert qm.algebra.dim == 2 and qm.algebra.is_unital


# -- a quotient certifies its own associativity -------------------------

def _rotated_sum(k, seed):
    """H^k (+) nonunital3 in a dense basis, and that basis (see rotated)."""
    return rotated(corpus.direct_sum([corpus.quaternions()] * k
                                     + [corpus.nonunital_with_ideal()]), seed)


def _verify_quotient():
    """(A, V) of the quotient verify builds for nonunital3 with
    component_sup:0,1."""
    built = []

    def spy(A, V):
        built.append((A, V))
        return quotient(A, V)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "quotient", spy)
        report = pipeline.verify_theorem(corpus.builtin("nonunital3"),
                                         ComponentSup((0, 1)))
    assert report.verdict == "pass" and len(built) == 1
    return built[0]


def _quotient_of_a_quotient():
    """A / rad(A) of a rotated sum, by one of its H blocks."""
    A = _rotated_sum(2, 24)[0]
    return A.semisimple_quotient.algebra, A.simple_blocks[-1].V.T


def _by_radical(k, seed, hull):
    """(A, rad A) or (hull, rad(hull)) of _rotated_sum(k, seed), where hull
    is its unitization: no library path quotients it, but its table, with
    the exact 0s and 1s of the unit's row, is one more the certificate
    must bound."""
    A = _rotated_sum(k, seed)[0]
    A = algebra.unitize(A) if hull else A
    return A, A.radical


def _certified_cases():
    cases = [(label, lambda A=A, V=V: (A, V)) for label, A, V in IDEALS]
    for k in (2, 8):
        for seed in (21, 22):
            cases += [(f"H{k}+nonunital3 seed {seed}: A/rad A",
                       functools.partial(_by_radical, k, seed, False)),
                      (f"H{k}+nonunital3 seed {seed}: hull/rad(hull)",
                       functools.partial(_by_radical, k, seed, True))]
    return cases + [("verify nonunital3 component_sup:0,1", _verify_quotient),
                    ("quotient of a quotient", _quotient_of_a_quotient)]


CERTIFIED = _certified_cases()


@pytest.mark.parametrize("label, build", CERTIFIED,
                         ids=[c[0] for c in CERTIFIED])
def test_quotient_certificate_bounds_the_dense_defect(label, build,
                                                      assoc_checks):
    A, V = build()
    assoc_checks.clear()
    B = quotient(A, V).algebra
    assert assoc_checks == []
    worst, _, tol = _dense_assoc(B.table)
    assert worst <= B._assoc_bound
    assert B._assoc_bound + algebra._check_rounding(B.table) <= tol


def test_quotient_falls_back_to_the_dense_check(assoc_checks):
    """A table whose defect is 0.9 of its tolerance passes make_algebra,
    and its quotient's certificate, scaled by ||proj|| ||S||^3 > 1, cannot
    vouch: the dense check runs and decides, as it does on every table."""
    A, Q = _rotated_sum(2, 23)
    c = A.table.copy()
    d0, _, tol = _dense_assoc(c)
    c[0, 0, 0] += 1e-6
    slope = (_dense_assoc(c)[0] - d0) / 1e-6
    c[0, 0, 0] = A.table[0, 0, 0] + 0.9 * tol / slope
    worst = _dense_assoc(c)[0]
    assert 0.8 * tol < worst <= tol
    assoc_checks.clear()
    B = make_algebra(A.dim, A.labels, c)
    assert assoc_checks == [A.dim]
    assert worst <= B._assoc_bound
    assoc_checks.clear()
    qm = quotient(B, Q[[10]])      # the null line of nonunital3
    assert assoc_checks == [A.dim - 1]
    S, proj = qm.lift, qm.projection
    ref = np.einsum("ia,jb,ijk,qk->abq", S, S, c, proj)
    assert np.abs(qm.algebra.table - ref).max() <= 1e-14
    worst, _, tol = _dense_assoc(qm.algebra.table)
    assert worst <= tol and worst <= qm.algebra._assoc_bound


@pytest.mark.parametrize("n, q", [(3, 2), (11, 10), (20, 8), (36, 35),
                                  (64, 61)])
def test_quotient_einsum_contracts_one_index_at_a_time(n, q):
    """The quotient's table takes the path optimize=True would, so it keeps
    its bits; the certificate bounds its rounding by gamma_3n, as each
    contraction on that path sums over one index of n."""
    operands = [np.zeros(s) for s in ((n, q), (n, q), (n, n, n), (q, n))]
    path, text = np.einsum_path("ia,jb,ijk,qk->abq", *operands,
                                optimize=True)
    assert path == algebra._QUOTIENT_PATH
    steps = re.findall(r"^\s*\d+\s+(\S+->\S+)\s+\S+$", text, re.M)
    assert len(steps) == 3
    for step in steps:
        inputs, output = step.split("->")
        assert len(set(inputs.replace(",", "")) - set(output)) == 1, step


def test_inherited_bounds():
    A = rotated(_h2_nonunital3(), 19)[0]
    assert _dense_assoc(A.table)[0] <= A._assoc_bound
    assert algebra.unitize(A)._assoc_bound == A._assoc_bound
    parts = [corpus.quaternions(), A, corpus.builtin("rrc")]
    assert corpus.direct_sum(parts)._assoc_bound \
        == max(p._assoc_bound for p in parts)


@pytest.mark.parametrize("name", ["t2r_hc", "rotated_t2r_hc", "nonunital3"])
def test_batch_products_match_scalar(name):
    if name == "nonunital3":
        A = corpus.builtin(name)
    else:
        A = _t2r_hc() if name == "t2r_hc" else rotated(_t2r_hc(), 6)[0]
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


# -- products on the table's nonzeros -----------------------------------

def _sparse_file_algebra(tmp_path):
    """T2(R) (+) M2(R) (+) R read from a file of [i, j, k, value] rows."""
    base = corpus.direct_sum([_t2r_hc()._parts[0], corpus.m2_reals(),
                              corpus.reals()])
    return cli.load_algebra(write_algebra(tmp_path / "sparse.json", base))


def _nonzero_cases():
    nested = corpus.direct_sum([
        corpus.direct_sum([corpus.nonunital_with_ideal(),
                           corpus.m2_reals()]),
        corpus.quaternions()])
    return ([(name, corpus.builtin(name)) for name in corpus.builtin_names()]
            + [(f"H{n}", corpus.function_algebra_H(n)) for n in (2, 4, 8)]
            + [("nonunital3+M2R+H", nested)])


NONZERO_CASES = _nonzero_cases()


def _dense_products(A, X, Y):
    """The dense contraction: row s is Y[s] @ L_(X[s])^T."""
    return np.matmul(Y[:, None], A._left_rows(X))[:, 0]


@pytest.mark.parametrize("label, A", NONZERO_CASES + [("file", None)],
                         ids=[c[0] for c in NONZERO_CASES] + ["file"])
def test_nonzero_products_match_dense(label, A, tmp_path):
    if A is None:
        A = _sparse_file_algebra(tmp_path)
    n, nnz = A.dim, np.count_nonzero(A.table)
    # the table's nonzeros are multiplied iff there are fewer than n^2
    assert (A._nonzero_products is None) == (nnz >= n * n)
    if label in ("file", "nonunital3+M2R+H") or label.startswith("H"):
        assert A._nonzero_products is not None
    rng = np.random.default_rng(12)
    X = 10.0 ** rng.uniform(-3, 3, (300, n)) * rng.standard_normal((300, n))
    Y = 10.0 ** rng.uniform(-3, 3, (300, n)) * rng.standard_normal((300, n))
    scale = np.abs(X).max() * np.abs(Y).max() * np.abs(A.table).max()
    err = np.abs(A.mul_coords_batch(X, Y) - _dense_products(A, X, Y)).max()
    assert err <= 1e-14 * scale


@pytest.mark.parametrize("name", ["hc", "h2", "rrc", "nonunital3"])
def test_dense_table_keeps_the_dense_bits(name):
    A, _ = rotated(corpus.builtin(name), 4)
    assert A._nonzero_products is None
    rng = np.random.default_rng(13)
    X, Y = rng.standard_normal((2, 200, A.dim))
    assert np.array_equal(A.mul_coords_batch(X, Y), _dense_products(A, X, Y))
