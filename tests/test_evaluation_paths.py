"""One evaluation path per concept, checked against the loops it replaced.

Seminorm variants implement only the batched ``values``; ``value`` is
derived from it, and the ratio scan evaluates the basis once, not on each
of its n^2 pairs.  ``gelfand_radius`` and pipeline stage 6 consume the one
repeated-squaring generator ``log_square_norms``; stages 4 and 5 evaluate
their samples in blocks, and stages 6 and 7 square one stack each, every
row of it the one-element call.  The per-variant scalar formulas, the old
``gelfand_radius`` loop and the old per-sample loops of stages 4-7 are
kept here as references, and so are the three-operand einsums that
``character_residual`` and the block classifier ran before they became
``qmul`` and matmuls, the list comprehensions that built the
square-check probes, and the probes at scales 1, 2 and 8 that the square
check evaluated before it kept scale 8 alone.
The probe squares and the basis-pair products that the checks read from
the table are checked against ``mul_coords_batch``.  Stage 8 evaluates
one stack of rows; its per-element loop, with the per-element Proposition
3.1 check, is kept as a reference too, and so are ComponentSup's own
max-abs formula and kernel from before it became CoordinateMax with 0/1
weights.  The element-wise calls (mul, left_regular_matrix,
x(a) = a.coords @ x, j_evaluate and the default norm of gelfand_radius)
are one-row views of the batched kernels, bit for bit.
"""

import copy
import math

import numpy as np
import pytest

from squareprop import corpus, pipeline
from squareprop.algebra import (FiniteDimRealAlgebra, _classify, _nullspace,
                                left_regular_matrix, make_algebra, mul,
                                quotient)
from squareprop.characters import character_residual, find_characters
from squareprop.pipeline import PipelineConfig, verify_theorem
from squareprop.quaternion import (HAMILTON, qnorm, qspectrum,
                                   random_unit_quaternion)
from squareprop.seminorm import (RATIO_FLOOR, CharacterSup, ComponentSup,
                                 CoordinateMax, CoordinateSum, OperatorNorm,
                                 PayloadMismatch, SeminormVariant,
                                 SpectralRadius, _ratio_scan, _square_probes,
                                 estimate_m, kernel, square_property_details)
from squareprop.spectral import (NonConvergence, gelfand_radius,
                                 log_square_norms, spectrum)

from oracles import CallableSeminorm, is_invertible, j_evaluate


def _max_abs(a):
    return float(np.abs(a.coords).max())


def _variant_cases():
    """(id, algebra, seminorm, the variant's scalar value before it was
    derived from values)."""
    hc = corpus.builtin("hc")
    chars = CharacterSup(tuple(corpus.known_characters(hc)))
    w = np.array([0.5, 2.0])

    def radius(a):
        return spectrum(a).radius
    return [
        ("character_sup/hc", hc, chars,
         lambda a: float(chars.values(hc, a.coords[None, :])[0])),
        ("spectral_radius/rrc", corpus.builtin("rrc"), SpectralRadius(),
         radius),
        ("spectral_radius/nonunital3", corpus.builtin("nonunital3"),
         SpectralRadius(), radius),
        ("coordinate_max/rr", corpus.builtin("rr"), CoordinateMax(tuple(w)),
         lambda a: float((w * np.abs(a.coords)).max())),
        ("coordinate_sum/rrc", corpus.builtin("rrc"), CoordinateSum(),
         lambda a: float(np.abs(a.coords).sum())),
        ("operator_norm/m2_reals", corpus.m2_reals(), OperatorNorm(),
         lambda a: float(np.linalg.norm(left_regular_matrix(a), 2))),
        ("component_sup/rr", corpus.builtin("rr"), ComponentSup((0,)),
         lambda a: float(np.abs(a.coords[[0]]).max())),
        ("opaque/rr", corpus.builtin("rr"), CallableSeminorm(_max_abs),
         _max_abs),
    ]


@pytest.mark.parametrize("case", _variant_cases(), ids=lambda c: c[0])
def test_derived_value_matches_values_and_old_scalar(case):
    _, algebra, p, old_value = case
    X = np.random.default_rng(8).standard_normal((40, algebra.dim))
    X[0] = 0.0
    batch = p.values(algebra, X)
    for row, v in zip(X, batch):
        a = algebra.element(row)
        derived = p.value(a)
        assert isinstance(derived, float)
        # the same arithmetic on one row; allow BLAS a different blocking
        assert derived == pytest.approx(v, rel=1e-13, abs=1e-15)
        old = old_value(a)
        assert abs(derived - old) <= 1e-12 * (1.0 + abs(old))


@pytest.mark.parametrize("name", ["rr_component_sup",
                                  "nonunital3_component_sup"])
def test_component_sup_is_bit_identical_to_its_own_formula(name):
    pair = next(c for c in corpus.MANIFEST if c.name == name)
    algebra, p = corpus.manifest_pair(pair)
    idx = list(pair.seminorm_args["subset"])
    X = np.random.default_rng(19).standard_normal((500, algebra.dim))
    X[0] = 0.0
    X[1, idx] = 0.0
    assert np.array_equal(p.values(algebra, X),
                          np.abs(X[:, idx]).max(axis=1))
    keep = np.ones(algebra.dim, dtype=bool)
    keep[idx] = False
    assert np.array_equal(kernel(p, algebra), np.eye(algebra.dim)[keep])
    assert type(p).__name__ == "ComponentSup"


def _gelfand_by_loop(a, norm=None, iterations=40, conv_tol=1e-6,
                     return_delta=False):
    """gelfand_radius before it consumed log_square_norms; a small step
    stops it only once 2^k > dim, and a power is divided by its norm, as
    in gelfand_radius."""
    if norm is None:
        norm = OperatorNorm().value
    na = norm(a)
    if na == 0.0:
        return (0.0, 0.0) if return_delta else 0.0
    u = a.algebra.element(a.coords / na)
    log_r = math.log(na)
    delta = math.inf
    for k in range(1, iterations + 1):
        v = mul(u, u)
        nv = norm(v)
        if nv == 0.0:
            return (0.0, 0.0) if return_delta else 0.0
        step = math.log(nv) / 2.0 ** k
        log_r += step
        delta = abs(step)
        if delta < conv_tol * 2.0 ** -20 and 2 ** k > a.algebra.dim:
            break
        u = v.algebra.element(v.coords / nv)
    if delta > conv_tol:
        raise NonConvergence(
            f"radius iteration stalled, last delta {delta:.3e}")
    return (math.exp(log_r), delta) if return_delta else math.exp(log_r)


def _outcome(fn, a, **kwargs):
    try:
        r = fn(a, **kwargs)
    except NonConvergence as exc:
        return "NonConvergence", str(exc)
    return ("zero" if r in (0.0, (0.0, 0.0)) else "radius"), r


def _gelfand_inputs():
    rng = np.random.default_rng(21)
    m2 = corpus.m2_reals()
    out = [(m2.basis_element(1), {}),             # E12: E12^2 = 0
           (m2.zero(), {}),
           (m2.basis_element(1), {"iterations": 0}),
           (corpus.builtin("rr").element([1e150, 2e150]),
            {"norm": _max_abs})]
    for name in ("rr", "rrc", "hc", "m2_reals", "nonunital3", "h2"):
        A = corpus.builtin(name)
        for _ in range(6):
            a = A.element(rng.standard_normal(A.dim))
            out += [(a, {}), (a, {"norm": _max_abs}),
                    (a, {"iterations": 3}),          # NonConvergence
                    (a, {"conv_tol": 1e-3})]
    return out


def test_gelfand_radius_bit_identical_to_old_loop():
    kinds = set()
    for a, kw in _gelfand_inputs():
        for return_delta in (False, True):
            new = _outcome(gelfand_radius, a, return_delta=return_delta, **kw)
            old = _outcome(_gelfand_by_loop, a, return_delta=return_delta,
                           **kw)
            assert new == old, (a.algebra.name, a.coords, kw)
            kinds.add(new[0])
    assert kinds == {"radius", "zero", "NonConvergence"}


def _stages_4_to_7_by_loop(algebra, p, config):
    """Residuals of pipeline stages 4-7 from the per-sample loops they had
    before they were evaluated in blocks, drawing from the same stream."""
    rng = np.random.default_rng(config.seed + 7)
    m_hat = estimate_m(p, algebra, config.sample_count, config.seed + 1).m_hat
    K = kernel(p, algebra)
    qm = quotient(algebra, K)
    qalg = qm.algebra

    def scaled(b):
        return m_hat * p.value(algebra.element(qm.lift @ b.coords))

    wd = 0.0
    for _ in range(min(1000, config.sample_count)):
        a = rng.standard_normal(algebra.dim)
        pa = p.value(algebra.element(a))
        if K.shape[0]:
            k = K.T @ rng.standard_normal(K.shape[0])
            pk = p.value(algebra.element(a + k))
            wd = max(wd, abs(pk - pa) / (1.0 + pa))
    ratio = sq_res = 0.0
    for _ in range(min(200, config.sample_count)):
        b = qalg.element(rng.standard_normal(qalg.dim))
        c = qalg.element(rng.standard_normal(qalg.dim))
        nb, nc = scaled(b), scaled(c)
        if nb * nc > 1e-12:
            ratio = max(ratio, scaled(b * c) / (nb * nc))
        sq_res = max(sq_res,
                     abs(scaled(b * b) - nb * nb / m_hat) / (1.0 + nb * nb))
    n_it = config.max_square_iterates
    residuals = [0.0] * n_it
    for _ in range(10):
        b = qalg.element(rng.standard_normal(qalg.dim))
        nb = scaled(b)
        if nb <= 1e-12:
            continue
        u = (1.0 / nb) * b
        log_norm = math.log(nb)
        for lvl in range(1, n_it + 1):
            v = u * u
            nv = scaled(v)
            if nv <= 0.0:
                residuals[lvl - 1] = math.inf
                break
            log_norm = 2.0 * log_norm + math.log(nv)
            u = (1.0 / nv) * v
            expected = (-(2.0 ** lvl - 1.0) * math.log(m_hat)
                        + 2.0 ** lvl * math.log(nb))
            residuals[lvl - 1] = max(residuals[lvl - 1],
                                     abs(log_norm - expected))
    rad_res = 0.0
    for _ in range(min(100, config.sample_count)):
        b = qalg.element(rng.standard_normal(qalg.dim))
        nb = scaled(b)
        r = gelfand_radius(b, norm=scaled)
        rad_res = max(rad_res, abs(m_hat * r - nb) / (1.0 + nb))
    return [wd, ratio, sq_res] + residuals + [rad_res]


@pytest.mark.parametrize("name", ["hc", "H8_twisted"])
def test_character_sup_matmul_matches_einsum(name):
    rng = np.random.default_rng(12)
    if name == "hc":
        A = corpus.builtin("hc")
        chars = corpus.known_characters(A)
    else:
        A = corpus.function_algebra_H(8)
        chars = corpus.known_characters(
            A, {i: random_unit_quaternion(rng) for i in range(0, 8, 2)})
    p = CharacterSup(tuple(chars))
    X = rng.standard_normal((500, A.dim))
    imgs = np.stack([c for c in chars])
    vals = np.einsum("sn,mnq->smq", X, imgs)      # the formula replaced
    old = np.sqrt((vals * vals).sum(axis=2)).max(axis=1)
    assert np.max(np.abs(p.values(A, X) - old) / old) <= 1e-13


def _character_residual_by_einsum(algebra, images):
    """character_residual before its products were matmuls."""
    Q = np.asarray(images, dtype=float).reshape(algebra.dim, 4)
    E = (np.einsum("ip,jq,pqc->ijc", Q, Q, HAMILTON)
         - np.einsum("ijk,kc->ijc", algebra.table, Q))
    defect = np.sqrt((E * E).sum(axis=2)).max()
    return float(defect / (1.0 + (Q * Q).sum(axis=1).max()))


@pytest.mark.parametrize("name", ["hc", "h2", "rrc", "nonunital3"])
def test_character_residual_matches_einsum(name):
    A = corpus.builtin(name)
    for c in find_characters(A):
        assert abs(character_residual(A, c)
                   - _character_residual_by_einsum(A, c)) <= 1e-15
    # images that are no character: a residual of order 1
    Q = np.random.default_rng(18).standard_normal((A.dim, 4))
    want = _character_residual_by_einsum(A, Q)
    assert want > 0.1
    assert abs(character_residual(A, Q) - want) <= 1e-13 * want


def _rotated(A, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (A.dim, A.dim)))
    table = np.einsum("abg,ai,bj,gk->ijk", A.table, Q, Q, Q, optimize=True)
    return make_algebra(A.dim, [f"f{i}" for i in range(A.dim)], table,
                        unit=Q.T @ A.unit, name=f"rotated {A.name}")


def _classify_4dim_by_einsum(B, e, V):
    """The classifier of a 4-dim block with center R before its products
    of trace-zero elements were two matmuls and i, j a Cholesky factor."""
    c = B.table
    T = V @ _nullspace((np.einsum("ijj->i", c) @ V)[None, :]).T
    P = np.einsum("ia,jb,ijk->abk", T, T, c)
    G = (P + P.transpose(1, 0, 2)) @ e / (2.0 * (e @ e))
    lam, W = np.linalg.eigh(G)
    if lam[-1] >= -1e-8 * abs(lam[0]):
        return "M2(R)", None
    i = T @ W[:, 0] / np.sqrt(-lam[0])
    j = T @ W[:, 1] / np.sqrt(-lam[1])
    return "H", np.column_stack([e, i, j, B.mul_coords(i, j)])


@pytest.mark.parametrize("name", ["hc", "H4", "rotated_H4",
                                  "rotated_M2R+R+H"])
def test_classifier_matches_einsum(name):
    """Same names, and on an H block the same e and span.  The reference
    takes i and j from eigh of the quadratic form on a block's trace-zero
    part, the library from its Cholesky factor.  The form is -I whenever
    the basis is orthonormal, so which i and j eigh picks in that
    eigenspace follows the last bits of the form: on rotated tables the two
    pick different (conjugate) H bases, so there only the quaternion
    relations are compared, and on the standard tables, where the form is
    exactly -I, the bases themselves."""
    A = {"hc": lambda: corpus.builtin("hc"),
         "H4": lambda: corpus.function_algebra_H(4),
         "rotated_H4": lambda: _rotated(corpus.function_algebra_H(4), 2),
         "rotated_M2R+R+H": lambda: _rotated(corpus.direct_sum(
             [corpus.m2_reals(), corpus.reals(), corpus.quaternions()]), 3),
         }[name]()
    B = A.semisimple_quotient.algebra
    names = []
    for block in A.simple_blocks:
        if block.V.shape[1] != 4:
            continue
        want, basis = _classify_4dim_by_einsum(B, block.e, block.V)
        assert _classify(B, None, block.mu, block.e, block.V)[0] == want
        assert block.name == want
        names.append(want)
        if basis is None:
            assert block.basis is None
            continue
        e, i, j, k = block.basis.T
        assert np.array_equal(e, basis[:, 0])
        span = np.linalg.qr(basis)[0]
        assert np.abs(block.basis - span @ (span.T @ block.basis)).max() \
            <= 1e-12
        for x, y, xy in ((i, i, -e), (j, j, -e), (i, j, k), (j, i, -k)):
            assert np.abs(B.mul_coords(x, y) - xy).max() <= 1e-12
        if not name.startswith("rotated"):
            assert np.abs(block.basis - basis).max() <= 1e-12
    assert names == {"hc": ["H"], "H4": ["H"] * 4, "rotated_H4": ["H"] * 4,
                     "rotated_M2R+R+H": ["H", "M2(R)"]}[name]


@pytest.mark.parametrize("seed", range(5))
def test_h_basis_does_not_follow_rounding(seed):
    """Relative noise of 4e-16 on B's table moves every H basis of rotated
    H^4 by rounding only (eigh of the -I form moved it by more than 1)."""
    A = _rotated(corpus.function_algebra_H(4), seed)
    B = A.semisimple_quotient.algebra
    noise = np.random.default_rng(seed).standard_normal(B.table.shape)
    B2 = make_algebra(B.dim, B.labels, B.table * (1.0 + 4e-16 * noise),
                      unit=B.unit)
    for block in A.simple_blocks:
        name, basis = _classify(B2, None, block.mu, block.e, block.V)
        assert name == block.name == "H"
        assert np.abs(basis - block.basis).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_square_probes_match_loops(n):
    eye = np.eye(n)
    rows = [eye]
    pair_sums = [eye[i] + eye[j] for i in range(n) for j in range(i + 1, n)]
    pair_diffs = [eye[i] - eye[j] for i in range(n) for j in range(i + 1, n)]
    if pair_sums:
        rows += [np.array(pair_sums), np.array(pair_diffs)]
    want = 8.0 * np.concatenate(rows)
    got, _ = _square_probes(corpus.direct_sum([corpus.reals()] * n))
    assert got.shape == want.shape == (n * n, n)
    assert np.array_equal(got, want)


def _three_scale_probes(algebra):
    """The probes and their squares as the square check built them before
    it kept scale 8 alone: every row at the scales 1, 2 and 8."""
    eye, c = np.eye(algebra.dim), algebra.table
    i, j = np.nonzero(~np.tri(algebra.dim, dtype=bool))   # i < j, row-major
    base = np.concatenate([eye, eye[i] + eye[j], eye[i] - eye[j]])
    diag = np.einsum("iik->ik", c)
    both, cross = diag[i] + diag[j], c[i, j] + c[j, i]
    squares = np.concatenate([diag, both + cross, both - cross])
    return (np.concatenate([base * s for s in (1.0, 2.0, 8.0)]),
            np.concatenate([squares * (s * s) for s in (1.0, 2.0, 8.0)]))


def _square_check_cases():
    """Every builtin with four seminorms, and every manifest pair."""
    cases = [(f"{name}/{kind}", A, corpus.make_seminorm(kind, {}, A))
             for name in corpus.builtin_names()
             for A in [corpus.builtin(name)]
             for kind in ("spectral_radius", "coordinate_max",
                          "coordinate_sum", "operator_norm")]
    return cases + [(pair.name, *corpus.manifest_pair(pair))
                    for pair in corpus.MANIFEST]


@pytest.mark.parametrize("case", _square_check_cases(), ids=lambda c: c[0])
def test_scale_8_probes_keep_the_square_residual(case):
    """The probes at scales 1 and 2 never set the maximum: the residual of
    the square check is the three-scale one bit for bit, and per probe the
    scale-8 residual is at least the scale-1 and scale-2 ones.  The witness
    moves only where every residual is 0, to the first scale-8 probe."""
    _, A, p = case
    P3, P3sq = _three_scale_probes(A)
    pa = p.values(A, P3)
    res = (np.abs(p.values(A, P3sq) - pa ** 2) / (1.0 + pa ** 2)).reshape(3, -1)
    assert (res[2] >= res[1]).all() and (res[2] >= res[0]).all()
    for seed in range(3):
        got = square_property_details(p, A, 2000, seed)
        R = np.random.default_rng(seed).standard_normal((2000, A.dim))
        X = np.concatenate([P3, R])
        pa = p.values(A, X)
        pa2 = p.values(A, np.concatenate([P3sq, A.mul_coords_batch(R, R)]))
        old = np.abs(pa2 - pa ** 2) / (1.0 + pa ** 2)
        assert got.residual == old.max()
        if not np.array_equal(got.witness, X[np.argmax(old)]):
            assert got.residual == 0.0
            assert np.array_equal(got.witness, 8.0 * np.eye(A.dim)[0])


def test_stage_1_evaluates_n_squared_probes():
    """On H^8 (n = 32) the square check evaluates p on n^2 = 1024 probes
    and their squares, next to its random rows."""
    A = corpus.function_algebra_H(8)
    p = _Recorded(np.ones(A.dim))
    square_property_details(p, A, samples=300, seed=1)
    assert [len(X) for X in p.stacks] == [32 * 32 + 300] * 2


def test_character_sup_stacks_its_images_once(monkeypatch):
    A = corpus.function_algebra_H(8)
    p = CharacterSup(tuple(corpus.known_characters(A)))
    stacked = []
    orig = np.asarray
    # the tuple of (n, 4) rows is stacked by np.asarray of the whole payload
    monkeypatch.setattr(np, "asarray", lambda x, *a, **k: (
        x is p.characters and stacked.append(1)) or orig(x, *a, **k))
    X = np.random.default_rng(13).standard_normal((50, A.dim))
    first = p.values(A, X)
    for _ in range(5):
        p.check_payload(A)
        assert np.array_equal(p.values(A, X), first)
        assert p.value(A.element(X[0])) == first[0]
        assert kernel(p, A).shape == (0, A.dim)
    assert len(stacked) == 1
    # the shape check against the algebra still runs on every call
    H4 = corpus.function_algebra_H(4)
    with pytest.raises(PayloadMismatch):
        p.values(H4, X[:, :H4.dim])
    bad = CharacterSup((np.full((A.dim, 4), np.nan),))
    with pytest.raises(PayloadMismatch):
        bad.check_payload(A)


def _pipeline_cases():
    config = PipelineConfig(sample_count=300, seed=4)
    cases = [(pair.name, *corpus.manifest_pair(pair), config)
             for pair in corpus.MANIFEST
             if pair.name in ("rrc_spectral_radius", "hc_character_sup",
                              "nonunital3_component_sup")]
    hc = corpus.builtin("hc")
    # one character of two: Ker(p) is a whole summand
    cases.append(("hc_one_character", hc,
                  CharacterSup(corpus.known_characters(hc)[:1]), config))
    # square defect up to 1/2, let through by a loose tol: the stage 5-6
    # residuals are then far from 0 and depend on which samples are drawn
    cases.append(("rrc_weighted_max", corpus.builtin("rrc"),
                  CoordinateMax((2.0, 1.0, 0.0, 0.0)),
                  PipelineConfig(sample_count=300, seed=4, tol=0.9)))
    return cases


@pytest.mark.parametrize("case", _pipeline_cases(), ids=lambda c: c[0])
def test_block_stages_match_per_sample_loops(case):
    _, algebra, p, config = case
    rep = verify_theorem(algebra, p, config)
    new = [rep.quotient_norm_well_defined_residual, rep.normed_algebra_ratio,
           rep.scaled_norm_square_residual] + rep.iterate_relation_residuals
    new.append(rep.radius_match_residual)
    old = _stages_4_to_7_by_loop(algebra, p, config)
    assert len(new) == len(old)
    for x, y in zip(new, old):
        assert abs(x - y) <= 1e-12 * (1.0 + abs(y)), (new, old)


def _prop31_by_loop(a, chars, tol=1e-6):
    """check_prop31 on one element, before it took stacks."""
    values = j_evaluate(a, chars)
    forward_ok = True
    if is_invertible(a) and len(values):
        forward_ok = bool(min(qnorm(q) for q in values) > 1e-10)
    sp = spectrum(a).points
    inclusion = all(min(abs(z - w) for w in sp) <= tol
                    for q in values for z in qspectrum(q))
    return forward_ok, inclusion


def _unital_branch_by_loop(qalg, abs_norm, config, rng):
    """Report fields of stage 8's unital branch from its per-element loop."""
    chars = find_characters(qalg)
    if len(chars) == 0:
        return {"character_count": 0}
    fwd = incl = True
    sup_bound = sup_eq = 0.0
    for _ in range(min(20, config.sample_count)):
        b = qalg.element(rng.standard_normal(qalg.dim))
        f, i = _prop31_by_loop(b, chars)
        fwd &= f
        incl &= i
        nb = abs_norm(b)
        ssn = max(qnorm(q) for q in j_evaluate(b, chars))
        sup_bound = max(sup_bound, (ssn - nb) / (1.0 + nb))
        sup_eq = max(sup_eq, abs(ssn - nb) / (1.0 + nb))
    return {"character_count": len(chars), "prop31_forward_ok": fwd,
            "prop31_inclusion_ok": incl,
            "sup_bound_residual": max(0.0, sup_bound),
            "sup_equality_residual": sup_eq}


@pytest.mark.parametrize("case", _pipeline_cases(), ids=lambda c: c[0])
def test_stage_8_matches_per_element_loops(monkeypatch, case):
    """Stage 8 on stacks gives the report fields of its per-element loop,
    replayed from the generator state at the start of stage 8 with the
    scalar quotient norm p(lift b)."""
    _, algebra, p, config = case
    entry = []
    orig = pipeline._unital_branch

    def recorded(report, qalg, norms, config, rng):
        entry.append((qalg, copy.deepcopy(rng.bit_generator.state)))
        return orig(report, qalg, norms, config, rng)
    monkeypatch.setattr(pipeline, "_unital_branch", recorded)
    rep = verify_theorem(algebra, p, config)
    (qalg, state), = entry
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    lift = quotient(algebra, kernel(p, algebra)).lift

    def abs_norm(b):
        return p.value(algebra.element(lift @ b.coords))

    old = _unital_branch_by_loop(qalg, abs_norm, config, rng)
    assert rep.character_count > 0
    for key, y in old.items():
        x = getattr(rep, key)
        if isinstance(y, (bool, int)):
            assert x == y, key
        else:
            assert abs(x - y) <= 1e-12 * (1.0 + abs(y)), (key, x, y)


@pytest.mark.parametrize("name", ["hc_character_sup",
                                  "nonunital3_component_sup"])
def test_stage_8_asks_for_one_svd_and_one_eigvals(monkeypatch, name):
    """Outside the quotient's block decomposition (find_characters),
    stage 8 calls np.linalg.svd and eigvals once each, on the stack of its
    20 matrices L_b; these seminorms evaluate without either."""
    pair = next(c for c in corpus.MANIFEST if c.name == name)
    algebra, p = corpus.manifest_pair(pair)
    active, calls = [], []

    def spy(fn, label):
        def wrapped(*args, **kwargs):
            if active and active[-1]:
                calls.append((label, np.shape(args[0])))
            return fn(*args, **kwargs)
        return wrapped

    def scoped(fn, on):
        def wrapped(*args, **kwargs):
            active.append(on)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()
        return wrapped

    for label in ("svd", "eigvals"):
        monkeypatch.setattr(np.linalg, label,
                            spy(getattr(np.linalg, label), label))
    for attr, on in (("_unital_branch", True), ("find_characters", False)):
        monkeypatch.setattr(pipeline, attr,
                            scoped(getattr(pipeline, attr), on))
    rep = verify_theorem(algebra, p, PipelineConfig(sample_count=300))
    assert rep.verdict == "pass"
    n = rep.quotient_dim
    assert calls == [("svd", (20, n, n)), ("eigvals", (20, n, n))]


def _ratio_scan_on_every_pair(p, algebra, samples, seed):
    """_ratio_scan before the basis sweep was evaluated once per basis
    element: p on all n^2 rows of np.repeat(eye) and np.tile(eye)."""
    rng = np.random.default_rng(seed)
    eye = np.eye(algebra.dim)
    A = np.concatenate([np.repeat(eye, algebra.dim, axis=0),
                        rng.standard_normal((samples, algebra.dim))])
    B = np.concatenate([np.tile(eye, (algebra.dim, 1)),
                        rng.standard_normal((samples, algebra.dim))])
    va = p.values(algebra, A)
    vb = p.values(algebra, B)
    scale = 1.0 + max(va.max(), vb.max(), 1.0)
    ok = va * vb > RATIO_FLOOR * scale ** 2
    A, B, va, vb = A[ok], B[ok], va[ok], vb[ok]
    A = A / va[:, None]
    B = B / vb[:, None]
    return p.values(algebra, algebra.mul_coords_batch(A, B)), A, B


def _pairs(ratios, pair):
    """(A, B): the normalized pair of every ratio of a scan, stacked one
    row per ratio, as _ratio_scan returned them before it kept the basis
    pairs as indices."""
    return tuple(np.array(x) for x in zip(*map(pair, range(len(ratios)))))


def _counted_max_abs():
    calls = []

    def fn(a):
        calls.append(1)
        return _max_abs(a)
    return CallableSeminorm(fn), calls


@pytest.mark.parametrize("kind", ["spectral_radius", "coordinate_max",
                                  "opaque"])
def test_ratio_scan_evaluates_the_basis_once(kind):
    """Bit for bit the scan over every basis pair; a callable seminorm is
    called 2 n^2 - n times fewer (n basis values instead of 2 n^2)."""
    A = corpus.function_algebra_H(8)
    n, samples = A.dim, 300
    if kind == "opaque":
        p, calls = _counted_max_abs()
        p_old, calls_old = _counted_max_abs()
    else:
        p = p_old = {"spectral_radius": SpectralRadius(),
                     "coordinate_max": CoordinateMax()}[kind]
    ratios, pair = _ratio_scan(p, A, samples, 5)
    new = (ratios, *_pairs(ratios, pair))
    old = _ratio_scan_on_every_pair(p_old, A, samples, 5)
    for x, y in zip(new, old):
        assert x.shape == y.shape and np.array_equal(x, y)
    if kind == "opaque":
        assert len(calls_old) - len(calls) == 2 * n * n - n


# -- products read from the table ---------------------------------------

def _table_cases():
    """Every builtin (integer tables) and two dense tables in a rotated
    basis, with the relative bound between table reads and products."""
    cases = [(name, corpus.builtin(name), 0.0)
             for name in corpus.builtin_names()]
    cases.append(("rotated_hc", _rotated(corpus.builtin("hc"), 3), 1e-12))
    cases.append(("rotated_H4", _rotated(corpus.function_algebra_H(4), 4),
                  1e-12))
    return cases


def _close(got, want, rtol):
    assert got.shape == want.shape
    if rtol == 0.0:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=rtol,
                                   atol=rtol * np.abs(want).max())


@pytest.mark.parametrize("case", _table_cases(), ids=lambda c: c[0])
def test_probe_squares_are_the_products(case):
    _, A, rtol = case
    P, P2 = _square_probes(A)
    _close(P2, A.mul_coords_batch(P, P), rtol)


@pytest.mark.parametrize("case", _table_cases(), ids=lambda c: c[0])
def test_square_probes_are_kept_on_the_algebra(case):
    """The probes are built once per algebra and kept on it: a second call
    returns the same read-only arrays, bit for bit those that a fresh
    algebra with the same table builds."""
    _, A, _ = case
    probes = _square_probes(A)
    again = _square_probes(A)
    assert all(x is y for x, y in zip(probes, again))
    assert not any(x.flags.writeable for x in probes)
    fresh = _square_probes(make_algebra(A.dim, A.labels, A.table,
                                        unit=A.unit))
    assert all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes() for x, y in zip(probes, fresh))


class _Recorded(SeminormVariant):
    """A weighted max-abs seminorm that keeps every stack it evaluates."""

    def __init__(self, weights):
        self.weights, self.stacks = weights, []

    def values(self, algebra, X):
        self.stacks.append(X)
        return (self.weights * np.abs(X)).max(axis=1)


@pytest.mark.parametrize("case", _table_cases(), ids=lambda c: c[0])
def test_basis_pair_products_are_the_products(case):
    """The ratio scan evaluates p on the products of its normalized pairs;
    the basis pairs' rows are read from the table.  Weights of 1 keep every
    p(e_i) = 1 on the integer tables, so there the rows are equal; the
    rotated tables take weights in (0.5, 2)."""
    _, A, rtol = case
    w = (np.ones(A.dim) if rtol == 0.0
         else np.random.default_rng(6).uniform(0.5, 2.0, A.dim))
    p = _Recorded(w)
    Xa, Xb = _pairs(*_ratio_scan(p, A, 200, 5))
    assert Xa.shape[0] >= A.dim ** 2
    _close(p.stacks[-1], A.mul_coords_batch(Xa, Xb), rtol)


def test_square_and_ratio_checks_multiply_only_random_rows(monkeypatch):
    """On H^8 the n^2 probe squares and the n^2 basis products are read
    from the table: the products formed are the random rows alone.  The
    spectral split is built first: naming its blocks forms one-row
    products, which are not the checks' own."""
    rows = []
    orig = FiniteDimRealAlgebra.mul_coords_batch

    def counted(self, A, B):
        rows.append(A.shape[0])
        return orig(self, A, B)

    A = corpus.function_algebra_H(8)
    A.spectral_split
    monkeypatch.setattr(FiniteDimRealAlgebra, "mul_coords_batch", counted)
    square_property_details(SpectralRadius(), A, samples=300, seed=1)
    assert rows == [300]
    estimate_m(SpectralRadius(), A, samples=300, seed=2)
    assert rows == [300, 300]


# -- element-wise calls are one-row views of the batched kernels ---------

def _one_path_cases():
    cases = [(name, corpus.builtin(name)) for name in corpus.builtin_names()]
    return cases + [("H8", corpus.function_algebra_H(8)),
                    ("rotated_hc", _rotated(corpus.builtin("hc"), 3))]


@pytest.mark.parametrize("case", _one_path_cases(), ids=lambda c: c[0])
def test_element_wise_calls_are_rows_of_the_batch(case):
    """Each element-wise call equals, bit for bit, its batched kernel on
    the one-row stack of its element(s): mul and mul_coords, L_a,
    a.coords @ x and j_evaluate (rows of CharacterSup.evaluations) and
    the default norm of gelfand_radius (OperatorNorm.values).  A stack of
    more rows may round otherwise, as BLAS blocks a product by its shape."""
    _, A = case
    rng = np.random.default_rng(23)
    chars = np.concatenate([find_characters(A),
                            rng.standard_normal((1, A.dim, 4))])
    sup = CharacterSup(tuple(chars))

    def batch_norm(b):
        return float(OperatorNorm().values(A, b.coords[None])[0])

    for x, y in rng.standard_normal((30, 2, A.dim)):
        a, b = A.element(x), A.element(y)
        prod = A.mul_coords_batch(x[None], y[None])[0]
        assert np.array_equal(mul(a, b).coords, prod)
        assert np.array_equal(A.mul_coords(x, y), prod)
        assert np.array_equal(left_regular_matrix(a),
                              A.left_matrices_batch(x[None])[0])
        row = sup.evaluations(A, x[None])[0]
        assert np.array_equal(j_evaluate(a, chars), row)
        for k, ch in enumerate(chars):
            assert np.array_equal(a.coords @ ch, row[k])
        for kw in ({}, {"return_delta": True}):
            assert _outcome(gelfand_radius, a, **kw) \
                == _outcome(gelfand_radius, a, norm=batch_norm, **kw)


# -- stages 6 and 7 square one stack each --------------------------------

def _m2_stack():
    """Random elements of M2(R) with E12 (radius 0) among them."""
    A = corpus.m2_reals()
    X = np.random.default_rng(31).standard_normal((12, A.dim))
    X[3] = A.basis_element(1).coords
    return A, X


@pytest.mark.parametrize("norm", [None, _max_abs], ids=["operator", "max_abs"])
def test_stacked_gelfand_radius_rows_are_one_element_calls(norm):
    """Each row of a stacked gelfand_radius is its one-element call; E12
    squares to 0, so its row reads radius 0 and last delta 0."""
    A, X = _m2_stack()
    kw = {} if norm is None else {"norm": lambda b: np.abs(b.coords).max(-1)}
    r, delta = gelfand_radius(A.element(X), return_delta=True, **kw)
    assert r.shape == delta.shape == (len(X),)
    assert (r[3], delta[3]) == (0.0, 0.0)
    for x, got in zip(X, zip(r, delta)):
        one = gelfand_radius(A.element(x), norm=norm, return_delta=True)
        assert all(isinstance(v, float) for v in one)
        np.testing.assert_allclose(got, one, rtol=1e-14, atol=0.0)
    # a (3, 4) stack of the same rows gives the same radii, shaped (3, 4)
    assert np.array_equal(
        gelfand_radius(A.element(X.reshape(3, 4, A.dim)), **kw),
        r.reshape(3, 4))


def test_stacked_gelfand_radius_marks_the_rows_that_stall():
    """With iterations=3 most rows stall: NonConvergence carries NaN
    exactly on the rows whose one-element call raises, and elsewhere the
    radius that call returns."""
    A, X = _m2_stack()
    with pytest.raises(NonConvergence) as info:
        gelfand_radius(A.element(X), iterations=3)
    radii = info.value.radii
    assert radii.shape == (len(X),)
    stalls = []
    for x, got in zip(X, radii):
        try:
            want = gelfand_radius(A.element(x), iterations=3)
        except NonConvergence:
            stalls.append(True)
            assert math.isnan(got)
            continue
        stalls.append(False)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert any(stalls) and not all(stalls)    # E12 converges at once


def test_log_square_norms_stops_a_row_at_a_zero_power():
    """A row whose power vanishes reads -inf from then on and is not
    squared again; the other rows go on."""
    A, X = _m2_stack()
    seen = []

    def norm(b):
        seen.append(b.coords.shape[0])
        return OperatorNorm().value(b)

    logs = log_square_norms(A.element(X[2:5]), norm)
    first, second, third = next(logs), next(logs), next(logs)
    assert np.isfinite(first).all()
    assert second[1] == third[1] == -math.inf
    assert np.isfinite(second[[0, 2]]).all()
    assert seen == [3, 3, 2]


def _count_calls(monkeypatch, name):
    """Record the leading shape of the stack each pipeline.<name> call
    gets."""
    shapes = []
    orig = getattr(pipeline, name)

    def counted(a, *args, **kwargs):
        shapes.append(a.coords.shape[:-1])
        return orig(a, *args, **kwargs)
    monkeypatch.setattr(pipeline, name, counted)
    return shapes


def test_stages_6_and_7_square_one_stack_each(monkeypatch):
    """Stage 6 asks log_square_norms once, for its 10 rows; stage 7 asks
    gelfand_radius once, for its 100 rows (the loops they replaced made one
    call per row)."""
    logs = _count_calls(monkeypatch, "log_square_norms")
    radii = _count_calls(monkeypatch, "gelfand_radius")
    algebra, p = corpus.manifest_pair(next(
        c for c in corpus.MANIFEST if c.name == "rrc_spectral_radius"))
    rep = verify_theorem(algebra, p, PipelineConfig(sample_count=300))
    assert rep.verdict == "pass"
    assert logs == [(10,)]
    assert radii == [(100,)]
