"""A builtin algebra is one object per process, and so are its records.

corpus.builtin builds each builtin on first use and hands out that object
from then on; the sums rr, rrc, hc and every function_algebra_H(n), h2
among them, are formed from the builtin R, C and H.  So a second `verify`
of a builtin reads the unit, blocks, division table and characters that
the first one built, and prints the same bytes.  The autouse fixture of conftest.py
clears the builtins before each test, so every test here starts cold.
"""

import itertools
import json

import numpy as np
import pytest

from squareprop import algebra as algebra_mod
from squareprop import cli, corpus, pipeline
from squareprop.characters import find_characters
from squareprop.seminorm import _square_probes
from squareprop.spectral import division_table

from golden import _spec
from transforms import write_algebra


def _verify(capsys, algebra, seminorm):
    code = cli.run(["verify", "--algebra", algebra, "--seminorm", seminorm,
                    "--format", "json"])
    return code, capsys.readouterr().out


def _record(monkeypatch):
    """What _simple_blocks, the dense associativity check and a quotient's
    choice of complement run on, in call order, as ("blocks" | "assoc",
    algebra) or ("pivots", q)."""
    seen = []
    blocks = algebra_mod._simple_blocks
    pivots = algebra_mod._pivot_columns
    check = algebra_mod.FiniteDimRealAlgebra._check_associativity
    monkeypatch.setattr(algebra_mod, "_simple_blocks",
                        lambda A: seen.append(("blocks", A)) or blocks(A))
    monkeypatch.setattr(algebra_mod, "_pivot_columns",
                        lambda P, q: seen.append(("pivots", q))
                        or pivots(P, q))
    monkeypatch.setattr(algebra_mod.FiniteDimRealAlgebra,
                        "_check_associativity",
                        lambda A: seen.append(("assoc", A)) or check(A))
    return seen


@pytest.mark.parametrize("name", corpus.builtin_names())
def test_a_builtin_is_one_object_per_process(name):
    A = corpus.builtin(name)
    assert corpus.builtin(name) is A


@pytest.mark.parametrize("name", corpus.builtin_names())
def test_what_a_builtin_keeps_is_read_only(name):
    """A builtin is shared, so no caller can change it for the next: its
    labels are a tuple, and every array it keeps is read-only."""
    A = corpus.builtin(name)
    table = division_table(A)
    arrays = [A.table, A.radical, find_characters(A), *_square_probes(A),
              *([] if table is None else [table])]
    for _, leaf in A.summands:
        qm = leaf.semisimple_quotient
        arrays += [qm.projection, qm.lift]
        arrays += [x for b in leaf.simple_blocks for x in (b.e, b.V, b.basis)
                   if x is not None]
    assert isinstance(A.labels, tuple)
    assert not [x for x in arrays if x.flags.writeable]


def test_builtin_sums_are_formed_from_the_builtin_parts():
    R, C, H = (corpus.builtin(n) for n in ("reals", "complexes",
                                           "quaternions"))
    assert corpus.builtin("rr")._parts == (R, R)
    assert corpus.builtin("rrc")._parts == (R, R, C)
    assert corpus.builtin("hc")._parts == (H, C)   # algebras compare by id
    h2, fresh = corpus.builtin("h2"), corpus.function_algebra_H(2)
    assert h2._parts == (H, H)
    assert (h2.name, h2.labels) == (fresh.name, fresh.labels)
    assert np.array_equal(h2.table, fresh.table)
    assert np.array_equal(h2.unit, fresh.unit)


def test_h2_and_every_hn_sum_the_builtin_h(monkeypatch):
    """C(n pts, H) has one construction: the builtin h2 is
    function_algebra_H(2), and every H^n sums the builtin H, so all of
    them share its records."""
    H = corpus.builtin("quaternions")
    assert corpus.function_algebra_H(3)._parts == (H, H, H)
    calls, build = [], corpus.function_algebra_H
    monkeypatch.setattr(corpus, "function_algebra_H",
                        lambda n: calls.append(n) or build(n))
    assert corpus.builtin("h2")._parts == (H, H)
    assert calls == [2]


def test_hc_then_h2_decomposes_h_once(monkeypatch, capsys):
    """h2 shares the builtin H that hc decomposed, so a process that
    verifies both with the spectral radius builds blocks on H and C
    only."""
    seen = _record(monkeypatch)
    for name in ("hc", "h2"):
        assert _verify(capsys, name, "spectral_radius")[0] == cli.EXIT_PASS
    H, C = corpus.builtin("quaternions"), corpus.builtin("complexes")
    blocks = [A for kind, A in seen if kind == "blocks"]
    assert len(blocks) == 2 and {id(A) for A in blocks} == {id(H), id(C)}


def test_unknown_builtin_still_exits_two_and_names_the_builtins(capsys):
    for _ in range(2):    # a failed lookup is not kept
        code = cli.run(["verify", "--algebra", "nope", "--seminorm",
                        "spectral_radius"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_BAD_INPUT
        assert "'nope'" in err
        assert all(name in err for name in corpus.builtin_names())


def test_an_algebra_file_is_loaded_fresh_on_every_call(tmp_path):
    A = corpus.builtin("rr")
    path = write_algebra(tmp_path / "rr.json", A, unit=False)
    first, second = (cli.load_algebra(path) for _ in range(2))
    assert first is not second
    assert np.array_equal(first.table, second.table)


@pytest.mark.parametrize("pair", corpus.MANIFEST, ids=lambda p: p.name)
def test_a_manifest_pair_reruns_on_the_same_builtin_to_the_same_bytes(
        monkeypatch, capsys, pair):
    """Both runs verify the one builtin object and print the same JSON."""
    given = []
    orig = pipeline.verify_theorem
    monkeypatch.setattr(pipeline, "verify_theorem",
                        lambda A, *args: given.append(A) or orig(A, *args))
    first, second = (_verify(capsys, pair.algebra_name, _spec(pair))
                     for _ in range(2))
    assert first == second
    assert first[0] == {"pass": 0, "hypothesis_not_met": 3}[pair.expected]
    assert json.loads(first[1])["verdict"] == pair.expected
    assert len(given) == 2 and given[0] is given[1]


@pytest.mark.parametrize("pair", corpus.MANIFEST, ids=lambda p: p.name)
def test_a_second_run_builds_no_record_of_the_builtin(monkeypatch, capsys,
                                                      pair):
    """The second run checks no table for associativity, chooses no
    quotient's complement and builds blocks on no algebra: A / Ker p, on
    the two component_sup pairs whose kernel is not 0, is the quotient
    the first run formed and kept on the builtin, with its blocks."""
    _verify(capsys, pair.algebra_name, _spec(pair))
    seen = _record(monkeypatch)
    _verify(capsys, pair.algebra_name, _spec(pair))
    assert seen == []


@pytest.mark.parametrize("name, seminorm, parts", [
    ("rr", "coordinate_max", ["reals"]),
    ("rrc", "spectral_radius", ["complexes", "reals"]),
    ("hc", "character_sup", ["complexes", "quaternions"]),
])
def test_a_cold_run_builds_each_builtin_part_once(monkeypatch, capsys, name,
                                                  seminorm, parts):
    """On a cold process a sum checks and decomposes each distinct part
    once, however often it occurs: R once for R (+) R (+) C."""
    seen = _record(monkeypatch)
    assert _verify(capsys, name, seminorm)[0] == cli.EXIT_PASS
    want = [corpus.builtin(p) for p in parts]
    for kind in ("assoc", "blocks"):
        got = sorted((A for k, A in seen if k == kind), key=lambda A: A.name)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


def test_a_direct_sum_takes_its_unit_from_its_parts(monkeypatch):
    """corpus.direct_sum keeps its parts' units side by side as its unit,
    read-only, and does not run the unit gate again; run again, the gate
    passes on every product of 1 to 3 of R, C and H (those fuzz forms) and
    on every builtin sum."""
    parts = {"R": corpus.reals(), "C": corpus.complexes(),
             "H": corpus.quaternions()}
    gated = []
    orig = algebra_mod.FiniteDimRealAlgebra._unit_failure
    monkeypatch.setattr(algebra_mod.FiniteDimRealAlgebra, "_unit_failure",
                        lambda A, u: gated.append(A) or orig(A, u))
    sums = [corpus.direct_sum([parts[k] for k in kinds])
            for r in (1, 2, 3) for kinds in itertools.product("RCH", repeat=r)]
    sums += [A for A in map(corpus.builtin, corpus.builtin_names())
             if A._parts]
    assert gated and not any(A._parts for A in gated)
    assert len(sums) == 3 + 9 + 27 + 4
    for A in sums:
        assert not A.unit.flags.writeable
        np.testing.assert_array_equal(
            A.unit, np.concatenate([P.unit for _, P in A.summands]))
        assert A._unit_failure(A.unit) is None
