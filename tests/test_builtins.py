"""A builtin algebra is one object per process, and so are its records.

corpus.builtin builds each builtin on first use and hands out that object
from then on; the sums rr, rrc and hc are formed from the builtin R, C and
H.  So a second `verify` of a builtin reads the unit, blocks, split and
characters that the first one built, and prints the same bytes.  The
autouse fixture of conftest.py clears the builtins before each test, so
every test here starts cold.
"""

import json

import numpy as np
import pytest

from squareprop import algebra as algebra_mod
from squareprop import cli, corpus, pipeline
from squareprop.characters import find_characters
from squareprop.seminorm import _square_probes

from golden import _spec


def _verify(capsys, algebra, seminorm):
    code = cli.run(["verify", "--algebra", algebra, "--seminorm", seminorm,
                    "--format", "json"])
    return code, capsys.readouterr().out


def _record(monkeypatch):
    """The algebras that _simple_blocks and the dense associativity check
    run on, in call order, as ("blocks" | "assoc", algebra)."""
    seen = []
    blocks = algebra_mod._simple_blocks
    check = algebra_mod.FiniteDimRealAlgebra._check_associativity
    monkeypatch.setattr(algebra_mod, "_simple_blocks",
                        lambda A: seen.append(("blocks", A)) or blocks(A))
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
    arrays = [A.table, A.radical, find_characters(A), *_square_probes(A),
              *(T for _, _, T in A.spectral_split)]
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
    path = tmp_path / "rr.json"
    path.write_text(json.dumps({
        "dim": A.dim, "basis": A.labels,
        "table": [[*map(int, ijk), float(A.table[ijk])]
                  for ijk in zip(*np.nonzero(A.table))]}))
    first, second = (cli.load_algebra(str(path)) for _ in range(2))
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
    """The second run checks no table for associativity and builds blocks
    on no builtin.  Only A / Ker p, which depends on the seminorm and is
    formed on every run, gets its blocks built again: on the two
    component_sup pairs, whose kernel is not 0."""
    _verify(capsys, pair.algebra_name, _spec(pair))
    builtins = {id(corpus.builtin(name)) for name in corpus.builtin_names()}
    seen = _record(monkeypatch)
    _verify(capsys, pair.algebra_name, _spec(pair))
    assert not [A for kind, A in seen if kind == "assoc"]
    rebuilt = [A for _, A in seen]
    assert not [A for A in rebuilt if id(A) in builtins]
    assert [A.name for A in rebuilt] == (
        [f"{corpus.builtin(pair.algebra_name).name}/ideal"]
        if pair.seminorm_kind == "component_sup" else [])


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
