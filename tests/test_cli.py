import json
import sys

import numpy as np
import pytest

from squareprop import cli, corpus, pipeline
from squareprop.algebra import make_algebra
from squareprop.characters import character_residual, find_characters
from squareprop.seminorm import M_HAT_FLOOR

from transforms import conditioned, in_basis, power_of_two, rotated, skew


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_pass_exit_zero(capsys):
    code, _ = run_capture(capsys, [
        "verify", "--algebra", "rrc", "--seminorm", "spectral_radius",
        "--samples", "300"])
    assert code == 0


def test_verify_hypothesis_not_met_exit_three(capsys):
    code, out = run_capture(capsys, [
        "verify", "--algebra", "complexes", "--seminorm", "coordinate_sum",
        "--samples", "300", "--format", "json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "hypothesis_not_met"
    assert payload["square_property_residual"] >= 0.4


def test_spectrum_command(capsys):
    code, out = run_capture(capsys, [
        "spectrum", "--algebra", "complexes", "--element", "0 1",
        "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    pts = sorted(tuple(p) for p in payload["points"])
    assert pts == [(0.0, -1.0), (0.0, 1.0)]


def test_radius_command(capsys):
    code, out = run_capture(capsys, [
        "radius", "--algebra", "rr", "--element", "2 -3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["spectral_radius"] == pytest.approx(3.0)
    assert payload["gelfand_radius"] == pytest.approx(3.0, rel=1e-6)


def test_characters_command(capsys):
    code, out = run_capture(capsys, [
        "characters", "--algebra", "rr", "--seed", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["restarts"] == 50   # echoed; nothing restarts


def test_characters_negative_control_note(capsys):
    code, out = run_capture(capsys, [
        "characters", "--algebra", "m2_reals", "--seed", "4",
        "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 0
    assert "E12" in payload["note"]


@pytest.mark.parametrize("name", corpus.builtin_names())
def test_characters_json_residuals_are_character_residual(capsys, name):
    """Each printed residual is character_residual of the images that
    find_characters gates on; the printed images are those rounded."""
    code, out = run_capture(capsys, [
        "characters", "--algebra", name, "--format", "json"])
    A = corpus.builtin(name)
    chars = find_characters(A)
    printed = json.loads(out)["characters"]
    assert code == 0 and len(printed) == len(chars)
    for c, x in zip(printed, chars):
        assert c["residual"] == character_residual(A, x)
        assert c["images"] == np.round(x, 12).tolist()


def test_fuzz_command(capsys):
    code, out = run_capture(capsys, [
        "fuzz", "--iterations", "100", "--seed", "11", "--format", "json"])
    assert code == 0
    assert json.loads(out)["counterexamples"] == []


def test_corpus_command(capsys):
    code, out = run_capture(capsys, ["corpus", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert "rr" in payload["algebras"]
    assert any(p["name"] == "c_coordinate_sum" for p in payload["pairs"])


def test_json_determinism(capsys):
    argv = ["verify", "--algebra", "rr", "--seminorm", "component_sup:0",
            "--samples", "200", "--seed", "3", "--format", "json"]
    _, first = run_capture(capsys, argv)
    _, second = run_capture(capsys, argv)
    assert first == second


def test_unknown_algebra_exit_two(capsys):
    code = cli.run(["spectrum", "--algebra", "nope", "--element", "1"])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_malformed_algebra_file_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "basis": ["a"], "table": []}')
    code = cli.run(["spectrum", "--algebra", str(path), "--element", "1 0"])
    assert code == 2
    assert "basis" in capsys.readouterr().err


def test_bad_element_exit_two(capsys):
    code = cli.run(["spectrum", "--algebra", "rr", "--element", "1 2 3"])
    assert code == 2


def test_algebra_and_seminorm_files(tmp_path, capsys):
    alg = tmp_path / "complexes.json"
    alg.write_text(json.dumps({
        "name": "C-from-file",
        "dim": 2,
        "basis": ["1", "i"],
        "table": [[0, 0, 0, 1.0], [0, 1, 1, 1.0], [1, 0, 1, 1.0],
                  [1, 1, 0, -1.0]],
        "unit": [1.0, 0.0],
    }))
    sn = tmp_path / "seminorm.json"
    sn.write_text(json.dumps({
        "type": "character_sup",
        "characters": [[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]],
    }))
    code, out = run_capture(capsys, [
        "verify", "--algebra", str(alg), "--seminorm", str(sn),
        "--samples", "300", "--format", "json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_seminorm_bad_type_exit_two(tmp_path, capsys):
    sn = tmp_path / "bad.json"
    sn.write_text('{"type": "nope"}')
    code = cli.run(["verify", "--algebra", "rr", "--seminorm", str(sn)])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_zero_samples_exit_two(capsys):
    code = cli.run(["verify", "--algebra", "rr", "--seminorm",
                    "spectral_radius", "--samples", "0"])
    assert code == 2
    assert "sample_count" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [10 ** 9, 2 ** 62])
def test_samples_over_the_budget_exit_two_before_any_stage(monkeypatch,
                                                           capsys, samples):
    """--samples 1e9 on rrc would stack 119 GiB of rows (its first draw
    alone took 29.8 GiB): it exits 2 and names samples, and no stage runs,
    so nothing is drawn."""
    monkeypatch.setattr(pipeline, "_walk",
                        lambda *a: pytest.fail("a stage ran"))
    code = cli.run(["verify", "--algebra", "rrc", "--seminorm",
                    "spectral_radius", "--samples", str(samples),
                    "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"samples {samples}" in captured.err
    assert "budget" in captured.err


@pytest.mark.parametrize("argv, field", [
    (["fuzz", "--iterations", "-5"], "iterations"),
    (["fuzz", "--iterations", "0"], "iterations"),
], ids=["fuzz_negative", "fuzz_zero"])
def test_non_positive_count_exit_two(argv, field, capsys):
    code = cli.run(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert field in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--algebra", "rr", "--seminorm", "coordinate_max",
     "--seed", "-3"],
    ["fuzz", "--iterations", "5", "--seed", "-1"],
    ["characters", "--algebra", "rr", "--seed", "-5"],
], ids=["verify", "fuzz", "characters"])
def test_negative_seed_exit_two(argv, capsys):
    code = cli.run(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "seed must be non-negative" in captured.err


@pytest.mark.parametrize("subset", [[0.5], [1.9], [0, 1.5], [float("nan")]],
                         ids=["half", "1.9", "mixed", "nan"])
def test_non_integral_subset_exit_two(tmp_path, capsys, subset):
    sn = tmp_path / "subset.json"
    sn.write_text(json.dumps({"type": "component_sup", "subset": subset}))
    code = cli.run(["verify", "--algebra", "rr", "--seminorm", str(sn)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "subset entries must be integers" in captured.err


def test_integral_float_subset_is_the_integer_one(tmp_path, capsys):
    sn = tmp_path / "subset.json"
    sn.write_text(json.dumps({"type": "component_sup", "subset": [0.0]}))
    outs = []
    for spec in (str(sn), "component_sup:0"):
        assert cli.run(["verify", "--algebra", "rr", "--seminorm", spec,
                        "--samples", "200", "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_non_numeric_seminorm_shorthand_exit_two(capsys):
    code = cli.run(["verify", "--algebra", "rr", "--seminorm",
                    "coordinate_max:a"])
    assert code == 2
    assert "coordinate_max:a" in capsys.readouterr().err


@pytest.mark.parametrize("extra, field", [
    ({"table": [[0, 0, 0, "one"]]}, "table row"),
    ({"table": [[0, "x", 0, 1.0]]}, "table row"),
    ({"table": [[0, 0, 0, 1.0]], "unit": ["one"]}, "one"),
], ids=["value", "index", "unit"])
def test_non_numeric_algebra_entry_exit_two(tmp_path, capsys, extra, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "basis": ["1"], **extra}))
    code = cli.run(["spectrum", "--algebra", str(path), "--element", "1"])
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"type": "coordinate_max", "weights": [float("nan"), 1.0]},
    {"type": "coordinate_max", "weights": [float("inf"), 1.0]},
    {"type": "character_sup",
     "characters": [[[float("nan"), 0, 0, 0], [0, 0, 0, 0]]]},
], ids=["nan_weight", "inf_weight", "nan_character"])
def test_non_finite_seminorm_exit_two(tmp_path, capsys, payload):
    sn = tmp_path / "nan.json"
    sn.write_text(json.dumps(payload))
    code = cli.run(["verify", "--algebra", "rr", "--seminorm", str(sn)])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("payload, field", [
    ({"type": "component_sup", "subset": 5}, "subset"),
    ({"type": "coordinate_max", "weights": 5}, "weights"),
    ({"type": "character_sup", "characters": 5}, "characters"),
    ({"type": "character_sup",
      "characters": [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0]]]},
     "characters"),
], ids=["subset_number", "weights_number", "characters_number",
        "characters_ragged"])
def test_malformed_seminorm_payload_exit_two(tmp_path, capsys, payload,
                                             field):
    sn = tmp_path / "malformed.json"
    sn.write_text(json.dumps(payload))
    code = cli.run(["verify", "--algebra", "rr", "--seminorm", str(sn)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"field {field!r}" in captured.err


@pytest.mark.parametrize("payload, field", [
    ({"type": "component_sup", "subset": [True]}, "subset"),
    ({"type": "component_sup", "subset": [0, False]}, "subset"),
    ({"type": "coordinate_max", "weights": [1, True]}, "weights"),
    ({"type": "coordinate_sum", "weights": [False, 1]}, "weights"),
    ({"type": "character_sup",
      "characters": [[[1, 0, 0, 0], [0, 0, 0, True]]]}, "characters"),
], ids=["subset_true", "subset_false", "weights_max", "weights_sum",
        "characters"])
def test_json_boolean_among_numbers_exit_two(tmp_path, capsys, payload,
                                             field):
    """NumPy reads true as 1 and false as 0: subset [true] verified as
    subset [1] with kernel_dim 1, and weights [1, true] as [1, 1]."""
    sn = tmp_path / "bool.json"
    sn.write_text(json.dumps(payload))
    code = cli.run(["verify", "--algebra", "rr", "--seminorm", str(sn)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"field {field!r} holds true or false" in captured.err


def test_non_finite_element_exit_two(capsys):
    code = cli.run(["spectrum", "--algebra", "rr", "--element", "nan 1"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "radius"])
@pytest.mark.parametrize("algebra", ["quaternions", "m2_reals"])
def test_overflowing_spectrum_exit_two(capsys, command, algebra):
    """sp(a) of these elements lies beyond the largest float: on H its
    points 1e308 +- 1.7e308 i have a modulus that does not fit, and on
    M2(R) eigvals returns the point 2e308 as inf."""
    code = cli.run([command, "--algebra", algebra,
                    "--element", "1e308 1e308 1e308 1e308"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: element ")
    assert "overflows" in captured.err


@pytest.mark.parametrize("algebra, element", [
    ("m2_reals", "1e308 1e308 -1e308 -1e308"),
])
def test_radius_whose_powers_leave_the_float_range_exit_zero(capsys, algebra,
                                                             element):
    """The nilpotent's operator norm overflows to inf.  The Gelfand
    iteration takes that first norm on the element scaled to max|a| = 1
    and adds log max|a|, so the next power is 0 and the radius is 0, with
    exit 0."""
    code = cli.run(["radius", "--algebra", algebra, "--element", element,
                    "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["gelfand_radius"] == 0.0 and out["last_delta"] == 0.0


@pytest.mark.parametrize("algebra, element", [
    ("rr", "1e-320 0"),
    ("quaternions", "1e-320 0 0 0"),
    ("m2_reals", "1e-320 0 0 0"),
])
def test_radius_of_a_subnormal_element_prints(capsys, algebra, element):
    """A power is renormalised by dividing by its norm n, which stays
    finite where 1 / n overflows for a subnormal n; these three used to
    exit 2, and a traceback before that."""
    code = cli.run(["radius", "--algebra", algebra, "--element", element])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == ("gelfand radius  9.99988867183e-321 "
                            "(last delta 0)\n"
                            "spectral radius 9.99988867183e-321\n")


@pytest.mark.parametrize("command, key", [("spectrum", "radius"),
                                          ("radius", "spectral_radius")])
def test_radius_up_to_the_largest_float_prints(capsys, command, key):
    code, out = run_capture(capsys, [
        command, "--algebra", "rrc", "--element", "1e308 1e308 1e308 1e308",
        "--format", "json"])
    assert code == 0
    assert json.loads(out)[key] == pytest.approx(2.0 ** 0.5 * 1e308)


def test_nan_table_exit_two(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dim": 1, "basis": ["1"],
                                "table": [[0, 0, 0, float("nan")]]}))
    code = cli.run(["spectrum", "--algebra", str(path), "--element", "1"])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


def test_table_entry_too_large_to_square_exit_two(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 1, "basis": ["1"],
                                "table": [[0, 0, 0, 1e200]]}))
    code = cli.run(["verify", "--algebra", str(path),
                    "--seminorm", "spectral_radius"])
    assert code == 2
    err = capsys.readouterr().err
    assert "big.json" in err and "table entry" in err


def test_nonunital_spectrum_json_is_unchanged(capsys):
    """The dense formula eig(L_a) u {0}, the spectrum in the
    unitization, gives the output it gave when the unitization was
    built, byte for byte."""
    code, out = run_capture(capsys, [
        "spectrum", "--algebra", "nonunital3", "--element", "1 -2 3",
        "--format", "json"])
    assert code == 0
    assert out == (
        '{\n  "algebra": "R(+)R(+)null",\n  "points": [\n'
        '    [\n      -2.0,\n      0.0\n    ],\n'
        '    [\n      0.0,\n      0.0\n    ],\n'
        '    [\n      0.0,\n      0.0\n    ],\n'
        '    [\n      1.0,\n      0.0\n    ]\n  ],\n'
        '  "radius": 2.0\n}\n')


def _t2r_plus_m2r():
    t2r = make_algebra(3, ["E11", "E12", "E22"],
                       {(0, 0, 0): 1.0, (0, 1, 1): 1.0, (1, 2, 1): 1.0,
                        (2, 2, 2): 1.0}, unit=[1.0, 0.0, 1.0], name="T2(R)")
    return corpus.direct_sum([t2r, corpus.m2_reals()])


def _algebra_file(tmp_path, name, A) -> str:
    """A written as an algebra JSON file, with its unit; the file's path."""
    spec = str(tmp_path / f"{name}.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"dim": A.dim, "basis": A.labels, "unit": A.unit.tolist(),
                   "table": [[*map(int, ijk), float(A.table[ijk])]
                             for ijk in zip(*np.nonzero(A.table))]}, fh)
    return spec


def _matrix_block_note(capsys, spec) -> dict:
    """verify with the spectral radius on spec: exit 3 at the axiom stop,
    with no final ratio; the JSON payload."""
    code, out = run_capture(capsys, [
        "verify", "--algebra", spec, "--seminorm", "spectral_radius",
        "--format", "json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "hypothesis_not_met"
    assert payload["final_submultiplicativity_ratio"] is None
    return payload


@pytest.mark.parametrize("name, block", [
    ("m2_reals", 0), ("rotated_m2r+r", 1), ("t2r+m2r", 2)])
def test_spectral_radius_on_a_matrix_block_exits_three(tmp_path, capsys,
                                                        name, block):
    """r is no seminorm when A/rad(A) has an M2(R) block; these used to
    exit 1 with final ratios 41.7, 15.6 and 7.9.  The blocks are ordered
    by dimension and name, so the note names M2(R) after the R blocks."""
    spec = name
    if name != "m2_reals":
        A = (rotated(corpus.direct_sum([corpus.m2_reals(),
                                        corpus.reals()]), 1)[0]
             if name == "rotated_m2r+r" else _t2r_plus_m2r())
        spec = _algebra_file(tmp_path, name, A)
    payload = _matrix_block_note(capsys, spec)
    assert [n for n in payload["notes"]
            if f"block {block} of A/rad(A) is M2(R)" in n]
    code, out = run_capture(capsys, [
        "verify", "--algebra", "rrc", "--seminorm", "spectral_radius",
        "--samples", "300", "--format", "json"])
    assert code == 0 and set(json.loads(out)) == set(payload)


def test_matrix_block_index_does_not_follow_rounding(tmp_path, capsys):
    """M2(R) (+) R rotated by Q, written twice: by transforms.rotated, and
    by einsum(optimize=False) with Q in place of Q^-T.  The tables differ
    by about 3e-16, which once put M2(R) first in one copy and second in
    the other; ordered by dimension and name, both name block 1."""
    A = corpus.direct_sum([corpus.m2_reals(), corpus.reals()])
    R, Q = rotated(A, 1)
    table = np.einsum("abg,ai,bj,gk->ijk", A.table, Q, Q, Q, optimize=False)
    E = make_algebra(A.dim, R.labels, table, unit=Q.T @ A.unit)
    assert 0.0 < np.abs(E.table - R.table).max() <= 1e-15
    for name, copy in (("rotated", R), ("einsum", E)):
        assert [b.name for b in copy.simple_blocks] == ["R", "M2(R)"]
        payload = _matrix_block_note(
            capsys, _algebra_file(tmp_path, name, copy))
        assert [n for n in payload["notes"]
                if "block 1 of A/rad(A) is M2(R)" in n]


@pytest.mark.parametrize("algebra, seminorm, note", [
    ("nonunital3", "coordinate_max:1,1,1e-6", "A / Ker p has a radical"),
    ("m2_reals", "spectral_radius", "the spectral radius is not a seminorm"),
], ids=["radical", "axiom"])
def test_early_stop_json_regates_to_its_verdict(monkeypatch, capsys, algebra,
                                                seminorm, note):
    """The console entry point exits 3 on both stops, and compute_verdict
    on the printed JSON reads hypothesis_not_met from the stop's note."""
    monkeypatch.setattr(sys, "argv", [
        "squareprop", "verify", "--algebra", algebra, "--seminorm", seminorm,
        "--format", "json"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "hypothesis_not_met"
    assert pipeline.compute_verdict(
        pipeline.VerificationReport(**payload)) == "hypothesis_not_met"
    assert [n for n in payload["notes"]
            if n.startswith(pipeline.HYPOTHESIS_NOT_MET + note)]


def _nil_file(tmp_path, name) -> str:
    """A nil algebra as a file without a unit: the null line, or the
    strictly upper triangular 3 x 3 matrices (E12 E23 = E13) in a rotated,
    dense basis."""
    if name == "null_line":
        A = make_algebra(1, ["n"], {}, name="null line")
    else:
        A = rotated(make_algebra(3, ["E12", "E13", "E23"], {(0, 2, 1): 1.0},
                                 name="N3(R)"), 1)[0]
    return _write_algebra(tmp_path / f"{name}.json", A, None)


@pytest.mark.parametrize("algebra, seminorm", [
    ("rr", "coordinate_max:0,0"),
    ("rr", "coordinate_sum:0,0"),
    ("null_line", "spectral_radius"),
    ("rotated_N3", "spectral_radius"),
])
def test_seminorm_vanishing_on_the_algebra_exits_two(tmp_path, capsys,
                                                      algebra, seminorm):
    """p = 0 on all of A leaves a 0-dimensional quotient; verify stops
    after the kernel stage and names the cause instead of a traceback.  On
    a nil algebra A / rad(A) is 0, and r = 0 on all of A."""
    if algebra in ("null_line", "rotated_N3"):
        algebra = _nil_file(tmp_path, algebra)
    code = cli.run(["verify", "--algebra", algebra, "--seminorm", seminorm,
                    "--samples", "200", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "vanishes on all of" in captured.err
    assert "no quotient is left to check" in captured.err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--algebra", "rr", "--element", "1 2", "--samples", "5"],
    ["radius", "--algebra", "rr", "--element", "1 2", "--tol", "1e-3"],
    ["corpus", "--seed", "1"],
    ["fuzz", "--iterations", "1", "--samples", "5"],
    ["characters", "--algebra", "rr", "--tol", "1e-3"],
    # characters are built, not searched for: the restart count is gone,
    # and its JSON keys echo 50
    ["verify", "--algebra", "rr", "--seminorm", "coordinate_max",
     "--restarts", "20"],
    ["characters", "--algebra", "rr", "--restarts", "0"],
])
def test_removed_flags_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in \
        capsys.readouterr().err


def test_every_option_is_read_or_echoed():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.choices and "verify" in a.choices)
    options = {name: sorted(o for a in sp._actions for o in a.option_strings
                            if o != "-h" and o != "--help" and not a.required)
               for name, sp in sub.choices.items()}
    assert options == {
        "verify": ["--format", "--samples", "--seed", "--tol"],
        "spectrum": ["--format"],
        "radius": ["--format"],
        "corpus": ["--format"],
        "characters": ["--format", "--seed"],
        "fuzz": ["--format", "--iterations", "--seed", "--tol"],
    }


@pytest.mark.parametrize("algebra, seminorm", [
    ("rrc", "spectral_radius"), ("hc", "character_sup")])
def test_verify_reports_sup_equality(algebra, seminorm, capsys):
    code, out = run_capture(capsys, [
        "verify", "--algebra", algebra, "--seminorm", seminorm,
        "--samples", "300", "--format", "json"])
    assert code == 0
    residual = json.loads(out)["sup_equality_residual"]
    assert isinstance(residual, float) and residual <= 1e-12


def test_character_sup_shorthand_on_an_untagged_algebra(tmp_path, capsys):
    """The shorthand takes the characters of the algebra itself, so a JSON
    copy of H, which carries no R/C/H component tags, verifies as H."""
    H = corpus.quaternions()
    i, j, k = np.nonzero(H.table)
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "name": "H-from-file", "dim": 4, "basis": ["1", "i", "j", "k"],
        "table": [[int(a), int(b), int(c), float(H.table[a, b, c])]
                  for a, b, c in zip(i, j, k)],
        "unit": [1.0, 0.0, 0.0, 0.0]}))
    code, out = run_capture(capsys, [
        "verify", "--algebra", str(path), "--seminorm", "character_sup",
        "--samples", "300", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass" and payload["character_count"] == 1


@pytest.mark.parametrize("spec, field", [
    ("spectral_radius:1,2", "weights"),
    ("operator_norm:5", "weights"),
    ("character_sup:3", "weights"),
    ({"type": "spectral_radius", "bogus": 3}, "bogus"),
    ({"type": "component_sup", "subset": [0], "weights": [1, 1]},
     "weights"),
], ids=["radius_params", "operator_params", "character_params",
        "unknown_field", "foreign_field"])
def test_seminorm_input_the_kind_does_not_read_exits_two(tmp_path, capsys,
                                                          spec, field):
    if isinstance(spec, dict):
        path = tmp_path / "seminorm.json"
        path.write_text(json.dumps(spec))
        spec = str(path)
    code = cli.run(["verify", "--algebra", "rr", "--seminorm", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"does not read field '{field}'" in captured.err


@pytest.mark.parametrize("spec", [
    "component_sup", "component_sup:", {"type": "component_sup"},
    {"type": "component_sup", "subset": None},
], ids=["shorthand", "empty_params", "file", "file_null"])
def test_component_sup_without_subset_names_the_field(tmp_path, capsys, spec):
    if isinstance(spec, dict):
        path = tmp_path / "seminorm.json"
        path.write_text(json.dumps(spec))
        spec = str(path)
    code = cli.run(["verify", "--algebra", "rr", "--seminorm", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "component_sup needs field 'subset'" in captured.err


@pytest.mark.parametrize("payload", [
    {"type": "character_sup", "identity": True},
    {"type": "character_sup", "known": True},
], ids=["identity", "known"])
def test_character_sup_shorthand_fields_are_read(tmp_path, capsys, payload):
    path = tmp_path / "seminorm.json"
    path.write_text(json.dumps(payload))
    code = cli.run(["verify", "--algebra", "hc", "--seminorm", str(path),
                    "--samples", "300"])
    assert code == 0


def _write_algebra(path, A, unit):
    """A as an algebra file; the unit is left out when unit is None."""
    doc = {"dim": A.dim, "basis": A.labels,
           "table": [[*map(int, ijk), float(A.table[ijk])]
                     for ijk in zip(*np.nonzero(A.table))]}
    if unit is not None:
        doc["unit"] = list(unit)
    path.write_text(json.dumps(doc))
    return str(path)


def test_algebra_file_without_unit_gets_the_detected_one(tmp_path, capsys):
    """C written without "unit" loads unital, as the builtin: the same
    spectrum points and radii, and the unital branch of verify (the file
    used to load non-unital, with an extra 0 in every spectrum)."""
    spec = _write_algebra(tmp_path / "c.json", corpus.complexes(), None)
    assert cli.load_algebra(spec).unit.tolist() == [1.0, 0.0]
    for argv in (["spectrum", "--element", "1 0"],
                 ["spectrum", "--element", "0.5 -2"],
                 ["radius", "--element", "0.3 -1.7"]):
        outs = []
        for algebra in (spec, "complexes"):
            code, out = run_capture(capsys, argv + [
                "--algebra", algebra, "--format", "json"])
            assert code == 0
            payload = json.loads(out)
            del payload["algebra"]
            outs.append(payload)
        assert outs[0] == outs[1]
    code, out = run_capture(capsys, [
        "verify", "--algebra", spec, "--seminorm", "spectral_radius",
        "--samples", "300", "--format", "json"])
    assert code == 0
    assert json.loads(out)["branch"] == "unital"


def test_algebra_file_without_unit_stays_non_unital_when_there_is_none(
        tmp_path):
    spec = _write_algebra(tmp_path / "n.json",
                          corpus.builtin("nonunital3"), None)
    assert not cli.load_algebra(spec).is_unital


@pytest.mark.parametrize("with_unit", [True, False], ids=["unit", "no_unit"])
def test_skewed_h8_file_passes(tmp_path, capsys, with_unit):
    """H^8 in the basis skew(32): cond 4.8e3, max|c| 2.2e4.  The unit's
    defect is rounding of the size of its products, 1e-12 as given and
    2e-11 as solved for; the gate is relative to that size, so both files
    pass.  Under an absolute 1e-12 the file with the unit exited 2 and the
    file without it exited 1."""
    H = corpus.function_algebra_H(8)
    A = in_basis(H, skew(H.dim), unit=with_unit)
    spec = _write_algebra(tmp_path / "h8.json", A,
                          A.unit if with_unit else None)
    code, out = run_capture(capsys, [
        "verify", "--algebra", spec, "--seminorm", "spectral_radius",
        "--format", "json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ["verify", "--seminorm", "spectral_radius"],
    ["verify", "--seminorm", "character_sup"],
    ["characters"],
], ids=["verify", "verify_character_sup", "characters"])
def test_undecidable_radical_exits_two(tmp_path, capsys, argv):
    """H in a basis of condition 1e4, written without its unit: the rank
    cut of Dickson's form finds a spurious radical of dim 2, which the
    ideal gate refuses.  Each subcommand that reads A / rad(A) exits 2
    with one error line naming the algebra, where it printed the
    NotAnIdeal traceback of semisimple_quotient and exited 1."""
    A = conditioned(corpus.quaternions(), 1e4, unit=False)
    assert A.radical.shape[0] > 0
    spec = _write_algebra(tmp_path / "h_cond.json", A, None)
    for _ in range(2):      # the refusal is not kept
        code = cli.run(argv + ["--algebra", spec, "--format", "json"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_BAD_INPUT
        assert out == "" and "Traceback" not in err
        assert err.splitlines() == [
            "error: algebra h_cond.json: its radical cut is not a two-sided "
            "ideal at double precision, so the table is too ill-conditioned "
            "to decide its radical"]


def test_small_basis_of_c_has_no_radical(tmp_path, capsys):
    """C in the basis (t, t i), t = 1e-6: table entries +-t, unit (1/t, 0).
    The rank cut of the radical is relative to the Dickson matrix, whose
    entries are about 2 t^2, so the radical is 0 and verify passes; with
    an absolute cut it was all of C and verify died in a traceback."""
    t = 1e-6
    A = make_algebra(2, ["t", "ti"], corpus.complexes().table * t,
                     unit=[1.0 / t, 0.0], name="C/1e-6")
    assert A.radical.shape == (0, 2)
    spec = _write_algebra(tmp_path / "c_small.json", A, A.unit)
    code, out = run_capture(capsys, [
        "verify", "--algebra", spec, "--seminorm", "spectral_radius",
        "--format", "json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["null_line", "rotated_N3"])
def test_nil_algebra_has_no_block(tmp_path, capsys, name):
    """A nil algebra has A / rad(A) = 0: no block, no character, and
    r = 0; characters names a nilpotent basis element.  spectrum takes
    eigvals of the defective L_a, which is exact on the null line and
    off by about eps^(1/3) in the dense basis."""
    spec = _nil_file(tmp_path, name)
    A = cli.load_algebra(spec)
    assert A.semisimple_quotient is None and A.simple_blocks == ()
    assert A.spectral_split == ()
    code, out = run_capture(capsys, [
        "characters", "--algebra", spec, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 0 and "is nilpotent" in payload["note"]
    element = " ".join(["0.3", "-1.2", "0.7"][:A.dim])
    code, out = run_capture(capsys, [
        "spectrum", "--algebra", spec, "--element", element,
        "--format", "json"])
    assert code == 0
    radius = json.loads(out)["radius"]
    assert radius == 0.0 if name == "null_line" else radius <= 1e-8
    assert capsys.readouterr().err == ""


def test_c_in_a_small_basis_has_its_character(tmp_path, capsys):
    """Reproducer 1(c): C in the basis (t, t i), t = 1e-7, with no unit
    given.  Its one character has images of size t; an absolute floor of
    1e-6 on them dropped it, and verify exited 1 with "the quotient has no
    quaternion character".  Now verify exits 0, but its working constant
    sits at its floor and its ratios at 0.0: the pass is vacuous until
    the checks that mask every row fail (ROADMAP item 1)."""
    t = 1e-7
    A = make_algebra(2, ["a", "b"], corpus.complexes().table * t)
    spec = _write_algebra(tmp_path / "c_tiny.json", A, None)
    code, out = run_capture(capsys, [
        "characters", "--algebra", spec, "--format", "json"])
    assert code == 0 and json.loads(out)["count"] == 1
    code, out = run_capture(capsys, [
        "verify", "--algebra", spec, "--seminorm", "spectral_radius",
        "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["character_count"] == 1
    assert payload["m_hat"] == M_HAT_FLOOR


def _truncated_polynomial_file(tmp_path, powers):
    """R[x]/(x^k), k = len(powers), with x^powers[i] as basis element i."""
    at = {e: i for i, e in enumerate(powers)}
    table = {(at[e], at[f], at[e + f]): 1.0 for e in powers for f in powers
             if e + f < len(powers)}
    A = make_algebra(len(powers), [f"x{e}" for e in powers], table,
                     unit=np.eye(len(powers))[at[0]])
    return _write_algebra(tmp_path / "truncated.json", A, A.unit.tolist())


@pytest.mark.parametrize("algebra, seminorm, note", [
    ("nonunital3", "coordinate_max:1,1,1e-6",
     "b = [0.0, 0.0, 1.0] is nilpotent, and c = b^1 has p(c) = 1e-06 but "
     "p(c^2) = 0"),
    ((0, 1), "coordinate_max:1,1e-6",
     "b = [0.0, 1.0] is nilpotent, and c = b^1 has p(c) = 1e-06 but "
     "p(c^2) = 0"),
    ((0, 1, 2), "coordinate_max:1,1e-6,1e-12",
     "b = [0.0, 0.0, 1.0] is nilpotent, and c = b^1 has p(c) = 1e-12 but "
     "p(c^2) = 0"),
    # b = x: p(b^2) = p(b)^2 = 1e-12, and the defect shows at c = b^2
    ((0, 2, 1), "coordinate_max:1,1e-12,1e-6",
     "b = [0.0, 0.0, 1.0] is nilpotent, and c = b^2 has p(c) = 1e-12 but "
     "p(c^2) = 0"),
])
def test_radical_in_the_quotient_exits_three(tmp_path, capsys, algebra,
                                             seminorm, note):
    """A / Ker p = A has a radical whose square defects sit below the
    square check's tolerance.  These used to pass: nonunital3 through the
    unitization route, the truncated polynomials on the unital branch."""
    if isinstance(algebra, tuple):
        algebra = _truncated_polynomial_file(tmp_path, algebra)
    code, out = run_capture(capsys, [
        "verify", "--algebra", algebra, "--seminorm", seminorm,
        "--samples", "300", "--format", "json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "hypothesis_not_met"
    assert payload["square_property_residual"] <= 1e-9
    assert [n for n in payload["notes"] if note in n], payload["notes"]


def _with_nonunital3(*parts):
    return corpus.direct_sum([*parts, corpus.builtin("nonunital3")])


NONUNITAL_SUMS = {
    "nonunital3": lambda: corpus.builtin("nonunital3"),
    "C+nonunital3": lambda: _with_nonunital3(corpus.complexes()),
    "H+nonunital3": lambda: _with_nonunital3(corpus.quaternions()),
    "H2+nonunital3": lambda: _with_nonunital3(*[corpus.quaternions()] * 2),
}
# the seeds that pass, of 10, in the basis diag(2^k), each k uniform in
# [-K, K]: every seed that passed while the blocks were read from the
# unitization, and those that now pass too (nonunital3 at K = 30 and 60,
# C+nonunital3 at K = 30 and 60, H+nonunital3 at K = 30); the rest exit 1
# or 3 (ROADMAP item 1(h))
NONUNITAL_PASSES = {
    ("nonunital3", 20): range(10),
    ("nonunital3", 30): range(10),        # seed 2 is new (it exited 3)
    ("nonunital3", 60): range(10),        # 2, 3 and 9 are new (3, 1, 1)
    ("C+nonunital3", 20): [0, 1, 2, 4, 5, 6, 7, 8, 9],
    ("C+nonunital3", 30): [0, 1, 4, 5, 6, 7, 9],  # 0, 5 and 9 are new
    ("C+nonunital3", 60): [0, 6, 9],      # 0 and 9 are new
    ("H+nonunital3", 20): [2, 3, 6, 7],
    ("H+nonunital3", 30): [6],            # new
    ("H+nonunital3", 60): [],
    ("H2+nonunital3", 20): [6],
    ("H2+nonunital3", 30): [],
    ("H2+nonunital3", 60): [],
}


@pytest.mark.parametrize("name, K", sorted(NONUNITAL_PASSES))
def test_nonunital_power_of_two_copies(tmp_path, capsys, name, K):
    """verify with the spectral radius on non-unital sums written in the
    basis diag(2^k), given no unit, 10 seeds: no traceback, exit 0, 1 or
    3, and every pinned seed passes.  A / rad(A) takes the unit solved on
    its own balanced table."""
    B = NONUNITAL_SUMS[name]()
    codes = []
    for seed in range(10):
        A = power_of_two(B, K, seed)[0]
        assert not A.is_unital
        spec = _write_algebra(tmp_path / f"{seed}.json", A, None)
        codes.append(cli.run(["verify", "--algebra", spec, "--seminorm",
                              "spectral_radius", "--format", "json"]))
        capsys.readouterr()
    assert set(codes) <= {0, 1, 3}
    assert {s for s, code in enumerate(codes) if code == 0} >= set(
        NONUNITAL_PASSES[name, K])
