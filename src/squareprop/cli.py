"""Command-line front end with stable exit codes and deterministic JSON.

Exit codes: 0 = pass, 1 = property violation or counterexample,
2 = invalid input, 3 = hypothesis not met.

Algebras and seminorms are given either as JSON files or as builtin names
(see `squareprop corpus`).  JSON output is a frozen contract: identical
invocations with identical seeds are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import corpus, pipeline
from .algebra import (AlgebraElement, AlgebraError, FiniteDimRealAlgebra,
                      Undecidable, make_algebra)
from .characters import (character_residual, find_characters,
                         nonexistence_explanation)
from .seminorm import SeminormError
from .spectral import NonConvergence, gelfand_radius, spectrum

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_HYPOTHESIS = 3

class InputError(Exception):
    """Malformed user input; the message names the offending field."""


def _integral(x) -> bool:
    """x is a JSON number with no fractional part (2 or 2.0, not 1.5),
    and not true, false or a string, which Python would read as one."""
    return not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer())


def _real(x) -> bool:
    """x is a JSON number that a float holds (an integer past 1.8e308 is
    not), and not true, false or a string."""
    return not isinstance(x, bool) and (
        isinstance(x, float) or isinstance(x, int)
        and abs(x) <= sys.float_info.max)


def load_algebra(spec: str) -> FiniteDimRealAlgebra:
    """Path to an algebra JSON document, or a builtin name.  A file is
    read, and its table checked, on every call, so each call gives a new
    algebra; a builtin name gives the one object that corpus.builtin keeps
    for the process, with the records that earlier calls built on it.

    A file holds an integral `dim`, `basis` (dim labels), `table` (rows
    [i, j, k, value]: integral indices, a real value, no (i, j, k) twice),
    and optionally `unit` (dim reals) and `name` (a string).  True, false
    and strings are refused where a number belongs."""
    if not os.path.exists(spec):
        try:
            return corpus.builtin(spec)
        except KeyError as exc:
            raise InputError(str(exc)) from None
    try:
        with open(spec, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"algebra file {spec}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"algebra file {spec}: top level must be an object")
    if not _integral(doc.get("dim")):
        raise InputError(f"algebra file {spec}: field 'dim' missing or "
                         "not an integer")
    dim = int(doc["dim"])
    basis = doc.get("basis")
    if not isinstance(basis, list) or len(basis) != dim:
        raise InputError(f"algebra file {spec}: field 'basis' must list "
                         f"{dim} labels")
    raw = doc.get("table")
    if not isinstance(raw, list):
        raise InputError(f"algebra file {spec}: field 'table' must be an "
                         "array of [i, j, k, value] rows")
    table = {}
    for row in raw:
        if not (isinstance(row, list) and len(row) == 4):
            raise InputError(f"algebra file {spec}: table row {row!r} is not "
                             "[i, j, k, value]")
        if not (all(map(_integral, row[:3])) and _real(row[3])):
            raise InputError(f"algebra file {spec}: table row {row!r} needs "
                             "integer indices and a real value")
        ijk = tuple(map(int, row[:3]))
        if ijk in table:
            raise InputError(f"algebra file {spec}: table row {row!r} "
                             f"repeats the entry {ijk}")
        table[ijk] = row[3]
    unit = doc.get("unit")
    bad = ([x for x in unit if not _real(x)] if isinstance(unit, list)
           else [unit])
    if unit is not None and bad:
        raise InputError(f"algebra file {spec}: field 'unit' must list real "
                         f"numbers, not {bad[0]!r}")
    name = doc.get("name", os.path.basename(spec))
    if not isinstance(name, str):
        raise InputError(f"algebra file {spec}: field 'name' must be a "
                         "string")
    try:
        return make_algebra(dim, basis, table, unit=unit, name=name)
    except (AlgebraError, TypeError, ValueError) as exc:
        raise InputError(f"algebra file {spec}: {exc}") from None


def load_seminorm(spec: str, algebra: FiniteDimRealAlgebra):
    """Path to a seminorm JSON document, or a kind shorthand like
    'spectral_radius' / 'component_sup:0,1'."""
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"seminorm file {spec}: {exc}") from None
        if not isinstance(doc, dict) or "type" not in doc:
            raise InputError(f"seminorm file {spec}: field 'type' is required")
        kind = doc["type"]
        args = {k: v for k, v in doc.items() if k != "type"}
    else:
        kind, _, rest = spec.partition(":")
        field, num = (("subset", int) if kind == "component_sup"
                      else ("weights", float))
        try:
            args = {field: [num(v) for v in rest.split(",")]} if rest else {}
        except ValueError:
            raise InputError(f"seminorm {spec}: parameters after ':' must be "
                             "comma-separated numbers") from None
    try:
        p = corpus.make_seminorm(kind, args, algebra)
        p.check_payload(algebra)
    except (KeyError, ValueError, SeminormError) as exc:
        raise InputError(f"seminorm {spec}: {exc}") from None
    return p


def parse_element(algebra, text: str) -> AlgebraElement:
    try:
        coords = np.array([float(v) for v in text.split()])
    except ValueError:
        raise InputError(f"element {text!r}: coordinates must be reals") from None
    if coords.shape != (algebra.dim,):
        raise InputError(f"element has {coords.size} coordinates, "
                         f"algebra dim is {algebra.dim}")
    if not np.isfinite(coords).all():
        raise InputError(f"element {text!r}: coordinates must be finite")
    return algebra.element(coords)


def _spectrum(a: AlgebraElement, text: str):
    """spectrum(a), or InputError naming the element when a point of its
    spectrum, or the radius, leaves the float range."""
    try:
        res = spectrum(a)
    except OverflowError:   # abs of a complex point
        res = None
    if res is None or not np.isfinite(res.radius):
        raise InputError(f"element {text!r}: its spectrum overflows the "
                         "float range")
    return res


def _emit(payload: dict, fmt: str, text_lines):
    """Print the payload as JSON, or the text lines.  A reader that closed
    the pipe ends the output quietly: stdout is pointed at the null device,
    so that the interpreter's final flush cannot raise again, and the
    subcommand goes on to return its own exit code."""
    try:
        if fmt == "json":
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _config(**fields) -> pipeline.PipelineConfig:
    try:
        return pipeline.PipelineConfig(**fields)
    except ValueError as exc:
        raise InputError(f"options: {exc}") from None


def cmd_verify(args) -> int:
    algebra = load_algebra(args.algebra)
    p = load_seminorm(args.seminorm, algebra)
    try:
        rep = pipeline.verify_theorem(algebra, p, _config(
            sample_count=args.samples, seed=args.seed, tol=args.tol))
    except pipeline.VanishingSeminorm as exc:
        raise InputError(f"seminorm {args.seminorm}: {exc}") from None
    except pipeline.SampleBudgetExceeded as exc:
        raise InputError(f"options: {exc}") from None
    payload = rep.to_dict()
    lines = [f"verify {algebra.name} / {rep.seminorm_kind}"]
    for key, val in sorted(payload.items()):
        if key not in ("config", "tolerances"):
            lines.append(f"  {key}: {val}")
    _emit(payload, args.format, lines)
    if rep.verdict == "pass":
        return EXIT_PASS
    if rep.verdict == "hypothesis_not_met":
        return EXIT_HYPOTHESIS
    return EXIT_VIOLATION


def cmd_spectrum(args) -> int:
    a = parse_element(load_algebra(args.algebra), args.element)
    res = _spectrum(a, args.element)
    payload = {
        "algebra": a.algebra.name,
        "points": [[z.real, z.imag] for z in res.points],
        "radius": res.radius,
    }
    lines = [f"sp(a) in {a.algebra.name}:"] + [
        f"  {z.real:+.12g} {z.imag:+.12g}i" for z in res.points
    ] + [f"  radius {res.radius:.12g}"]
    _emit(payload, args.format, lines)
    return EXIT_PASS


def cmd_radius(args) -> int:
    a = parse_element(load_algebra(args.algebra), args.element)
    res = _spectrum(a, args.element)
    try:    # a norm of a power overflows to inf
        with np.errstate(over="ignore", invalid="ignore"):
            gr, delta = gelfand_radius(a, return_delta=True)
    except (NonConvergence, np.linalg.LinAlgError):
        raise InputError(f"element {args.element!r}: the norms of its powers "
                         "leave the float range") from None
    payload = {
        "algebra": a.algebra.name,
        "gelfand_radius": gr,
        "last_delta": delta,
        "spectral_radius": res.radius,
    }
    _emit(payload, args.format, [
        f"gelfand radius  {gr:.12g} (last delta {delta:.3g})",
        f"spectral radius {res.radius:.12g}",
    ])
    return EXIT_PASS


def cmd_characters(args) -> int:
    config = _config(seed=args.seed)
    algebra = load_algebra(args.algebra)
    chars = find_characters(algebra)
    residuals = [character_residual(algebra, x) for x in chars]
    payload = {
        "algebra": algebra.name,
        "restarts": pipeline.RESTARTS_ECHO,
        "seed": config.seed,
        "count": len(chars),
        "characters": [
            {"images": np.round(x, 12).tolist(), "residual": r}
            for x, r in zip(chars, residuals)
        ],
    }
    lines = [f"{len(chars)} character(s) found on {algebra.name} "
             f"({pipeline.RESTARTS_ECHO} restarts, seed {config.seed})"]
    for x, r in zip(chars, residuals):
        lines.append(f"  residual {r:.3e}  images "
                     + " | ".join(str(np.round(row, 6).tolist())
                                  for row in x))
    if len(chars) == 0:
        note = nonexistence_explanation(algebra)
        if note:
            payload["note"] = note
            lines.append(f"  note: {note}")
    _emit(payload, args.format, lines)
    return EXIT_PASS


def cmd_fuzz(args) -> int:
    config = _config(seed=args.seed, tol=args.tol)
    if args.iterations <= 0:
        raise InputError(
            f"options: iterations must be positive, got {args.iterations}")
    summary = pipeline.fuzz(config, iterations=args.iterations)
    payload = summary.to_dict()
    _emit(payload, args.format, [
        f"fuzz: {summary.iterations} instances, seed {summary.seed}",
        f"  hypothesis met and checked: {summary.checked}",
        f"  square-property rejections: {summary.square_rejections}",
        f"  counterexamples: {len(summary.counterexamples)}",
    ])
    return EXIT_VIOLATION if summary.counterexamples else EXIT_PASS


def cmd_corpus(args) -> int:
    payload = {
        "algebras": corpus.builtin_names(),
        "pairs": [
            {"name": c.name, "algebra": c.algebra_name,
             "seminorm": c.seminorm_kind, "args": c.seminorm_args,
             "expected": c.expected, "exercises": c.exercises}
            for c in corpus.MANIFEST
        ],
    }
    lines = ["builtin algebras: " + ", ".join(corpus.builtin_names()), "pairs:"]
    for c in corpus.MANIFEST:
        lines.append(f"  {c.name}: {c.algebra_name} + {c.seminorm_kind} "
                     f"-> {c.expected} ({c.exercises})")
    _emit(payload, args.format, lines)
    return EXIT_PASS


# every option a subcommand takes changes its result or is echoed in it
_OPTIONS = {
    "algebra": dict(required=True, help="algebra JSON file or builtin name"),
    "seminorm": dict(required=True,
                     help="seminorm JSON file or kind shorthand"),
    "element": dict(required=True, help="whitespace-separated coordinates"),
    "samples": dict(type=int, default=pipeline.PipelineConfig.sample_count),
    "seed": dict(type=int, default=pipeline.PipelineConfig.seed),
    "tol": dict(type=float, default=pipeline.PipelineConfig.tol),
    "iterations": dict(type=int, default=10000),
    "format": dict(choices=("text", "json"), default="text"),
}

_COMMANDS = {
    "verify": (cmd_verify, "run the full proof-chain pipeline",
               "algebra seminorm samples seed tol"),
    "spectrum": (cmd_spectrum, "spectrum of one element", "algebra element"),
    "radius": (cmd_radius, "Gelfand and spectral radius", "algebra element"),
    "characters": (cmd_characters, "construct quaternion characters",
                   "algebra seed"),
    "fuzz": (cmd_fuzz, "randomized counterexample search",
             "iterations seed tol"),
    "corpus": (cmd_corpus, "list builtin algebras and pairs", ""),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand.  It is built once per process and
    shared, because parsing does not change it and building it costs
    about twenty times what one parse does."""
    parser = argparse.ArgumentParser(
        prog="squareprop",
        description="Numerical verification toolkit for square-property "
                    "seminorms on finite-dimensional real algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for option in options.split() + ["format"]:
            sp.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (InputError, Undecidable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
