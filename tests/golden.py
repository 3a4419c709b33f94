"""Golden outputs: CLI and report outputs that a change which claims to
keep every bit must leave byte for byte.

    PYTHONPATH=src python tests/golden.py --write

rewrites tests/golden_outputs.txt; without --write the outputs go to
stdout.  Run as a script it sets OPENBLAS_NUM_THREADS=1 before NumPy
loads, since BLAS may sum in another order on more threads.  A rewrite that
moves a value should say which one in CHANGES.md.

The cases: `verify --format json` on every manifest pair at seeds 0 and
5, `characters --format json` on every builtin, verify_theorem's report
on H^2, H^4, H^8 and H^16 at seed 1 with the spectral radius and the
character sup, and `fuzz --seed 42 --iterations 2000 --format json`.
Each section starts with a line "### <case> exit <code>".
"""

import contextlib
import functools
import io
import json
import os
import re
import sys

if __name__ == "__main__":   # before NumPy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from squareprop import cli, corpus, pipeline  # noqa: E402

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "golden_outputs.txt")


def _spec(pair: corpus.CorpusPair) -> str:
    """The CLI shorthand of a manifest pair's seminorm."""
    subset = pair.seminorm_args.get("subset")
    if subset is not None:
        return f"{pair.seminorm_kind}:{','.join(map(str, subset))}"
    return pair.seminorm_kind


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _report(n: int, kind: str):
    alg = corpus.function_algebra_H(n)
    rep = pipeline.verify_theorem(alg, corpus.make_seminorm(kind, {}, alg),
                                  pipeline.PipelineConfig(seed=1))
    return 0, json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n"


def cases():
    """(name, thunk) per case, each thunk giving (exit code, output)."""
    for seed in (0, 5):
        for p in corpus.MANIFEST:
            yield f"verify {p.name} seed {seed}", functools.partial(_cli, [
                "verify", "--algebra", p.algebra_name, "--seminorm",
                _spec(p), "--seed", str(seed), "--format", "json"])
    for name in corpus.builtin_names():
        yield f"characters {name}", functools.partial(_cli, [
            "characters", "--algebra", name, "--format", "json"])
    for n in (2, 4, 8, 16):
        for kind in ("spectral_radius", "character_sup"):
            yield (f"report H^{n} {kind} seed 1",
                   functools.partial(_report, n, kind))
    yield "fuzz seed 42 iterations 2000", functools.partial(_cli, [
        "fuzz", "--seed", "42", "--iterations", "2000", "--format", "json"])


def render() -> str:
    parts = []
    for name, thunk in cases():
        code, out = thunk()
        parts.append(f"### {name} exit {code}\n{out}")
    return "".join(parts)


def sections(text: str) -> dict:
    """The header line of each section mapped to its output."""
    parts = re.split(r"^### (.*)\n", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


if __name__ == "__main__":
    text = render()
    if sys.argv[1:] == ["--write"]:
        with open(PATH, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
