"""The four benchmark workloads: fixed inputs, seeded sweeps, output checks.

A workload is built once from the workload seed (its fixed inputs, which
count as set-up) and then hands out sweeps.  A sweep is a fixed amount of
work: a list of ops whose inputs derive from (workload seed, sweep index),
so repeated sweeps never repeat inputs and a cache keyed on inputs cannot
make later sweeps free.  The library only ever sees the generated inputs.

Every op calls the library through a module attribute looked up at call
time (``pipeline.verify_theorem``, not a name bound at import), so the
trace wrappers installed by ``tracing.Tracer`` see the call.

Why these four (each one stresses a different layer):

* ``fuzz``: construction-heavy, batched ``values``/``eigvals`` only; never
  reaches characters, kernel or quotient.
* ``manifest``: the user-facing CLI path at small dim; character search
  and the scalar ``p.value`` loops of pipeline stages 4-7.
* ``hn``: growth in n of H^n; the character search dominates H^8, which
  today finds no character and gets ``fail``.  Those ops count as failed.
* ``structure``: dims 35/51/63 after a dense orthogonal change of basis;
  associativity check, Dickson-trace kernel and quotient table dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from squareprop import algebra, cli, corpus, pipeline, seminorm

_SEED_SPACE = 2 ** 31


@dataclass(frozen=True)
class Op:
    """One timed library call and how to judge its result.

    ``observe(result)`` returns ``(check, digest)``: the op passes iff
    ``check == expected``; ``digest`` is what must repeat exactly between a
    traced and an untraced execution of the same op.
    """

    label: str
    call: Callable[[], Any]
    observe: Callable[[Any], tuple]
    expected: Any


def _derived_seeds(seed: int, index: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, index])
    return [int(s) for s in rng.integers(0, _SEED_SPACE, count)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Fuzz:
    """op = one ``pipeline.fuzz`` call over CHUNK instances."""

    CHUNK = 50
    CHUNKS_PER_SWEEP = 20
    # spans that must record calls in every traced sweep
    layers = ("pipeline.fuzz", "seminorm.values", "spectral.radius_batch",
              "corpus.direct_sum", "algebra.construct")

    def __init__(self, seed: int):
        self.seed = seed

    def sweep(self, index: int) -> list[Op]:
        return [
            Op(f"fuzz[seed={s}]",
               lambda s=s: pipeline.fuzz(pipeline.PipelineConfig(seed=s),
                                         iterations=self.CHUNK),
               _observe_fuzz, (0, True))
            for s in _derived_seeds(self.seed, index, self.CHUNKS_PER_SWEEP)
        ]


def _observe_fuzz(summary):
    accounted = (summary.checked + summary.square_rejections
                 == summary.iterations
                 == sum(summary.kind_counts.values()))
    check = (len(summary.counterexamples), accounted)
    return check, (summary.checked, summary.square_rejections,
                   len(summary.counterexamples))


_EXIT_FOR_VERDICT = {"pass": cli.EXIT_PASS,
                     "hypothesis_not_met": cli.EXIT_HYPOTHESIS,
                     "fail": cli.EXIT_VIOLATION}


def _seminorm_spec(pair: corpus.CorpusPair) -> str:
    """CLI shorthand for a manifest pair's seminorm."""
    subset = pair.seminorm_args.get("subset")
    if subset is not None:
        return f"{pair.seminorm_kind}:{','.join(map(str, subset))}"
    return pair.seminorm_kind


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _observe_verify_cli(result):
    code, out = result
    verdict = json.loads(out)["verdict"]
    return (code, verdict), (code, _sha(out))


class Manifest:
    """op = one in-process ``squareprop verify ... --format json``; a sweep
    is the seven ``corpus.MANIFEST`` pairs at one derived seed."""

    layers = ("cli.run", "pipeline.verify", "characters.find",
              "seminorm.value")

    def __init__(self, seed: int):
        self.seed = seed
        self.pairs = [
            (pair.name,
             ["verify", "--algebra", pair.algebra_name,
              "--seminorm", _seminorm_spec(pair), "--format", "json"],
             (_EXIT_FOR_VERDICT[pair.expected], pair.expected))
            for pair in corpus.MANIFEST
        ]

    def sweep(self, index: int) -> list[Op]:
        (s,) = _derived_seeds(self.seed, index, 1)
        return [
            Op(f"{name}[seed={s}]",
               lambda argv=argv + ["--seed", str(s)]: _run_cli(argv),
               _observe_verify_cli, expected)
            for name, argv, expected in self.pairs
        ]


def _observe_report(report):
    text = json.dumps(report.to_dict(), sort_keys=True, default=str)
    return report.verdict, (report.verdict, report.character_count,
                            _sha(text))


class Hn:
    """op = one ``verify_theorem`` on H^n; a sweep is n in POINTS times
    both seminorms at one derived seed.  Every op is a valid instance of
    the theorem, so the expected verdict is always ``pass``."""

    POINTS = (2, 4, 8)
    SEMINORMS = ("spectral_radius", "character_sup")
    layers = ("pipeline.verify", "characters.find", "seminorm.value",
              "seminorm.values", "spectral.gelfand")

    def __init__(self, seed: int):
        self.seed = seed
        self.cases = []
        for n in self.POINTS:
            alg = corpus.function_algebra_H(n)
            for kind in self.SEMINORMS:
                self.cases.append((f"H{n}/{kind}", alg,
                                   corpus.make_seminorm(kind, {}, alg)))

    def sweep(self, index: int) -> list[Op]:
        (s,) = _derived_seeds(self.seed, index, 1)
        return [
            Op(f"{label}[seed={s}]",
               lambda alg=alg, p=p: pipeline.verify_theorem(
                   alg, p, pipeline.PipelineConfig(seed=s)),
               _observe_report, "pass")
            for label, alg, p in self.cases
        ]


def _structure_chain(dim, labels, table):
    alg = algebra.make_algebra(dim, labels, table, name=f"dense{dim}")
    k_radius = seminorm.kernel(seminorm.SpectralRadius(), alg)
    k_operator = seminorm.kernel(seminorm.OperatorNorm(), alg)
    ideal = algebra.subspace_is_two_sided_ideal(alg, k_radius)
    quo = algebra.quotient(alg, k_radius)
    return k_radius, k_operator, ideal, quo


def _observe_structure(null_line):
    def observe(result):
        k_radius, k_operator, ideal, quo = result
        # both kernels must be exactly the (rotated) null line
        aligned = all(k.shape[0] == 1 and abs(abs(k[0] @ null_line) - 1.0) < 1e-8
                      for k in (k_radius, k_operator))
        check = (k_radius.shape[0], k_operator.shape[0], bool(ideal),
                 quo.algebra.dim, quo.algebra.is_unital, aligned)
        return check, check
    return observe


class Structure:
    """op = ``make_algebra`` + both kernels + ideal check + quotient on
    ``direct_sum([H]*k + [nonunital_with_ideal()])`` after a seeded
    orthogonal change of basis.  The dense tables keep block-diagonal
    shortcuts from passing for a general gain."""

    COPIES = (8, 12, 15)
    layers = ("algebra.construct", "seminorm.kernel", "algebra.ideal_check",
              "algebra.quotient")

    def __init__(self, seed: int):
        self.seed = seed
        self.sums = [
            corpus.direct_sum([corpus.quaternions() for _ in range(k)]
                              + [corpus.nonunital_with_ideal()])
            for k in self.COPIES
        ]

    def sweep(self, index: int) -> list[Op]:
        ops = []
        for s, base in zip(_derived_seeds(self.seed, index, len(self.sums)),
                           self.sums):
            n = base.dim
            rng = np.random.default_rng(s)
            # new basis f_i = sum_a Q[a, i] e_a; Q orthogonal, so the
            # coordinates of e_g in it are Q[g, :]
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            table = np.einsum("abg,ai,bj,gk->ijk", base.table, Q, Q, Q,
                              optimize=True)
            labels = [f"f{i}" for i in range(n)]
            null_line = Q[n - 1]    # the null element is the last summand
            ops.append(Op(f"dim{n}[seed={s}]",
                          lambda n=n, labels=labels, table=table:
                          _structure_chain(n, labels, table),
                          _observe_structure(null_line),
                          (1, 1, True, n - 1, True, True)))
        return ops


WORKLOADS = {"fuzz": Fuzz, "manifest": Manifest, "hn": Hn,
             "structure": Structure}
