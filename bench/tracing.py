"""Span recorder that wraps the library's public functions from outside.

The library is not edited: ``Tracer.install`` replaces functions and
methods with timing wrappers and ``uninstall`` puts the originals back.
A module-level function is replaced in every ``squareprop`` module that
binds it (``pipeline`` does ``from .seminorm import estimate_m``, ``cli``
does ``from .characters import find_characters``, ...), because a wrapper
only on the defining module would record nothing for those callers.
Methods are patched on the classes that define them.

A span is ``[name, start, end, parent, op, outermost, child_time]``.
Spans stay in memory and are summarised per sweep by ``layer_metrics``.
Calls too cheap to time (``mul_coords``) are only counted.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

from squareprop import (algebra, characters, cli, corpus, pipeline, seminorm,
                        spectral)


def _eig_dim(alg) -> int:
    """Size of the matrix whose eigenvalues spectral code asks for."""
    return alg.dim + (0 if alg.is_unital else 1)


def _find_extra(args, kwargs, result):
    restarts = kwargs.get("restarts", args[1] if len(args) > 1 else 50)
    return {"characters.find.restarts": restarts,
            "characters.find.found": len(result)}


def _spectrum_extra(args, kwargs, result):
    return {"spectral.eig_flops_computed": 10 * _eig_dim(args[0].algebra) ** 3}


def _radius_batch_extra(args, kwargs, result):
    rows = args[1].shape[0]
    return {"spectral.radius_batch.matrices": rows,
            "spectral.eig_flops_computed": rows * 10 * _eig_dim(args[0]) ** 3}


def _construct_extra(args, kwargs, result):
    # lhs, rhs and |lhs - rhs| of the associativity check: n^4 doubles each
    n = args[1] if len(args) > 1 else kwargs["dim"]
    return {"algebra.construct.assoc_bytes_computed": 3 * 8 * n ** 4}


def _values_extra(args, kwargs, result):
    return {"seminorm.values.rows": args[2].shape[0]}


# (module, attribute, span name, extra counts or None)
FUNCTIONS = (
    (pipeline, "verify_theorem", "pipeline.verify", None),
    (pipeline, "fuzz", "pipeline.fuzz", None),
    (cli, "run", "cli.run", None),
    (characters, "find_characters", "characters.find", _find_extra),
    (characters, "check_prop31", "characters.prop31", None),
    (characters, "sampled_sup_norm", "characters.sup_norm", None),
    (seminorm, "square_property_details", "seminorm.square_check", None),
    (seminorm, "check_square_property", "seminorm.square_check", None),
    (seminorm, "estimate_m", "seminorm.estimate_m", None),
    (seminorm, "check_submultiplicative", "seminorm.submult", None),
    (spectral, "spectrum", "spectral.spectrum", _spectrum_extra),
    (spectral, "spectral_radius_batch", "spectral.radius_batch",
     _radius_batch_extra),
    (spectral, "gelfand_radius", "spectral.gelfand", None),
    (corpus, "direct_sum", "corpus.direct_sum", None),
    (corpus, "known_characters", "corpus.known_characters", None),
    (algebra, "quotient", "algebra.quotient", None),
    (algebra, "subspace_is_two_sided_ideal", "algebra.ideal_check", None),
    (algebra, "unitize", "algebra.unitize", None),
)

SEMINORM_METHODS = (
    ("value", "seminorm.value", None),
    ("values", "seminorm.values", _values_extra),
    ("kernel", "seminorm.kernel", None),
)


COUNT_NAMES = (
    "characters.find.restarts", "characters.find.found",
    "spectral.radius_batch.matrices", "spectral.eig_flops_computed",
    "spectral.gelfand.nonconverged", "seminorm.values.rows",
    "algebra.construct.assoc_bytes_computed", "algebra.mul.calls",
    "algebra.mul_batch.rows",
)


def all_layer_names() -> list[str]:
    """Every key ``layer_metrics`` can produce."""
    spans = {name for _, _, name, _ in FUNCTIONS}
    spans |= {name for _, name, _ in SEMINORM_METHODS}
    spans.add("algebra.construct")
    return sorted([f"{s}.{k}" for s in spans
                   for k in ("calls", "busy_s", "self_s")] + list(COUNT_NAMES))


class Tracer:
    """Spans and counts of one process; ``install`` / ``uninstall`` switch
    the wrappers on and off, the recordings persist across switches."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, extra=None):
        spans, stack, depth, counts = (self.spans, self._stack, self._depth,
                                       self.counts)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op, depth[name] == 0, 0.0]
            spans.append(rec)
            stack.append(idx)
            depth[name] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except spectral.NonConvergence:
                # counted at each span it leaves; only spectral.gelfand's
                # count is reported
                counts[name + ".nonconverged"] += 1
                raise
            finally:
                rec[2] = end = perf_counter()
                depth[name] -= 1
                stack.pop()
                if parent >= 0:
                    spans[parent][6] += end - rec[1]
            if extra is not None:
                counts.update(extra(args, kwargs, result))
            return result

        return traced

    def _counted(self, name, fn, amount):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += amount(args)
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, orig, wrapper):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "squareprop"
                                         or key.startswith("squareprop."))]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapper)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module, attr, name, extra in FUNCTIONS:
            orig = getattr(module, attr)
            self._rebind_everywhere(orig, self._span(name, orig, extra))
        variants = [seminorm.SeminormVariant]
        variants += seminorm.SeminormVariant.__subclasses__()
        for cls in variants:
            for attr, name, extra in SEMINORM_METHODS:
                if attr in cls.__dict__:
                    self._set(cls, attr,
                              self._span(name, cls.__dict__[attr], extra))
        alg = algebra.FiniteDimRealAlgebra
        self._set(alg, "__init__",
                  self._span("algebra.construct", alg.__init__,
                             _construct_extra))
        self._set(alg, "mul_coords",
                  self._counted("algebra.mul.calls", alg.mul_coords,
                                lambda args: 1))
        self._set(alg, "mul_coords_batch",
                  self._counted("algebra.mul_batch.rows", alg.mul_coords_batch,
                                lambda args: args[1].shape[0]))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- summaries ------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to summarise from: spans recorded and counts so far."""
        return len(self.spans), Counter(self.counts)

    def layer_metrics(self, since: tuple[int, Counter]) -> dict:
        """Per-span-name calls, busy_s and self_s plus the counts, for the
        spans and counts recorded after ``since``.

        calls and busy_s take only outermost spans of a name, so a name
        nested in itself is not counted twice; self_s is the span's time
        minus the time of its child spans.
        """
        first, counts_before = since
        out: dict[str, float] = Counter()
        for name, start, end, _, _, outermost, child in self.spans[first:]:
            if outermost:
                out[name + ".calls"] += 1
                out[name + ".busy_s"] += end - start
            out[name + ".self_s"] += end - start - child
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        out.update(counts)
        return out
