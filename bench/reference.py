"""A fixed reference task that measures how fast the machine is right now.

On a shared host the speed of one core drifts by 20-40 % over tens of
seconds with the load of other tenants, and that drift, not the program,
set most of the run-to-run spread of raw wall-clock times.  So every
timed op is followed by runs of this task, which uses no squareprop code,
and op times are rescaled by it:

    reference seconds = measured seconds * REFERENCE_S / nearby reference time

A change to the library moves the measured op times and leaves the
reference task alone; a slower or faster moment of the machine moves both.

The task mixes the two kinds of work that set the speed of most
workloads, about equal in time: interpreter loops (the scalar ``p.value``
and table loops, the Python side of the character search) and many small
NumPy calls with 8x8 eigenvalue problems (fuzz, the character search).
Streaming over large arrays is not part of it: its time moved little when
the machine slowed, so it would only dampen the rescaling.  The
``structure`` workload spends its time in native ``einsum`` loops, which
the task tracks less closely; its rescaled times spread the most.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median time of one ``Reference.run`` on the box the baseline was taken
# on (2 vCPUs of a shared x86_64 host, one BLAS thread); it only sets the
# scale of reported times
REFERENCE_S = 0.020
# after an op, the task runs until it has taken about SHARE of the op's
# time (at least once, at most MAX_RUNS times), so long ops get a
# reference as well sampled as short ones
SHARE = 0.03
MAX_RUNS = 8
# ops on each side whose reference runs rescale an op
WINDOW = 3


class Reference:
    def __init__(self):
        self._small = np.random.default_rng(0).standard_normal((8, 8))

    def _interpreter(self):
        table, acc = {}, 0.0
        for i in range(44_000):
            acc += (i * 0.5) % 3.0
            table[i & 255] = acc
        return acc

    def _small_numpy(self):
        for _ in range(260):
            np.linalg.eigvals(self._small @ self._small + 1.0)

    def run(self) -> float:
        """Seconds one pass of the fixed task took."""
        start = time.perf_counter()
        self._interpreter()
        self._small_numpy()
        return time.perf_counter() - start

    def sample(self, after_s: float = 0.0) -> list[float]:
        """Times of the runs that follow an op that took ``after_s``."""
        times = [self.run()]
        while len(times) < MAX_RUNS and sum(times) < SHARE * after_s:
            times.append(self.run())
        return times


def rescale(latencies, references):
    """Op latencies in reference seconds.

    ``references[i]`` holds the reference runs made just before op ``i``
    and ``references[i + 1]`` those just after it; op ``i`` is rescaled by
    the median of the runs within WINDOW ops of it, so one disturbed
    reference run moves nothing.
    """
    if len(references) != len(latencies) + 1:
        raise ValueError("need reference runs before the first op and "
                         "after each op")
    out = []
    for i, latency in enumerate(latencies):
        near = [t for runs in references[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
                for t in runs]
        out.append(latency * REFERENCE_S / statistics.median(near))
    return out
