"""Check that each workload's output check fails loudly.

    python3 bench/selfcheck.py

For the first op of every workload it runs the op as is (must pass), with
a wrong expected output (must count as one failed op), and with its call
replaced by a library call that raises (must count as one failed op and
not end the run).  The FAILED lines on stderr are the loud part.  Exits
1 if any of these does not hold.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from squareprop import algebra  # noqa: E402
from worker import Harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _library_error():
    return algebra.make_algebra(0, [], {})     # raises DimensionMismatch


def main() -> int:
    ok = True
    for name, cls in WORKLOADS.items():
        op = cls(0).sweep(0)[0]
        cases = (
            ("as is", op, 0),
            ("wrong expected", dataclasses.replace(op, expected="wrong"), 1),
            ("library raises", dataclasses.replace(op, call=_library_error), 1),
        )
        for label, case, want in cases:
            harness = Harness()
            harness.run(case)
            good = harness.attempted == 1 and harness.failed == want
            ok &= good
            print(f"{'ok  ' if good else 'BAD '} {name}: {label}: "
                  f"failed {harness.failed} of {harness.attempted}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
