"""The golden outputs of tests/golden.py, byte for byte.

The outputs are rendered in a subprocess, which runs on one BLAS thread
whatever the suite's own environment.  To rewrite the file after a change
that moves a value on purpose:

    PYTHONPATH=src python tests/golden.py --write
"""

import os
import subprocess
import sys

import golden


def test_golden_outputs_are_byte_identical():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(golden.PATH)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, golden.__file__], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    got = run.stdout
    with open(golden.PATH, encoding="utf-8") as fh:
        want = fh.read()
    got_cases, want_cases = golden.sections(got), golden.sections(want)
    assert list(got_cases) == list(want_cases)
    moved = [name for name in want_cases
             if got_cases[name] != want_cases[name]]
    assert not moved, f"outputs moved: {moved}"
    assert got == want
