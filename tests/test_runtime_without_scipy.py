"""The package runs on NumPy alone: importing it loads no SciPy module,
and `verify` on the manifest pairs with a nonzero kernel, whose quotient
picks its complement, prints the same bytes whether SciPy can be
imported or not.

Each run is a fresh interpreter on one BLAS thread; "blocked" sets
sys.modules["scipy"] = None first, so any `import scipy` raises.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

_RUN = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from squareprop import cli


def loaded():
    return sorted(m for m, mod in sys.modules.items()
                  if m.startswith("scipy") and mod is not None)


after_import = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(json.loads(sys.argv[2]))
print(json.dumps({"after_import": after_import, "after_run": loaded(),
                  "code": code, "stdout": out.getvalue()}))
"""

# the manifest pairs whose seminorm has a nonzero kernel
PAIRS = {"rr_component_sup": ("rr", "component_sup:0"),
         "nonunital3_component_sup": ("nonunital3", "component_sup:0,1")}


def _run(mode, argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", _RUN, mode,
                          json.dumps(argv)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_verify_without_scipy_prints_the_same_bytes(pair):
    algebra, seminorm = PAIRS[pair]
    argv = ["verify", "--algebra", algebra, "--seminorm", seminorm,
            "--format", "json"]
    blocked, free = _run("blocked", argv), _run("free", argv)
    for got in (blocked, free):
        assert got["after_import"] == got["after_run"] == []
        assert got["code"] == 0
        assert json.loads(got["stdout"])["verdict"] == "pass"
    assert blocked["stdout"] == free["stdout"]
