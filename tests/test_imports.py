"""Import weight: scipy is loaded only by code that integrates."""
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Imports every module, runs each command that needs no quadrature, and
# prints the scipy modules then loaded; then runs trace, which does integrate.
SCRIPT = """
import contextlib, io, sys
import selberg3.cli
from selberg3 import (arithmetic_group, eisenstein, lattice_lfn,
                      representation, trace_formula, transform, zeta)
from selberg3.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--height", "4"])
    assert code == 0, (argv, code)

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for command in ("enumerate", "classify", "lsum", "identity", "zeta",
                "eisenstein-check"):
    run(command)
print(scipy_modules())
run("trace", "--norm-bound", "6")
print(bool(scipy_modules()))
"""


def test_only_trace_loads_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
