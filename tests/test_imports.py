"""Import weight: no command loads scipy, numpy.random or numpy.ma, and
nothing in the package needs scipy."""
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Imports every module, runs each command but trace, printing after each the
# numpy.random and numpy.ma modules then loaded, and prints the scipy modules
# loaded; then runs trace, whose quadratures and digamma values are numpy
# code, and prints the same for it and whether any scipy module is loaded.
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
    print(argv[0], sorted(m for m in ("numpy.random", "numpy.ma")
                          if m in sys.modules))

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for command in ("enumerate", "classify", "lsum", "identity", "zeta",
                "eisenstein-check"):
    run(command)
print(scipy_modules())
run("trace", "--norm-bound", "6")
print(bool(scipy_modules()))
"""


def test_no_command_loads_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "enumerate []", "classify []", "lsum []", "identity []", "zeta []",
        "eisenstein-check []", "[]", "trace []", "False"]


# With scipy blocked, imports every selberg3 module, runs every command and
# calls each function that once ran on scipy.
BLOCKED_SCRIPT = """
import contextlib, importlib, io, math, pkgutil, sys
sys.modules["scipy"] = None
import selberg3
for info in pkgutil.iter_modules(selberg3.__path__):
    importlib.import_module("selberg3." + info.name)
from selberg3.cli import COMMANDS, main
from selberg3.trace_formula import cosh_integral_quad
from selberg3.transform import (g_from_h, gaussian_kernel, resolvent_pair,
                                shc_h_from_k)
from selberg3.zeta import functional_factor_psi

for command in COMMANDS:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--height", "4", "--norm-bound", "6"])
    assert code == 0, (command, code)
pair = resolvent_pair(2.0, 3.0)
assert abs(g_from_h(pair.h, 1.0) - pair.g(1.0)) < 1e-10
assert pair.g0_consistency() < 1e-12
assert shc_h_from_k(gaussian_kernel(), 0.5).real > 0.0
assert abs(cosh_integral_quad(2.0, math.pi) - (1.5 - 2.0 * math.log(2.0))
           ) < 1e-12
assert abs(functional_factor_psi(0.0, 1, 1, 1, 0.0, 1.0, 1) - 1.0) < 1e-15
print("ok")
"""


def test_package_runs_with_scipy_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c",
                           BLOCKED_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ok"]
