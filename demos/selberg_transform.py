"""The transform triple (k, h, g) that drives the trace formula.

A test function enters the trace formula three ways: as a point-pair kernel
k(delta), as its spherical transform h(lambda) on the eigenvalue line, and
as the even function g(x) with h(1 + t^2) = int g(x) e^{ixt} dx.  The
package keeps the three together in a TestFunctionTriple and provides
numeric bridges (k -> h, h -> g) so each member can be cross-checked
against closed forms.

Run:  python3 demos/selberg_transform.py
"""

import math

from selberg3.transform import (
    g_from_h,
    gaussian_kernel,
    resolvent_pair,
    shc_h_from_k,
)
from selberg3.trace_formula import cosh_integral, cosh_integral_quad


def rule(title):
    print()
    print(f"--- {title} ---")


def main():
    s, B = 2.0, 3.0
    triple = resolvent_pair(s, B)

    rule(f"Resolvent pair (s, B) = ({s}, {B})")
    print("h(w) = 1/(s^2 + w - 1) - 1/(B^2 + w - 1)")
    print("g(x) = e^(-s|x|)/(2s) - e^(-B|x|)/(2B)")
    print(f"g(0) = {triple.g(0.0):.12f}  "
          f"(closed form 1/(2s) - 1/(2B) = {1 / (2 * s) - 1 / (2 * B):.12f})")
    print(f"g(0) vs (1/pi) int h(1+t^2) dt : "
          f"|difference| = {triple.g0_consistency():.2e}")

    rule("Numeric inversion h -> g against the closed form")
    print(f"{'x':>5} {'g_from_h (oscillatory quad)':>28} {'closed form':>16}"
          f" {'|diff|':>9}")
    for x in (0.0, 0.5, 1.0, 2.0, 5.0):
        numeric = g_from_h(triple.h, x)
        exact = triple.g(x)
        print(f"{x:5.1f} {numeric:28.12f} {exact:16.12f} "
              f"{abs(numeric - exact):9.2e}")

    rule("Point-pair kernel route k -> h (Gaussian kernel)")
    k = gaussian_kernel(a=4.0)
    print("k(delta) = exp(-4 (delta - 1)^2); h by the integral transform:")
    print(f"{'t':>4} {'h(1 + t^2)':>14}")
    hs = {}
    for t in (0.0, 1.0, 2.0, 4.0, 8.0):
        hs[t] = shc_h_from_k(k, 1.0 + t * t).real
        print(f"{t:4.1f} {hs[t]:14.10f}")
    print("rapid decay in t confirms the kernel is admissible; a trapezoid")
    ts = [j * 12.0 / 480 for j in range(481)]
    vals = [shc_h_from_k(k, 1.0 + t * t).real for t in ts]
    g0 = sum((vals[j] + vals[j + 1]) * (ts[j + 1] - ts[j]) / 2.0
             for j in range(480)) / math.pi
    print(f"pass over t in [0, 12] gives g(0) = (1/pi) int h = {g0:.10f}")

    rule("Elliptic-term integral: digamma closed form vs direct quadrature")
    print("I(s, t) = int_0^inf e^(-s x) sinh x / (cosh x - cos t) dx; the")
    print("cuspidal elliptic term needs it at torsion angles t.  Two")
    print("independent routes (closed form vs quadrature) must agree; at")
    print("t = pi the closed form is an Euler-transformed alternating series.")
    print(f"{'s':>4} {'t':>8} {'closed form':>20} {'quadrature':>16}"
          f" {'|diff|':>9}")
    for sv in (1.5, 2.0, 3.0):
        for t in (math.pi / 2, 2 * math.pi / 3, math.pi):
            a = cosh_integral(sv, t)
            b = cosh_integral_quad(sv, t)
            print(f"{sv:4.1f} {t:8.5f} {a:20.12f} {b:16.12f} "
                  f"{abs(a - b):9.2e}")


if __name__ == "__main__":
    main()
