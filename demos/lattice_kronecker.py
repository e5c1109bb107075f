"""Lattice zeta sums, the lattice Euler constant, and the Kronecker limit.

The parabolic part of the trace formula needs two analytic inputs from the
cusp lattice: the Euler-constant analogue kappa (defined through
sum_{0<|lam|<=x} |lam|^{-2} = (pi/area)(log x + kappa) + o(1)) and, for each
nontrivial lattice character psi, the value L(Lambda, psi) at s = 1.  The
L-values admit two independent routes: a smoothed direct summation and the
closed form through the Kronecker limit formula (Siegel functions).  This
demo runs both and compares them.

Run:  python3 demos/lattice_kronecker.py
"""

import math

from selberg3.lattice_lfn import (
    HEX_LATTICE,
    SQUARE_LATTICE,
    Lattice,
    LatticeCharacter,
    L_value_direct,
    L_value_kronecker,
    kappa_lattice,
    ladder_sums,
    siegel_g,
)


def rule(title):
    print()
    print(f"--- {title} ---")


def main():
    square = SQUARE_LATTICE
    hexagonal = HEX_LATTICE

    rule("Logarithmic growth of the trivial-character sum (square lattice)")
    trivial = LatticeCharacter(0, 0)
    print(f"{'x':>8}  {'S(x)':>12}  {'S(x) area/pi - log x':>22}")
    xs = (1e2, 1e3, 1e4, 1e5)
    for x, z in zip(xs, ladder_sums(xs, square, trivial)):
        s = z.real
        est = s * square.area / math.pi - math.log(x)
        print(f"{x:8.0e}  {s:12.6f}  {est:22.9f}")
    print("the right column is the running estimate of kappa")

    rule("kappa by Richardson-style rung fit")
    for label, lat in (("square (tau = i)", square),
                       ("hexagonal (tau = omega)", hexagonal),
                       ("shifted hexagonal (tau = 1+omega)",
                        Lattice(complex(0.5, math.sqrt(3.0) / 2.0)))):
        fit = kappa_lattice(lat, x_max=1e5)
        print(f"{label:34s} kappa = {fit.kappa:.9f} "
              f"(error band {fit.error_band:.1e})")

    rule("L(Lambda, psi) dual path: direct sum vs Kronecker limit")
    print(f"{'lattice':>9} {'(u, v)':>12} {'direct':>13} {'closed form':>13}"
          f" {'|diff|':>9}")
    for lat, name in ((square, "square"), (hexagonal, "hexagonal")):
        for u, v in ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5), (1 / 3, 2 / 3)):
            psi = LatticeCharacter(u, v)
            direct = L_value_direct(lat, psi, x_max=1e5)
            closed = L_value_kronecker(lat, psi)
            print(f"{name:>9} ({u:.4f},{v:.4f}) {direct.value.real:13.8f} "
                  f"{closed:13.8f} {abs(direct.value - closed):9.2e}")

    rule("The Siegel function behind the closed form")
    print("L(Lambda, psi_(u,v)) = (-2 pi / area) log |g_(-v,u)(tau)|")
    for u, v in ((0.5, 0.0), (0.5, 0.5)):
        val = siegel_g(-v, u, 1j)
        closed = (-2.0 * math.pi / square.area) * math.log(abs(val.value))
        print(f"(u,v)=({u},{v}): |g_(-v,u)(i)| = {abs(val.value):.9f} "
              f"({val.terms} q-product factors, tail <= {val.truncation_bound:.1e})"
              f"  ->  L = {closed:.9f}")


if __name__ == "__main__":
    main()
