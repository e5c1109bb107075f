"""Upper half-space model of hyperbolic 3-space.

A point is (z, r) with z in C and r > 0, thought of as the quaternion
z + r j.  A matrix [[a, b], [c, d]] acts by the quaternionic Moebius
action; with D = |c z + d|^2 + |c|^2 r^2 the image is

    z' = ((a z + b) conj(c z + d) + a conj(c) r^2) / D,    r' = r / D.

The point-pair invariant

    delta(P, P') = (|z - z'|^2 + r^2 + r'^2) / (2 r r')

equals cosh of the hyperbolic distance and is preserved by the action.
The Laplacian convention is Delta = -r^2 (d_xx + d_yy + d_rr) + r d_r,
a positive operator; r^(1+s) is an eigenfunction with eigenvalue 1 - s^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Point3:
    z: complex
    r: float

    def __post_init__(self):
        if not (self.r > 0.0) or math.isinf(self.r) or math.isnan(self.r):
            raise ValueError(f"height must be positive and finite, got {self.r}")


def _canonical_sign(a: complex, b: complex, c: complex, d: complex):
    """Scale by -1 so the first nonzero entry has argument in (-pi/2, pi/2]."""
    for e in (a, b, c, d):
        if abs(e) > _ZERO_TOL:
            if e.real > _ZERO_TOL or (abs(e.real) <= _ZERO_TOL and e.imag > 0.0):
                return a, b, c, d
            return -a, -b, -c, -d
    raise ValueError("zero matrix")


@dataclass(frozen=True)
class MoebiusMatrix:
    """det-1 complex 2x2 matrix with a canonical overall sign."""

    a: complex
    b: complex
    c: complex
    d: complex

    @classmethod
    def make(cls, a, b, c, d) -> "MoebiusMatrix":
        det = a * d - b * c
        if abs(det) < _ZERO_TOL:
            raise ValueError("matrix is singular")
        s = det ** -0.5
        return cls(*_canonical_sign(a * s, b * s, c * s, d * s))


def apply(M: MoebiusMatrix, P: Point3) -> Point3:
    cz_d = M.c * P.z + M.d
    r2 = P.r * P.r
    D = abs(cz_d) ** 2 + abs(M.c) ** 2 * r2
    z_new = ((M.a * P.z + M.b) * cz_d.conjugate() + M.a * M.c.conjugate() * r2) / D
    return Point3(z_new, P.r / D)


def delta(P: Point3, Q: Point3) -> float:
    """cosh of the hyperbolic distance between P and Q."""
    return (abs(P.z - Q.z) ** 2 + P.r * P.r + Q.r * Q.r) / (2.0 * P.r * Q.r)


def laplacian_fd(f: Callable[[Point3], complex], P: Point3, h: float = 1e-3):
    """Second-order 7-point finite-difference Laplacian at P.

    Works for scalar or vector-valued f (anything supporting + and *).
    """
    z, r = P.z, P.r
    if r - h <= 0.0:
        raise ValueError("stencil leaves the upper half-space; reduce h")
    f0 = f(P)
    fxp = f(Point3(z + h, r))
    fxm = f(Point3(z - h, r))
    fyp = f(Point3(z + 1j * h, r))
    fym = f(Point3(z - 1j * h, r))
    frp = f(Point3(z, r + h))
    frm = f(Point3(z, r - h))
    h2 = h * h
    second = (fxp + fxm + fyp + fym + frp + frm - 6.0 * f0) / h2
    first = (frp - frm) / (2.0 * h)
    return -(r * r) * second + r * first
