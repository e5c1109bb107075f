"""Exact arithmetic in imaginary quadratic rings Z[u] and their fields.

A ring is described by one rule, u^2 = u2_x + u2_y * u; the Gaussian
integers (u = i) and the Eisenstein integers (u = omega = exp(2 pi i/3))
are the two instances the groups use.  Elements are coordinate pairs
(x, y) meaning x + y*u, with ints for ring elements and
fractions.Fraction for field elements.  Every operation below is derived
from the rule; `mul`, `conj`, `norm` and `real2` also act on int64
arrays.  `divmod_nearest`, `gcd` and `xgcd` need the ring to be
norm-Euclidean, as Z[u] is for D = -3, -4, -7, -8 and -11.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

Pair = tuple  # (x, y) coordinate pair; ints or Fractions


@dataclass(frozen=True)
class Ring:
    """Z[u] with u^2 = u2_x + u2_y * u and u2_y^2 + 4 u2_x < 0."""

    name: str
    u2_x: int
    u2_y: int

    @property
    def field_disc(self) -> int:
        """D = u2_y^2 + 4 u2_x, the discriminant of Z[u] (-4 and -3 here)."""
        return self.u2_y * self.u2_y + 4 * self.u2_x

    @functools.cached_property
    def _u(self) -> tuple[float, float]:
        """Real and imaginary part of the embedding u = (u2_y + i sqrt|D|) / 2."""
        return self.u2_y / 2, math.sqrt(-self.field_disc) / 2

    @property
    def covolume(self) -> float:
        """Area of a fundamental parallelogram of the lattice Z + Z u."""
        return self._u[1]

    def mul(self, a: Pair, b: Pair) -> Pair:
        ax, ay = a
        bx, by = b
        # (ax + ay u)(bx + by u) = ax bx + (ax by + ay bx) u + ay by u^2
        cross = ay * by
        return (ax * bx + cross * self.u2_x, ax * by + ay * bx + cross * self.u2_y)

    def add(self, a: Pair, b: Pair) -> Pair:
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a: Pair, b: Pair) -> Pair:
        return (a[0] - b[0], a[1] - b[1])

    def neg(self, a: Pair) -> Pair:
        return (-a[0], -a[1])

    def conj(self, a: Pair) -> Pair:
        # conj(u) = u2_y - u, the other root of u^2 - u2_y u - u2_x
        x, y = a
        return (x + self.u2_y * y, -y)

    def norm(self, a: Pair):
        x, y = a
        return x * x + (self.u2_y * x - self.u2_x * y) * y

    def real2(self, a: Pair):
        """Twice the real part of the complex embedding (exact)."""
        x, y = a
        return 2 * x + self.u2_y * y

    def to_complex(self, a: Pair) -> complex:
        x, y = a
        u_re, u_im = self._u
        return complex(x + y * u_re, y * u_im)

    @functools.cached_property
    def units(self) -> tuple[Pair, ...]:
        """The norm-1 elements, in sorted order."""
        return tuple(self.elements_with_norm_le(1))

    def is_unit(self, a: Pair) -> bool:
        return self.norm(a) == 1

    def _quotient_parts(self, a: Pair, b: Pair) -> tuple[Pair, int]:
        """a conj(b) and N(b) > 0, so that a/b = a conj(b) / N(b)."""
        nb = self.norm(b)
        if nb == 0:
            raise ZeroDivisionError("division by zero ring element")
        return self.mul(a, self.conj(b)), nb

    def field_div(self, a: Pair, b: Pair) -> Pair:
        """Exact quotient a/b with Fraction coordinates."""
        num, nb = self._quotient_parts(a, b)
        return (Fraction(num[0], nb), Fraction(num[1], nb))

    def divmod_nearest(self, a: Pair, b: Pair) -> tuple[Pair, Pair]:
        """Euclidean division: a = q b + r with norm(r) < norm(b).

        q rounds each coordinate of a/b = a conj(b) / N(b) to the nearest
        integer, exact ties to even, in integer arithmetic.  Where that
        leaves norm(r) >= norm(b), as it can for D = -7 and -11, q moves to
        the neighbour q + (i, j), i, j in {-1, 0, 1}, of least norm(r).
        """
        num, nb = self._quotient_parts(a, b)
        q = (_div_half_even(num[0], nb), _div_half_even(num[1], nb))
        r = self.sub(a, self.mul(q, b))
        if self.norm(r) >= nb:
            q = min(((q[0] + i, q[1] + j) for i in (-1, 0, 1) for j in (-1, 0, 1)),
                    key=lambda p: self.norm(self.sub(a, self.mul(p, b))))
            r = self.sub(a, self.mul(q, b))
        return q, r

    def exact_div(self, a: Pair, b: Pair) -> Optional[Pair]:
        q, r = self.divmod_nearest(a, b)
        return q if r == (0, 0) else None

    def gcd(self, a: Pair, b: Pair) -> Pair:
        while b != (0, 0):
            _, r = self.divmod_nearest(a, b)
            a, b = b, r
        return a

    def xgcd(self, a: Pair, b: Pair) -> tuple[Pair, Pair, Pair]:
        """g, s, t with s*a + t*b = g = gcd(a, b)."""
        r0, r1 = a, b
        s0, s1 = (1, 0), (0, 0)
        t0, t1 = (0, 0), (1, 0)
        while r1 != (0, 0):
            q, r = self.divmod_nearest(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
            t0, t1 = t1, self.sub(t0, self.mul(q, t1))
        return r0, s0, t0

    def elements_with_norm_le(self, bound: int) -> list[Pair]:
        """All nonzero elements of norm <= bound, deterministic order."""
        # 4 N(x + y u) = (2x + u2_y y)^2 + |D| y^2
        disc = -self.field_disc
        out = []
        m = math.isqrt(4 * bound // disc)
        for y in range(-m, m + 1):
            half = math.isqrt(4 * bound - disc * y * y)
            lo = -self.u2_y * y - half
            for x in range(-(-lo // 2), (lo + 2 * half) // 2 + 1):
                if (x, y) != (0, 0):
                    out.append((x, y))
        out.sort()
        return out

    def canonical_associate(self, a: Pair) -> Pair:
        """Lexicographically smallest unit multiple of a."""
        return min(self.mul(u, a) for u in self.units)


def _div_half_even(n: int, d: int) -> int:
    """n / d rounded to the nearest integer, exact ties to even (d > 0)."""
    q, r = divmod(n, d)
    if 2 * r < d:
        return q
    if 2 * r > d:
        return q + 1
    return q + (q & 1)  # exact tie toward even


GAUSSIAN = Ring("gauss", -1, 0)
EISENSTEIN = Ring("eisenstein", -1, -1)

RINGS = {"gauss": GAUSSIAN, "eisenstein": EISENSTEIN}
