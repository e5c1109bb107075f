"""Exact arithmetic in the Gaussian and Eisenstein integers and their fields.

Elements are coordinate pairs (x, y) meaning x + y*u where u = i (Gaussian)
or u = omega = exp(2*pi*i/3) (Eisenstein).  Coordinates are ints for ring
elements and fractions.Fraction for field elements; all the arithmetic below
is generic over both.  Both rings are norm-Euclidean, which `divmod_nearest`
and `gcd` rely on.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

Pair = tuple  # (x, y) coordinate pair; ints or Fractions

_SQRT3_2 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class Ring:
    """Descriptor for Z[i] or Z[omega]; u^2 = u2_x + u2_y * u."""

    name: str
    u2_x: int
    u2_y: int
    field_disc: int  # discriminant of the fraction field (-4 or -3)

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
        x, y = a
        if self.name == "gauss":
            return (x, -y)
        # conj(omega) = omega^2 = -1 - omega
        return (x - y, -y)

    def norm(self, a: Pair):
        x, y = a
        if self.name == "gauss":
            return x * x + y * y
        return x * x - x * y + y * y

    def real2(self, a: Pair):
        """Twice the real part of the complex embedding (exact)."""
        x, y = a
        if self.name == "gauss":
            return 2 * x
        return 2 * x - y

    def to_complex(self, a: Pair) -> complex:
        x, y = a
        if self.name == "gauss":
            return complex(x, y)
        return complex(x - y / 2.0, y * _SQRT3_2)

    def from_complex(self, z: complex) -> Pair:
        """Nearest ring element to z (rounding in the (1, u) basis)."""
        if self.name == "gauss":
            return (round(z.real), round(z.imag))
        y = z.imag / _SQRT3_2
        x = z.real + y / 2.0
        return (round(x), round(y))

    def units(self) -> tuple[Pair, ...]:
        if self.name == "gauss":
            return ((1, 0), (0, 1), (-1, 0), (0, -1))
        return ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))

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
        integer, exact ties to even, in integer arithmetic.
        """
        num, nb = self._quotient_parts(a, b)
        q = (_div_half_even(num[0], nb), _div_half_even(num[1], nb))
        r = self.sub(a, self.mul(q, b))
        return q, r

    def divides(self, b: Pair, a: Pair) -> bool:
        """True when b | a exactly (b nonzero)."""
        _, r = self.divmod_nearest(a, b)
        return r == (0, 0)

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

    def sqrt(self, a: Pair) -> Optional[Pair]:
        """Exact square root in the ring, or None."""
        z = cmath.sqrt(self.to_complex(a))
        for cand in (z, -z):
            r = self.from_complex(cand)
            # rounding can land one off for large inputs; probe neighbours
            rx, ry = r
            for dx in (0, -1, 1):
                for dy in (0, -1, 1):
                    t = (rx + dx, ry + dy)
                    if self.mul(t, t) == a:
                        return t
        return None

    def elements_with_norm_le(self, bound) -> list[Pair]:
        """All nonzero elements of norm <= bound, deterministic order."""
        out = []
        if self.name == "gauss":
            m = math.isqrt(bound)
            for x in range(-m, m + 1):
                rem = bound - x * x
                if rem < 0:
                    continue
                k = math.isqrt(rem)
                for y in range(-k, k + 1):
                    if (x, y) != (0, 0):
                        out.append((x, y))
        else:
            # x^2 - x y + y^2 <= bound  <=>  (2x - y)^2 <= 4*bound - 3*y^2
            m = math.isqrt((4 * bound) // 3) + 1
            for y in range(-m, m + 1):
                disc = 4 * bound - 3 * y * y
                if disc < 0:
                    continue
                half = math.isqrt(disc)
                for x in range((y - half) // 2 - 1, (y + half) // 2 + 2):
                    if (x, y) == (0, 0):
                        continue
                    if x * x - x * y + y * y <= bound:
                        out.append((x, y))
        out.sort()
        return out

    def canonical_associate(self, a: Pair) -> Pair:
        """Lexicographically smallest unit multiple of a."""
        return min(self.mul(u, a) for u in self.units())


def _div_half_even(n: int, d: int) -> int:
    """n / d rounded to the nearest integer, exact ties to even (d > 0)."""
    q, r = divmod(n, d)
    if 2 * r < d:
        return q
    if 2 * r > d:
        return q + 1
    return q + (q & 1)  # exact tie toward even


GAUSSIAN = Ring("gauss", -1, 0, -4)
EISENSTEIN = Ring("eisenstein", -1, -1, -3)

RINGS = {"gauss": GAUSSIAN, "eisenstein": EISENSTEIN}


def is_square_in_field(ring: Ring, a: Pair) -> bool:
    """Is the ring element a a square in the fraction field?

    The fields have class number one, so an algebraic-integer square root
    lies in the ring itself; the exact ring search settles the question.
    """
    if a == (0, 0):
        return True
    return ring.sqrt(a) is not None
