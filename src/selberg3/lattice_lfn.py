"""Rank-two lattice character sums and their Kronecker-limit closed form.

For a lattice Z + Z*tau (Im tau > 0) and a character psi(m + n tau) =
exp(2 pi i (m u + n v)) this module evaluates the truncated sums

    Z(x) = sum over 0 < |mu|^2 <= x of psi(mu) / |mu|^2,

the lattice Euler constant kappa for the trivial character (Z grows like
(pi/area)(log x + kappa)), the L-value L = lim Z(x) for nontrivial psi by
tail-averaged direct summation, and independently through the Siegel
function g_{a1,a2} via the Kronecker limit formula.  The two L-paths share
no code and serve as each other's oracle.

kappa and the direct L-value read Z at a ladder of 17 cutoffs spanning
the last decade below x_max.  One real sweep over half the points of the
largest cutoff, one of each pair +-mu, serves the whole ladder (ladder_sums).

The constant kappa of the cusp lattice is the same quantity that enters
the parabolic contribution of the trace formula (written eta there);
one value, two conventional names.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .rings import EISENSTEIN

Real = Union[int, float, Fraction]

# cutoffs per decade in the kappa and L-value ladders
LADDER_RUNGS = 16


@dataclass(frozen=True)
class Lattice:
    """Z + Z*tau with Im tau > 0; area of the fundamental cell is Im tau."""

    tau: complex

    def __post_init__(self):
        if not self.tau.imag > 0:
            raise ValueError("lattice generator must have positive imaginary part")

    @property
    def area(self) -> float:
        return self.tau.imag

    def norm_form(self):
        """(C, B) with |m tau + n|^2 = C m^2 + B m n + n^2; exact ints if possible."""
        b = 2.0 * self.tau.real
        c = abs(self.tau) ** 2
        if abs(b - round(b)) < 1e-12 and abs(c - round(c)) < 1e-12:
            return int(round(c)), int(round(b)), True
        return c, b, False


SQUARE_LATTICE = Lattice(1j)
HEX_LATTICE = Lattice(EISENSTEIN.to_complex((0, 1)))


@dataclass(frozen=True)
class LatticeCharacter:
    """psi(m + n tau) = exp(2 pi i (m u + n v)); parameters kept mod 1.

    u is the phase exponent of psi(1), v that of psi(tau).  Call arguments
    are the integer coordinates (m, n) of m + n tau.
    """

    u: Real
    v: Real

    def reduced(self) -> tuple:
        return (self.u % 1, self.v % 1)

    @property
    def is_trivial(self) -> bool:
        return all(min(r, 1.0 - r) < 1e-12 for r in map(float, self.reduced()))

    def __call__(self, m: int, n: int) -> complex:
        return cmath.exp(2j * math.pi * (m * float(self.u) + n * float(self.v)))

    def conjugate(self) -> "LatticeCharacter":
        return LatticeCharacter(-self.u % 1, -self.v % 1)


TRIVIAL_CHARACTER = LatticeCharacter(0, 0)


def _norms(c, b, exact: bool, m, n):
    """|m tau + n|^2 as floats, elementwise over arrays m and n; computed
    in int64 when the norm form has integer coefficients."""
    if exact:
        return (c * m * m + b * m * n + n * n).astype(float)
    return c * m.astype(float) ** 2 + b * m.astype(float) * n + (n * n).astype(float)


def _kept_bounds(c, b, exact: bool, x: float, n):
    """Integer m-ranges [lo, hi] of the points with |m tau + n|^2 <= x in
    the rows n (an array), lo = hi + 1 where a row is empty.  c and b are
    the norm-form coefficients (Lattice.norm_form)."""
    # roots of c m^2 + b n m + (n^2 - x), widened by a rounding slack and
    # then trimmed, since the slack can admit a point past x at either end
    disc = (b * n) ** 2 - 4.0 * c * (n * n - x)
    sq = np.sqrt(np.maximum(disc, 0.0))
    lo = np.ceil((-b * n - sq) / (2.0 * c) - 1e-12).astype(np.int64)
    hi = np.where(disc < 0, lo - 1,
                  np.floor((-b * n + sq) / (2.0 * c) + 1e-12).astype(np.int64))
    while (over := (lo <= hi) & (_norms(c, b, exact, lo, n) > x)).any():
        lo = lo + over
    while (over := (lo <= hi) & (_norms(c, b, exact, hi, n) > x)).any():
        hi = hi - over
    return lo, hi


def _n_max(lat: Lattice, x: float) -> int:
    """Largest |n| of a row that can hold a point with |m tau + n|^2 <= x."""
    # min over real m of |m tau + n|^2 is n^2 area^2/|tau|^2
    return int(math.floor(math.sqrt(x) * abs(lat.tau) / lat.area + 1))


# lattice points per block: each float array of one block (8 bytes a
# point) stays far below glibc's 128 KiB mmap threshold
_BLOCK_POINTS = 1 << 12


def ladder_sums(xs, lat: Lattice, psi: LatticeCharacter) -> list:
    """Z(x), the sum of psi(mu)/|mu|^2 over lattice points with
    0 < |mu|^2 <= x, at every cutoff x in xs, in the order given, from one
    sweep over the points of the largest cutoff.  The cutoff is exact
    whenever the norm form has integer coefficients (tau = i, omega,
    1 + omega, multiples of i, ...).

    Points are indexed as m*tau + n (row n, column m).  The terms at +-mu
    are conjugate, so Z is twice the sum of Re psi(mu)/|mu|^2 over the
    half-lattice of the rows n > 0 and m >= 1 in row 0, in real arithmetic
    (8 bytes a point), with Re psi = cos(2 pi v m) cos(2 pi u n)
    - sin(2 pi v m) sin(2 pi u n) from per-axis tables.  The kept points
    are runs of consecutive m, one per row from the top row down (small
    terms first, for less round-off), taken in blocks of _BLOCK_POINTS.
    Each point is evaluated once and tagged with the rung of the smallest
    cutoff that keeps it (searchsorted of its norm over the sorted
    cutoffs); np.bincount adds a block's terms into the rung bins, and Z
    at a cutoff is twice their running sum up to its rung.  So each
    cutoff keeps exactly the points of its own sweep, equal cutoffs give
    equal sums, a cutoff below the shortest vector gives 0j, every
    imaginary part is 0.0, and each Z(x) agrees with a full-lattice sweep
    of that cutoff alone up to the round-off of the summation order.
    """
    xs = np.array(xs, dtype=float)
    if xs.min() <= 0:
        raise ValueError("cutoff must be positive")
    c, b, exact = lat.norm_form()
    rungs = np.sort(xs)  # repeats are harmless; np.unique would import numpy.ma
    ns = np.arange(_n_max(lat, rungs[-1]), -1, -1)
    lo, hi = _kept_bounds(c, b, exact, rungs[-1], ns)
    lo[-1] = 1  # row 0 of the half-lattice starts past the origin
    m_min = int(lo.min())
    col = 2.0 * np.pi * (float(psi.v) * np.arange(m_min, int(hi.max()) + 1))
    row = 2.0 * np.pi * (float(psi.u) * ns)
    col_cos, col_sin, row_cos, row_sin = np.cos(col), np.sin(col), np.cos(row), np.sin(row)
    width = hi - lo + 1  # runs of kept points, lo..hi of each row
    ends = np.cumsum(width)
    offset = lo - ends + width  # m = point index + offset
    bins = np.zeros(len(rungs))
    total = int(ends[-1])
    for start in range(0, total, _BLOCK_POINTS):
        stop = min(start + _BLOCK_POINTS, total)
        # the runs that reach into [start, stop), and their points there
        r = slice(np.searchsorted(ends, start, "right"), np.searchsorted(ends, stop) + 1)
        count = np.minimum(ends[r], stop) - np.maximum(ends[r] - width[r], start)
        m = np.arange(start, stop) + np.repeat(offset[r], count)
        n = np.repeat(ns[r], count)
        q = _norms(c, b, exact, m, n)
        j = m - m_min
        term = col_cos[j] * np.repeat(row_cos[r], count)
        term -= col_sin[j] * np.repeat(row_sin[r], count)
        term /= q
        bins += np.bincount(np.searchsorted(rungs, q), term, len(rungs))
    return list(map(complex, 2.0 * np.cumsum(bins)[np.searchsorted(rungs, xs)]))


def _ladder(x_max: float) -> list:
    """The LADDER_RUNGS + 1 cutoffs x_max 10^(-j/LADDER_RUNGS) of the last
    decade below x_max, in descending order."""
    return [x_max * 10.0 ** (-j / LADDER_RUNGS) for j in range(LADDER_RUNGS + 1)]


@dataclass(frozen=True)
class KappaFit:
    """Least-squares fit of Z(x) ~ slope (log x + kappa) at a checkpoint ladder."""

    kappa: float
    slope: float
    error_band: float
    checkpoints: tuple

    def __float__(self):
        return self.kappa


def kappa_lattice(lat: Lattice, x_max: float = 1e5) -> KappaFit:
    """Lattice Euler constant for the trivial character, memoized on the
    value of (lat, x_max), so that each lattice is fitted once per process
    however the call is spelled.

    Z(x) = (pi/area)(log x + kappa) + O(x^(-1/2)).  kappa is the mean of
    Z(x) area/pi - log x over a geometric ladder spanning the last decade
    of cutoffs; the known slope pi/area is not refitted for kappa, but a
    free linear fit of the same data is reported so callers can confirm
    the logarithmic law.  The residual must stay inside the proven
    x^(-1/2) error envelope, otherwise something upstream broke.
    """
    return _kappa_fit(lat, float(x_max))


@functools.lru_cache(maxsize=None)
def _kappa_fit(lat: Lattice, x_max: float) -> KappaFit:
    if x_max < 1e3:
        raise ValueError("x_max too small to fit the logarithmic law")
    xs = np.array(_ladder(x_max)[::-1])
    zs = np.array([z.real for z in ladder_sums(xs, lat, TRIVIAL_CHARACTER)])
    logs = np.log(xs)
    exact_slope = math.pi / lat.area
    kappa = float(np.mean(zs / exact_slope - logs))
    a = np.vstack([logs, np.ones_like(logs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, zs, rcond=None)
    resid = zs - exact_slope * (logs + kappa)
    band = float(np.max(np.abs(resid)))
    allowed = 60.0 / math.sqrt(float(xs[0]))
    if not band <= allowed:  # a NaN residual fails too
        raise RuntimeError(
            f"fit residual {band:.3e} exceeds the x^(-1/2) error law bound {allowed:.3e}")
    return KappaFit(kappa=kappa, slope=float(slope),
                    error_band=band, checkpoints=tuple(float(x) for x in xs))


kappa_lattice.cache_clear = _kappa_fit.cache_clear
kappa_lattice.cache_info = _kappa_fit.cache_info


@dataclass(frozen=True)
class LValueEstimate:
    value: complex
    error: float

    def __complex__(self):
        return self.value


def L_value_direct(lat: Lattice, psi: LatticeCharacter,
                   x_max: float = 1e6) -> LValueEstimate:
    """L(Lambda, psi) = lim Z(x) for nontrivial psi, by tail averaging.

    Partial sums oscillate with an O(x^(-1/2)) envelope; a Cesaro average
    over the last decade of cutoffs damps the boundary term.
    """
    if psi.is_trivial:
        raise ValueError("Z diverges for the trivial character; use kappa_lattice")
    vals = ladder_sums(_ladder(x_max), lat, psi)
    mean = sum(vals) / len(vals)
    spread = max(abs(z - mean) for z in vals)
    error = max(spread / math.sqrt(len(vals)), 4.0 / math.sqrt(x_max))
    return LValueEstimate(value=mean, error=error)


def bernoulli_B2(x: float) -> float:
    return x * x - x + 1.0 / 6.0


@dataclass(frozen=True)
class SiegelValue:
    value: complex
    truncation_bound: float
    terms: int

    def __complex__(self):
        return self.value


def siegel_g(a1: float, a2: float, tau: complex,
             tol: float = 1e-18) -> SiegelValue:
    """Siegel function g_{a1,a2}(tau) as a truncated q-product.

    g = -q_tau^(B2(a1)/2) e^(pi i a2 (a1 - 1)) (1 - q_z)
        prod_{n>=1} (1 - q_tau^n q_z)(1 - q_tau^n / q_z),
    with z = a1 tau + a2.  |g| is invariant under integer shifts of
    (a1, a2), so callers need not normalize the parameters.
    """
    if tau.imag <= 0:
        raise ValueError("Im tau must be positive")
    if abs(a1 - round(a1)) < 1e-12 and abs(a2 - round(a2)) < 1e-12:
        raise ValueError("integral parameters make the Siegel product degenerate")
    q_abs = math.exp(-2.0 * math.pi * tau.imag)
    z = a1 * tau + a2
    q_z = cmath.exp(2j * math.pi * z)
    prefactor = -cmath.exp(2j * math.pi * tau * (bernoulli_B2(a1) / 2.0)) \
        * cmath.exp(1j * math.pi * a2 * (a1 - 1.0))
    value = prefactor * (1.0 - q_z)
    qa, qb = abs(q_z), 1.0 / abs(q_z)
    n = 0
    qn = 1.0
    while n < 400:
        n += 1
        qn *= q_abs
        if qn * (qa + qb) < tol:
            break
        qtn = cmath.exp(2j * math.pi * tau * n)
        value *= (1.0 - qtn * q_z) * (1.0 - qtn / q_z)
    # the break skips factor n itself, so the geometric envelope of the
    # omitted factors 1 + O(q^k (|q_z| + 1/|q_z|)) starts at k = n
    tail = qn * (qa + qb) / (1.0 - q_abs)
    bound = abs(value) * (math.exp(tail) - 1.0) if tail < 1.0 else float("inf")
    return SiegelValue(value=value, truncation_bound=bound, terms=n)


def L_value_kronecker(lat: Lattice, psi: LatticeCharacter) -> float:
    """Closed-form L(Lambda, psi) = (-2 pi / Im tau) log |g_{-v,u}(tau)|.

    Independent of L_value_direct (q-product vs raw summation); the dual
    path is this module's core cross-check.  Both are real, the direct sum
    by its half-lattice fold; the tests' full-lattice reference sweep
    checks that the imaginary part it drops vanishes.
    """
    if psi.is_trivial:
        raise ValueError("Kronecker limit formula needs a nontrivial character")
    u, v = float(psi.u), float(psi.v)
    g = siegel_g(-v, u, lat.tau)
    return (-2.0 * math.pi / lat.area) * math.log(abs(g.value))

