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
the last decade below x_max.  One real sweep over the largest cutoff, one
point of each orbit of the lattice's units, serves the whole ladder (ladder_sums).

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

    def past(m):  # |m tau + n|^2 > x, the norm in int64 for integer forms
        if exact:
            return c * m * m + b * m * n + n * n > x
        return c * m.astype(float) ** 2 + b * m.astype(float) * n + (n * n).astype(float) > x
    while (over := (lo <= hi) & past(lo)).any():
        lo = lo + over
    while (over := (lo <= hi) & past(hi)).any():
        hi = hi - over
    return lo, hi


# lattice points per block (a few more where rows of unequal width share
# a box): each float array of a block stays below glibc's 128 KiB mmap threshold
_BLOCK_POINTS = 1 << 12


def ladder_sums(xs, lat: Lattice, psi: LatticeCharacter) -> list:
    """Z(x), the sum of psi(mu)/|mu|^2 over lattice points with
    0 < |mu|^2 <= x, at every cutoff x in xs, in the order given, from one
    sweep over the points of the largest cutoff.  The cutoff is exact
    whenever the norm form has integer coefficients (tau = i, omega,
    1 + omega, multiples of i, ...).

    Points are m*tau + n (row n, column m).  The sweep sums one point of
    each orbit of the units, of order w: the sector n >= 1, m >= 0 for
    tau = i (w = 4) and tau = 1 + omega (w = 6; tau = omega is rewritten
    as m (tau + 1) + (n - m), psi as (u, u + v)), else (w = 2) the rows
    n > 0 and m >= 1 in row 0.  Z is twice the sum there of
    sum_{j < w/2} Re psi(tau^j mu)/|mu|^2, psi o tau being the character
    (v, -u) for w = 4 and (v, v - u) for w = 6, each Re psi a product of
    per-axis cos and sin tables.  Blocks of whole rows, about _BLOCK_POINTS
    points each, run from the top row down (small terms first).  The kept
    m-range of each row at each cutoff (_kept_bounds) cuts the rows into
    pieces first kept by one cutoff; np.add.reduceat sums the pieces, and Z
    at a cutoff is twice the running sum of the cutoffs' totals up to its
    own.  So each cutoff keeps exactly the points of its own sweep, equal
    cutoffs give equal sums, a cutoff below the shortest vector gives 0j,
    every imaginary part is 0.0, and each Z(x) agrees with a full-lattice
    sweep of that cutoff alone up to the round-off of the summation order.
    """
    xs = np.array(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError(f"cutoffs must be finite, got {xs[~np.isfinite(xs)].tolist()}")
    if xs.min() <= 0:
        raise ValueError("cutoff must be positive")
    c, b, exact = lat.norm_form()
    u, v = psi.u, psi.v
    if (c, b) == (1, -1):  # tau = omega: m tau + n = m (tau + 1) + (n - m)
        b, v = 1, u + v
    w = {(1, 0): 4, (1, 1): 6}.get((c, b), 2)
    rungs = np.sort(xs)  # repeats are harmless; np.unique would import numpy.ma
    k = len(rungs)
    # rows from the top: |m tau + n|^2 >= n^2 area^2/|tau|^2, or n^2 if b, m >= 0
    top = math.sqrt(rungs[-1]) * (1.0 if w > 2 else abs(lat.tau) / lat.area)
    ns = np.arange(int(top) + 1, 0 if w > 2 else -1, -1)
    # cuts[row] starts the row's pieces, first kept by rungs k-1..0..k-1 and
    # then the gap to the next row: the lo of each rung, then its hi + 1, each
    # range clipped into the last, the largest into m >= 0 (sector) or 1 (row 0)
    cuts = np.empty((len(ns), 2 * k), dtype=np.int32)
    lo, hi = np.where(ns == 0, 1, 0 if w > 2 else -(1 << 62)), np.full(len(ns), 1 << 62)
    for j in range(k - 1, -1, -1):
        a, z = _kept_bounds(c, b, exact, rungs[j], ns)
        lo = np.clip(a, lo, hi + 1)
        hi = np.clip(z, lo - 1, hi)
        cuts[:, k - 1 - j], cuts[:, k + j] = lo, hi + 1
    lo, end = cuts[:, 0], cuts[:, -1]
    m_min = int(lo.min())
    m_axis = np.arange(m_min, end.max(), dtype=float)
    # the characters psi o tau^j, j < w/2, and sum_j Re psi o tau^j = rows @ cols
    us, vs = np.array({2: [(u, v)], 4: [(u, v), (v, -u)],
                       6: [(u, v), (v, v - u), (v - u, -u)]}[w], dtype=float).T
    row = 2.0 * np.pi * np.multiply.outer(ns, us)
    col = 2.0 * np.pi * np.multiply.outer(vs, m_axis)
    rows = np.hstack([np.cos(row), -np.sin(row)])
    cols = np.vstack([np.cos(col), np.sin(col)])
    ends = np.cumsum(end - lo)
    edges = sorted({0, len(ns), *(np.searchsorted(
        ends, np.arange(_BLOCK_POINTS, ends[-1], _BLOCK_POINTS)) + 1).tolist()})
    totals = np.zeros(2 * k)  # by piece position
    for a, z in zip(edges, edges[1:]):
        m0, m1 = int(lo[a:z].min()), int(end[a:z].max())
        span, cs = m1 - m0, slice(m0 - m_min, m1 - m_min)
        # the terms of rows a..z-1 at columns m0..m1-1, row-major, then 0.0
        term = np.zeros((z - a) * span + 1)
        box = np.matmul(rows[a:z], cols[:, cs], out=term[:-1].reshape(z - a, span))
        m, n = m_axis[cs], ns[a:z, None].astype(float)
        q = n * (b * m) + c * m ** 2  # |m tau + n|^2, as _kept_bounds has it
        q += n * n
        if ns[z - 1] == 0 and m0 <= 0:  # the origin, in the gap before m = 1
            q[-1, -m0] = np.inf
        box /= q
        at = np.append(0, cuts[a:z] + (span * np.arange(z - a) - m0)[:, None])
        sums = np.add.reduceat(term, at)
        sums[:-1][at[1:] == at[:-1]] = 0.0  # empty pieces; the last holds the 0.0
        totals += sums[1:].reshape(z - a, 2 * k).sum(axis=0)
    bins = np.bincount(np.abs(np.arange(2 * k) - (k - 1)), totals)[:k]
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
    by its fold onto unit orbits; the tests' full-lattice reference sweep
    checks that the imaginary part it drops vanishes.
    """
    if psi.is_trivial:
        raise ValueError("Kronecker limit formula needs a nontrivial character")
    u, v = float(psi.u), float(psi.v)
    g = siegel_g(-v, u, lat.tau)
    return (-2.0 * math.pi / lat.area) * math.log(abs(g.value))

