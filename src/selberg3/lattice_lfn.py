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
the last decade below x_max.  One sweep over the lattice rows of the
largest cutoff serves the whole ladder (ladder_sums).  The character is
evaluated per axis, psi(m tau + n) = exp(2 pi i v m) exp(2 pi i u n), from
one table of column phases and one of row phases, and the rows are
processed with numpy in blocks of bounded size.  Each Z(x) it returns is
bit-identical to a sweep of its own that sums the same per-axis product.

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
        ru, rv = self.reduced()
        return abs(float(ru)) < 1e-12 and abs(float(rv)) < 1e-12

    def __call__(self, m: int, n: int) -> complex:
        return cmath.exp(2j * math.pi * (m * float(self.u) + n * float(self.v)))

    def conjugate(self) -> "LatticeCharacter":
        return LatticeCharacter(-self.u % 1, -self.v % 1)


TRIVIAL_CHARACTER = LatticeCharacter(0, 0)


def _row_bounds(c, b, x, n):
    """Integer m-ranges [lo, hi] with |m tau + n|^2 <= x, lo > hi where a
    row is empty.  x (cutoffs) and n (row indices) are scalars or arrays
    and broadcast against each other.  c and b are the norm-form
    coefficients of the lattice (Lattice.norm_form)."""
    # c m^2 + b n m + (n^2 - x) <= 0
    disc = (b * n) ** 2 - 4.0 * c * (n * n - x)
    sq = np.sqrt(np.maximum(disc, 0.0))
    lo = np.ceil((-b * n - sq) / (2.0 * c) - 1e-12).astype(np.int64)
    hi = np.floor((-b * n + sq) / (2.0 * c) + 1e-12).astype(np.int64)
    return lo, np.where(disc < 0, lo - 1, hi)


def _norms(c, b, exact: bool, m, n):
    """|m tau + n|^2 as floats, elementwise over arrays m and n; computed
    in int64 when the norm form has integer coefficients."""
    if exact:
        return (c * m * m + b * m * n + n * n).astype(float)
    return c * m.astype(float) ** 2 + b * m.astype(float) * n + (n * n).astype(float)


def _kept_bounds(c, b, exact: bool, x, n):
    """_row_bounds trimmed to the points with |m tau + n|^2 <= x: the
    rounding slack of the roots can admit a point past the cutoff at
    either end."""
    lo, hi = _row_bounds(c, b, x, n)
    while (over := (lo <= hi) & (_norms(c, b, exact, lo, n) > x)).any():
        lo = lo + over
    while (over := (lo <= hi) & (_norms(c, b, exact, hi, n) > x)).any():
        hi = hi - over
    return lo, hi


def _n_max(lat: Lattice, x: float) -> int:
    """Largest |n| of a row that can hold a point with |m tau + n|^2 <= x."""
    # min over real m of |m tau + n|^2 is n^2 area^2/|tau|^2
    return int(math.floor(math.sqrt(x) * abs(lat.tau) / lat.area + 1))


# lattice points per block of rows: bounds the sweep's working memory
_BLOCK_POINTS = 1 << 13


def ladder_sums(xs, lat: Lattice, psi: LatticeCharacter) -> list:
    """Z(x), the sum of psi(mu)/|mu|^2 over lattice points with
    0 < |mu|^2 <= x, at every cutoff x in xs, in the order given, from one
    sweep over the rows of the largest cutoff.

    The cutoff is exact whenever the norm form has integer coefficients
    (tau = i, omega, 1 + omega, multiples of i, ...).

    Points are indexed as m*tau + n (row n, column m), so psi factors as
    exp(2 pi i v m) exp(2 pi i u n): one table of column phases and one of
    row phases make about 2 (rows + columns) complex exps per sweep, and
    each term is the product of two table entries divided by |mu|^2.  The
    rows are taken in blocks of about _BLOCK_POINTS points; per block the
    row ranges, the norms, the terms and every (row, cutoff) run bound are
    numpy arrays, and the origin is left out of the n = 0 row.

    Within a row, the points a cutoff keeps are one run of the largest
    cutoff's points: the bounds only widen as x grows, and q is a convex
    quadratic in m, so for integers m1 < m2 < m3,
    q(m2) <= max(q(m1), q(m3)) - c, a margin far above the rounding of q.
    Each nonempty run is summed by one np.add.reduce of its contiguous
    slice, and the rows are added in ascending n, so every total is
    bit-identical to ladder_sums([x]) (a skipped empty run would add +0j,
    which changes no total).  For the trivial character both phases are
    exactly 1, so each term is 1/q.
    """
    xs = np.array(xs, dtype=float)
    if xs.min() <= 0:
        raise ValueError("cutoff must be positive")
    c, b, exact = lat.norm_form()
    n_top = _n_max(lat, xs.max())
    ns = np.arange(-n_top, n_top + 1)
    lo, hi = _kept_bounds(c, b, exact, xs.max(), ns)
    u, v = float(psi.u), float(psi.v)
    row_phase = np.exp(2j * np.pi * (u * ns))
    nonempty = lo <= hi
    ns, lo, hi = ns[nonempty], lo[nonempty], hi[nonempty]
    m_min = int(lo.min())
    col_phase = np.exp(2j * np.pi * (v * np.arange(m_min, int(hi.max()) + 1)))
    widths = hi - lo + 1
    sizes = widths - (ns == 0)  # the origin is left out of the n = 0 row
    starts = np.cumsum(sizes) - sizes
    cuts = [0, *(np.flatnonzero(np.diff(starts // _BLOCK_POINTS)) + 1).tolist(), len(ns)]
    totals = [0.0 + 0.0j] * len(xs)
    add = np.add.reduce
    for block in map(slice, cuts[:-1], cuts[1:]):
        n, blo, width = ns[block], lo[block], widths[block]
        zero = n == 0
        m = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width - blo, width)
        nn = np.repeat(n, width)
        if zero.any():
            keep = (m != 0) | (nn != 0)
            m, nn = m[keep], nn[keep]
        terms = col_phase[m - m_min]
        terms *= row_phase[nn + n_top]
        terms /= _norms(c, b, exact, m, nn)
        # [a, e) is the slice of terms that cutoff j keeps in row i, with
        # cutoffs along axis 0 and the block's rows along axis 1
        rlo, rhi = _kept_bounds(c, b, exact, xs[:, None], n[None, :])
        first = starts[block] - starts[block.start]
        a = first + (rlo - blo) - (zero & (rlo > 0))
        e = first + (rhi + 1 - blo) - (zero & (rhi >= 0))
        live = a < e
        for j, s, t in zip(np.nonzero(live)[0].tolist(), a[live].tolist(),
                           e[live].tolist()):
            totals[j] += complex(add(terms[s:t]))
    return totals


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
    path is this module's core cross-check.  The closed form is real; the
    imaginary part of the direct sum is the caller's vanishing check.
    """
    if psi.is_trivial:
        raise ValueError("Kronecker limit formula needs a nontrivial character")
    u, v = float(psi.u), float(psi.v)
    g = siegel_g(-v, u, lat.tau)
    return (-2.0 * math.pi / lat.area) * math.log(abs(g.value))

