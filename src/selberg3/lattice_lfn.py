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
largest cutoff serves the whole ladder (ladder_sums), and each Z(x) it
returns is bit-identical to a sweep of its own.

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
HEX_LATTICE = Lattice(complex(-0.5, math.sqrt(3.0) / 2.0))


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


def _row_bounds(c, b, x, n: int):
    """Integer m-range [lo, hi] with |m tau + n|^2 <= x for fixed n, lo > hi
    when the row is empty; elementwise when x is an array of cutoffs.  c and
    b are the norm-form coefficients of the lattice (Lattice.norm_form)."""
    # c m^2 + b n m + (n^2 - x) <= 0
    disc = (b * n) ** 2 - 4.0 * c * (n * n - x)
    sq = np.sqrt(np.maximum(disc, 0.0))
    lo = np.ceil((-b * n - sq) / (2.0 * c) - 1e-12).astype(np.int64)
    hi = np.floor((-b * n + sq) / (2.0 * c) + 1e-12).astype(np.int64)
    return lo, np.where(disc < 0, lo - 1, hi)


def _n_max(lat: Lattice, x: float) -> int:
    """Largest |n| of a row that can hold a point with |m tau + n|^2 <= x."""
    # min over real m of |m tau + n|^2 is n^2 area^2/|tau|^2
    return int(math.floor(math.sqrt(x) * abs(lat.tau) / lat.area + 1))


def _iter_rows(lat: Lattice, x: float, c, b, exact: bool):
    """Rows (n, m_array, normsq_array) in deterministic ascending-n order;
    (c, b, exact) is lat.norm_form()."""
    n_max = _n_max(lat, x)
    for n in range(-n_max, n_max + 1):
        lo, hi = _row_bounds(c, b, x, n)
        if lo > hi:
            continue
        m = np.arange(lo, hi + 1, dtype=np.int64)
        if exact:
            q = c * m * m + b * m * n + n * n
            keep = (q <= x) & (q > 0)
        else:
            q = c * m.astype(float) ** 2 + b * m.astype(float) * n + float(n * n)
            keep = (q <= x) & (q > 1e-15)
        if n == 0:
            keep &= m != 0
        yield n, m[keep], q[keep].astype(float)


def partial_sum_Z(x: float, lat: Lattice, psi: LatticeCharacter) -> complex:
    """Sum of psi(mu)/|mu|^2 over lattice points with 0 < |mu|^2 <= x.

    The cutoff is exact whenever the norm form has integer coefficients
    (tau = i, omega, 1 + omega, multiples of i, ...).
    """
    return ladder_sums([x], lat, psi)[0]


def ladder_sums(xs, lat: Lattice, psi: LatticeCharacter) -> list:
    """partial_sum_Z at every cutoff in xs, in the order given, from one
    sweep over the rows of the largest cutoff.

    Within a row, the points a cutoff keeps (its row bounds and masks) are
    one run of the largest cutoff's kept points: the bounds only widen as
    x grows, and q is a convex quadratic in m, so for integers
    m1 < m2 < m3, q(m2) <= max(q(m1), q(m3)) - c, a margin far above the
    rounding of q.  Each run is summed with the same terms in the same
    order as a sweep of that cutoff alone, so every total is bit-identical
    to partial_sum_Z at that cutoff (a skipped empty run would add +0j,
    which changes no total).
    """
    xs = np.array(xs, dtype=float)
    if xs.min() <= 0:
        raise ValueError("cutoff must be positive")
    u, v = float(psi.u), float(psi.v)
    cutoffs = [(x, _n_max(lat, x)) for x in xs.tolist()]
    totals = [0.0 + 0.0j] * len(xs)
    c, b, exact = lat.norm_form()
    # row iteration indexes points as m*tau + n, so psi contributes v^m u^n
    for n, m, q in _iter_rows(lat, xs.max(), c, b, exact):
        terms = np.exp(2j * np.pi * (v * m + u * n)) / q
        lo, hi = _row_bounds(c, b, xs, n)
        runs = zip(m.searchsorted(lo).tolist(),
                   m.searchsorted(hi, "right").tolist())
        for j, ((x, n_max), (a, e)) in enumerate(zip(cutoffs, runs)):
            if abs(n) > n_max:
                continue
            while a < e and q[a] > x:
                a += 1
            while e > a and q[e - 1] > x:
                e -= 1
            if a < e:
                totals[j] += complex(np.add.reduce(terms[a:e]))
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


@dataclass(frozen=True)
class EisensteinKroneckerValue:
    value: complex
    tail_estimate: float

    def __complex__(self):
        return self.value


def eisenstein_kronecker_E(u: float, v: float, tau: complex, s: complex,
                           cutoff: float = 1e5) -> EisensteinKroneckerValue:
    """E_{u,v}(tau, s) = y^s * sum' e^{2 pi i(mu + nv)} / |m tau + n|^{2s}."""
    if s.real <= 1:
        raise ValueError("need Re(s) > 1 for absolute convergence")
    if abs(u - round(u)) < 1e-12 and abs(v - round(v)) < 1e-12:
        raise ValueError("need a nontrivial character")
    lat = Lattice(tau)
    total = 0.0 + 0.0j
    for n, m, q in _iter_rows(lat, cutoff, *lat.norm_form()):
        phase = np.exp(2j * np.pi * (u * m + v * n))
        total += complex(np.sum(phase * np.power(q, -s)))
    y = tau.imag
    tail = 4.0 * (math.pi / y) * cutoff ** (1.0 - s.real) / (s.real - 1.0)
    return EisensteinKroneckerValue(value=(y ** s) * total,
                                    tail_estimate=(y ** s.real) * tail)
