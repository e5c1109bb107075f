"""Selberg zeta function over a reduced system of loxodromic classes.

Euler product for Re(s) > 1 with the exact root-of-unity factor selection,
its log-derivative in both pre- and post-collapse form, divisor bookkeeping
(spectral + topological), the meromorphy order, the functional-equation
factor, and the completed log-derivative whose pair combination is purely
spectral.  The eigenvalues of chi it runs over are exact roots of unity,
their angles trace averages over the finite image of chi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .arithmetic_group import PrimitiveLoxodromicClass
from .quadrature import digamma, loggamma
from .representation import UnitaryRep, _joint_angles, _unit_value
from .trace_formula import (SpectralSideInputs, XiBlocks, cosh_integral,
                            geometric_blocks, length_spectrum)

__all__ = [
    "ZetaClassData",
    "build_zeta_class_data",
    "zeta_truncated",
    "log_zeta_truncated",
    "zeta_tail_bound",
    "log_derivative_series",
    "central_difference_check",
    "DivisorRecord",
    "topological_divisor",
    "spectral_divisor",
    "meromorphy_order",
    "MeromorphyReport",
    "meromorphy_report",
    "abel_product_log",
    "functional_factor_psi",
    "XiBlocks",
    "geometric_blocks",
    "xi_log_derivative",
]

# Euler-product factors and log-derivative terms below this modulus are dropped
FACTOR_TOL = 1e-16


# ---------------------------------------------------------------------------
# per-class eigenvalue data and the exact c = 1 selection

@dataclass(frozen=True)
class ZetaClassData:
    """Joint eigenvalues of chi(T0) and chi(E_T) on one primitive
    loxodromic family.

    (t_eigen[j], t_prime_eigen[j]) is one joint eigenvalue, listed with
    multiplicity: exact roots of unity whose angles are trace averages over
    the finite image of chi.  residue[j] is the unique (l - k) mod m with
    c = t'_j zeta0^(2(l-k)) = 1; the zeta factors for slot j run over
    exactly those (l, k) pairs.
    """

    cls: PrimitiveLoxodromicClass
    t_eigen: tuple
    t_prime_eigen: tuple
    residues: tuple

    @property
    def m(self) -> int:
        return self.cls.m


def _selection_residue(alpha: Fraction, theta: Fraction, m: int) -> int:
    hits = [r for r in range(m) if (alpha + 2 * r * theta) % 1 == 0]
    if len(hits) != 1:
        raise ValueError(
            f"selection c = 1 has {len(hits)} solutions mod {m}; "
            "eigenvalue data inconsistent with the torsion generator")
    return hits[0]


def build_zeta_class_data(classes: Sequence[PrimitiveLoxodromicClass],
                          chi: UnitaryRep) -> list[ZetaClassData]:
    """Class data from the exact joint eigen-angles (a, b) of chi(T0) and
    chi(E_T) (the identity when a class has no torsion): t = exp(2 pi i a),
    t' = exp(2 pi i b), and each residue from b and the exact zeta0 angle.

    The eigen-data of a class depend on (T0, E_T, m, zeta0 angle) alone,
    so they are kept in chi's memo under that key; the classes not yet
    seen are found in one batch.
    """
    keys = [(cls.T0, cls.E_T, cls.m, cls.zeta0_angle) for cls in classes]
    new = {key: cls for key, cls in zip(keys, classes) if key not in chi._memo}
    if new:
        eye = np.eye(chi.dim)
        t0 = np.array([chi(cls.T0) for cls in new.values()])
        e_t = np.array([eye if cls.E_T is None else chi(cls.E_T)
                        for cls in new.values()])
        for (key, cls), angles in zip(new.items(), _joint_angles(t0, e_t)):
            theta = cls.zeta0_angle or Fraction(0)  # None exactly when m = 1
            chi._memo[key] = (
                tuple(_unit_value(a) for a, _ in angles),
                tuple(_unit_value(b) for _, b in angles),
                tuple(_selection_residue(b, theta, cls.m) for _, b in angles))
    return [ZetaClassData(cls, *chi._memo[key])
            for cls, key in zip(classes, keys)]


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b with one rounding per real product and sum, as Python's complex
    multiply (numpy's is not conjugate-symmetric)."""
    return ((a.real * b.real - a.imag * b.imag)
            + 1j * (a.real * b.imag + a.imag * b.real))


def _kl_cutoffs(s: complex, data: Sequence[ZetaClassData],
                kl_cutoff: Optional[int]) -> np.ndarray:
    """Per-class bound on k + l: kl_cutoff, or else the largest at which
    the factor modulus N0^-(k+l) N0^-(Re s + 1) reaches FACTOR_TOL."""
    if kl_cutoff is not None:
        return np.full(len(data), kl_cutoff)
    log_n0 = np.array([math.log(z.cls.N0) for z in data])
    return np.maximum(0, (math.log(1.0 / FACTOR_TOL) / log_n0
                          - s.real - 1.0).astype(int))


def _factor_grid(data: Sequence[ZetaClassData], cutoff: np.ndarray):
    """The s-independent part of every selected (class, j, k, l) factor
    with k + l at most cutoff[class]: the class index c, k + l, and
    y = t_j a0^(-2k) conj(a0)^(-2l), in (class, j, k, l) order.

    The a0 powers come from Python's ** and every product from _cmul.  t_j
    multiplies a0^(-2k) conj(a0)^(-2l), the exact conjugate of its (l, k)
    partner, so a real chi (exact conjugate t_j pairs) gives exact
    conjugate y, and at real s exact conjugate factors.
    """
    kl = np.arange(int(cutoff.max()) + 1)
    m = np.array([z.m for z in data])[:, None, None, None]
    r = np.array([z.residues for z in data])[:, :, None, None]
    # grid axes (class, slot, k, l)
    c, j, k, l = np.nonzero((kl[:, None] + kl <= cutoff[:, None, None, None])
                            & ((kl - kl[:, None] - r) % m == 0))
    powers = np.array([[z.cls.a0 ** (-2 * n) for n in range(len(kl))]
                       for z in data])
    t = np.array([z.t_eigen for z in data], dtype=complex)
    return c, k + l, _cmul(t[c, j], _cmul(powers[c, k], powers[c, l].conj()))


def _euler_factors(s: complex, data: Sequence[ZetaClassData],
                   kl_cutoff: Optional[int],
                   grid=None) -> tuple[np.ndarray, np.ndarray]:
    """x = t_j a0^(-2k) conj(a0)^(-2l) N0^(-s-1) and log N0 for every
    selected (class, j, k, l) factor: (l - k - r_j) = 0 mod m and k + l at
    most kl_cutoff, or else at most the class's FACTOR_TOL cutoff at Re s.

    grid is a _factor_grid at cutoffs no smaller than those at s (one grid
    serves several s); by default it is built at s.  x is y N0^(-s-1) by
    _cmul on the grid's factors with k + l within the cutoff at s.
    """
    if not data:
        return np.zeros(0, complex), np.zeros(0)
    cutoff = _kl_cutoffs(s, data, kl_cutoff)
    c, total, y = _factor_grid(data, cutoff) if grid is None else grid
    keep = total <= cutoff[c]
    c = c[keep]
    log_n0 = np.array([math.log(z.cls.N0) for z in data])
    base = np.array([z.cls.N0 ** (-s - 1.0) for z in data])
    return _cmul(y[keep], base[c]), log_n0[c]


def _log_one_minus(x: np.ndarray) -> complex:
    """sum log(1 - x): log|1 - x| + i arg(1 - x) term by term, each part
    to full relative accuracy however small |x| is; math's log1p and atan2,
    because numpy's vectorized loops round differently on different CPUs,
    and fsum, exactly rounded whatever the order."""
    q = x.real * x.real + x.imag * x.imag - 2.0 * x.real
    return complex(0.5 * math.fsum(map(math.log1p, q.tolist())),
                   math.fsum(map(math.atan2, (-x.imag).tolist(),
                                 (1.0 - x.real).tolist())))


def _factor_log_derivative(x: np.ndarray, log_n0: np.ndarray) -> complex:
    """sum x log N0 / (1 - x), the derivative of -sum log(1 - x) in s."""
    terms = x * log_n0 / (1.0 - x)
    return complex(math.fsum(terms.real.tolist()),
                   math.fsum(terms.imag.tolist()))


def zeta_truncated(s, data: Sequence[ZetaClassData],
                   kl_cutoff: Optional[int] = None) -> complex:
    """Product of (1 - t_j a0^(-2k) conj(a0)^(-2l) N0^(-s-1)) over the
    selected (class, j, l, k); requires Re(s) > 1 for convergence."""
    return cmath.exp(log_zeta_truncated(s, data, kl_cutoff))


def log_zeta_truncated(s, data: Sequence[ZetaClassData],
                       kl_cutoff: Optional[int] = None) -> complex:
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("Euler product needs Re(s) > 1")
    return _log_one_minus(_euler_factors(s, data, kl_cutoff)[0])


def zeta_tail_bound(s, data: Sequence[ZetaClassData], kl_cutoff: int) -> float:
    """Bound on |log Z| change from raising kl_cutoff to infinity.

    Each omitted factor has |x| = N0^-(k+l) N0^-(Re s+1) and at most
    (total+1) selected pairs share k + l = total; |log(1-x)| <= 2|x| on
    |x| <= 1/2.  With q = 1/N0 and K = kl_cutoff, the sum over total > K
    of (total+1) q^total is q^(K+1) (K+2 - (K+1) q) / (1-q)^2.
    """
    k = kl_cutoff
    q = np.array([1.0 / z.cls.N0 for z in data])
    dim = np.array([len(z.t_eigen) for z in data])
    return float(np.sum(2.0 * dim * q ** (complex(s).real + k + 2.0)
                        * (k + 2 - (k + 1) * q) / (1.0 - q) ** 2))


# ---------------------------------------------------------------------------
# log-derivative: loxodromic series (pre-collapse) and factor sum

def log_derivative_series(s, data: Sequence[ZetaClassData],
                          route: str = "classes",
                          power_norm_bound: Optional[float] = None) -> complex:
    """Z'/Z(s) = sum over T = T0^n E^v of
    tr chi(T) log N0 N(T)^(-s) / (m |a(T) - a(T)^(-1)|^2).

    route "classes" sums that series directly (v-sum not collapsed);
    route "factors" differentiates the Euler-product factor logs
    (x log N0/(1-x) per factor), the post-collapse form.  With
    power_norm_bound set, route "classes" truncates at N(T) <= bound
    (matching a geometric-side truncation) instead of running to FACTOR_TOL.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("series needs Re(s) > 1")
    if route == "factors":
        return _factor_log_derivative(*_euler_factors(s, data, None))
    if route != "classes":
        raise ValueError(f"unknown route {route!r}")
    t = np.array([z.t_eigen for z in data], dtype=complex, ndmin=2)
    t_prime = np.array([z.t_prime_eigen for z in data], dtype=complex,
                       ndmin=2)
    caps = power_norm_bound
    if caps is None:
        # with |tr| <= dim and |a - 1/a|^2 >= N (1 - 1/N0)^2, keep each N at
        # which dim log N0 N^(-Re s - 1) / (1 - 1/N0)^2 reaches FACTOR_TOL
        n0 = np.array([z.cls.N0 for z in data])
        caps = (t.shape[1] * np.log(n0) / (FACTOR_TOL * (1.0 - 1.0 / n0) ** 2)
                ) ** (1.0 / (s.real + 1.0))
    family, n, v, lengths, weights = length_spectrum([z.cls for z in data],
                                                     caps)
    traces = np.sum(t[family] ** n[:, None] * t_prime[family] ** v[:, None],
                    axis=1)
    return complex(np.sum(traces * weights * np.exp(-s * lengths)))


@dataclass(frozen=True)
class CentralDifferenceCheck:
    s: complex
    series: complex
    central_difference: complex
    relative_error: float


def central_difference_check(s: float, data: Sequence[ZetaClassData],
                             step: float = 1e-4) -> CentralDifferenceCheck:
    """Compare d/ds log Z (fourth-order central difference of the
    truncated product, points s +- step and s +- 2 step) against the
    analytic series at matched truncation.  When s - 1 < 4 step the step
    shrinks to (s - 1)/4, so every point stays in Re s > 1.

    Every point reads one factor grid, built at the largest cutoffs (those
    of the lowest point), and gives the values of log_zeta_truncated and
    of the factor route of log_derivative_series bit for bit."""
    step = min(step, (s - 1.0) / 4.0)
    points = [complex(s + h * step) for h in (1.0, -1.0, 2.0, -2.0)]
    lowest = min(points, key=lambda p: p.real)
    if not lowest.real > 1.0:
        raise ValueError("Euler product needs Re(s) > 1")
    grid = (_factor_grid(data, _kl_cutoffs(lowest, data, None))
            if data else None)
    up, down, up2, down2 = (_log_one_minus(_euler_factors(p, data, None,
                                                          grid)[0])
                            for p in points)
    diff = (8.0 * (up - down) - (up2 - down2)) / (12.0 * step)
    series = _factor_log_derivative(*_euler_factors(complex(s), data, None,
                                                    grid))
    rel = abs(diff - series) / max(abs(series), 1e-300)
    return CentralDifferenceCheck(s=complex(s), series=series,
                                  central_difference=diff,
                                  relative_error=rel)


# ---------------------------------------------------------------------------
# divisor bookkeeping

@dataclass(frozen=True)
class DivisorRecord:
    location: complex
    residue: Fraction
    source: str          # eigenvalue | scattering_pole | topological


def topological_divisor(index: int, k_infinity: int, l_infinity: int,
                        trS0: float, depth: int = 50) -> list[DivisorRecord]:
    """Residues of (2s-scaled) topological terms at s = 0, -1, -2, ...

    index 1: k_inf at every negative integer.
    index 2: k_inf for odd n, l_inf - k_inf for even n.
    index 3: (2/3) l_inf - k_inf at multiples of 3, l_inf/6 + k_inf/2
    otherwise.  At s = 0 every case contributes (trS0 - k_inf)/2, integral
    by the parity of trS0.
    """
    if index not in (1, 2, 3):
        raise ValueError(
            f"no residue table for cusp index {index}; only 1, 2, 3 "
            "are supported")
    SpectralSideInputs(trS0=trS0).validate_parity(k_infinity)
    records = [DivisorRecord(
        location=0.0 + 0.0j,
        residue=Fraction(int(round(trS0)) - k_infinity, 2),
        source="topological")]
    for n in range(1, depth + 1):
        if index == 1:
            res = Fraction(k_infinity)
        elif index == 2:
            if n % 2 == 1:
                res = Fraction(k_infinity)
            else:
                res = Fraction(l_infinity - k_infinity)
        elif n % 3 == 0:
            res = Fraction(2 * l_infinity, 3) - k_infinity
        else:
            res = Fraction(l_infinity, 6) + Fraction(k_infinity, 2)
        if res.denominator not in (1, 2, 3, 6):
            raise ValueError(f"unexpected residue denominator {res}")
        records.append(DivisorRecord(location=complex(-n, 0.0), residue=res,
                                     source="topological"))
    return records


def spectral_divisor(inputs: SpectralSideInputs) -> list[DivisorRecord]:
    """Records at +-s_j with residue = eigenvalue multiplicity (doubled and
    merged at s_j = 0) and at scattering poles rho_j in Re < 0."""
    records = []
    for s_j, mult in inputs.eigenvalue_parameters:
        if mult < 0 or mult != int(mult):
            raise ValueError(f"multiplicity {mult} must be a "
                             "non-negative integer")
        mult = int(mult)
        if mult == 0:
            continue
        s_j = complex(s_j)
        if abs(s_j) < 1e-15:
            records.append(DivisorRecord(
                location=0.0 + 0.0j, residue=Fraction(2 * mult),
                source="eigenvalue"))
        else:
            for loc in (s_j, -s_j):
                records.append(DivisorRecord(
                    location=loc, residue=Fraction(mult),
                    source="eigenvalue"))
    for rho, mult in inputs.scattering_poles:
        rho = complex(rho)
        if rho.real >= 0:
            raise ValueError(f"scattering pole {rho} must lie in Re(s) < 0")
        if mult < 0 or mult != int(mult):
            raise ValueError(f"multiplicity {mult} must be a "
                             "non-negative integer")
        if int(mult) == 0:
            continue
        records.append(DivisorRecord(
            location=rho, residue=Fraction(int(mult)),
            source="scattering_pole"))
    return records


def meromorphy_order(records: Sequence[DivisorRecord]) -> int:
    """Least N with all residues of Z^N integral: lcm of denominators."""
    n = 1
    for rec in records:
        n = math.lcm(n, rec.residue.denominator)
    return n


@dataclass(frozen=True)
class MeromorphyReport:
    computed: int
    documented: Optional[int]
    matches: Optional[bool]
    note: str


def meromorphy_report(records: Sequence[DivisorRecord],
                      documented_order: Optional[int] = None
                      ) -> MeromorphyReport:
    """Computed lcm next to an externally documented order, never merged.

    The computed value is the data; a documented claim that disagrees is
    reported side by side rather than adopted.
    """
    computed = meromorphy_order(records)
    if documented_order is None:
        return MeromorphyReport(computed, None, None, "")
    matches = computed == documented_order
    note = ("" if matches else
            f"computed lcm {computed} differs from the documented order "
            f"{documented_order}; both reported")
    return MeromorphyReport(computed, documented_order, matches, note)


# ---------------------------------------------------------------------------
# functional-equation factor

def _euler_transform_alternating(terms: np.ndarray):
    """Sum of (-1)^j terms[j] by repeated forward differencing, in the
    dtype of terms (real or complex)."""
    coeffs = np.asarray(terms)
    total = 0.0
    for n in range(len(coeffs)):
        total += coeffs[0] / 2.0 ** (n + 1)
        coeffs = coeffs[:-1] - coeffs[1:]
        if len(coeffs) == 0 or (abs(coeffs[0]) / 2.0 ** (n + 2) < 1e-17
                                and n > 8):
            break
    return total


def abel_product_log(s, terms: int = 80) -> complex:
    """Abel-regularized log of prod_k exp(-k (-1)^k ((k-1)^2-s^2)/((k+1)^2-s^2)).

    The printed product diverges term-by-term (the exponent grows like k);
    splitting ((k-1)^2-s^2)/((k+1)^2-s^2) = 1 - 4k/((k+1)^2-s^2) and Abel
    summation (sum (-1)^(k+1) k = 1/4, sum (-1)^(k+1) = 1/2) leaves

        1/4 - 2 + 4 sum_k (-1)^(k+1) (2k+1-s^2)/((k+1)^2-s^2),

    a convergent alternating series, accelerated by the Euler transform.
    Poles at s = +-(k+1), k >= 1.
    """
    s = complex(s)
    k = np.arange(1.0, terms + 1.0)
    denom = (k + 1.0) ** 2 - s * s
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("pole of the product factor at integer s")
    a = (2.0 * k + 1.0 - s * s) / denom
    return 0.25 - 2.0 + 4.0 * _euler_transform_alternating(a)


def functional_factor_psi(s, index: int, k_infinity: int, l_infinity: int,
                          e_constant: complex, vol: float, dim_v: int,
                          exp_c_sign: int = 1) -> complex:
    """Psi(s) with Z(-s) = Z(s) phi(s) Psi(s), defined for cusp index 1, 2.

    index 1: (Gamma(1-s)/Gamma(1+s))^k_inf exp(-vol dimV/(3 pi) s^3 + E s + C).
    index 2: (Gamma(1-s)/Gamma(1+s))^l_inf times the regularized infinite
    product to the power (k_inf - l_inf)/2, same exponential.
    exp(C) = +-1 is not determined here; choose via exp_c_sign.
    """
    if index == 3:
        raise ValueError("no functional-equation factor for cusp index 3")
    if index not in (1, 2):
        raise ValueError(f"unsupported cusp index {index}")
    if exp_c_sign not in (1, -1):
        raise ValueError("exp(C) is +-1")
    s = complex(s)
    log_gamma_ratio = loggamma(1.0 - s) - loggamma(1.0 + s)
    expo = (-vol * dim_v / (3.0 * math.pi) * s ** 3 + e_constant * s)
    if index == 1:
        log_psi = k_infinity * log_gamma_ratio + expo
    else:
        half_diff = (k_infinity - l_infinity) / 2.0
        log_psi = l_infinity * log_gamma_ratio + expo
        if half_diff != 0.0:
            log_psi = log_psi + half_diff * abel_product_log(s)
    return exp_c_sign * cmath.exp(log_psi)


# ---------------------------------------------------------------------------
# completed log-derivative

def xi_log_derivative(s, data: Sequence[ZetaClassData], blocks: XiBlocks,
                      trS0: float,
                      power_norm_bound: Optional[float] = None) -> complex:
    """Xi'/Xi(s): Z'/Z plus every non-spectral block, assembled so that
    (1/2s) Xi'/Xi(s) - (1/2B) Xi'/Xi(B) is purely spectral.

        Xi'/Xi(s) = Z'/Z(s) - (l/idx) psi(1+s) - (trS0 - l/idx)/(2s)
                    + sum_i w_i I(s, t_i) + NCE + LC + CB
                    - (vol dimV / 2 pi) s^2
    """
    s = complex(s)
    z_part = log_derivative_series(s, data, route="classes",
                                   power_norm_bound=power_norm_bound)
    ratio = blocks.l_infinity / blocks.index
    value = (z_part
             - ratio * digamma(1.0 + s)
             - (trS0 - ratio) / (2.0 * s)
             + blocks.nce_constant + blocks.log_c_sum + blocks.cusp_constant
             - blocks.vol * blocks.dim_v / (2.0 * math.pi) * s * s)
    for w, t in blocks.ce_weights:
        value += w * cosh_integral(s, t)
    return value
