"""Selberg zeta function over a reduced system of loxodromic classes.

Euler product for Re(s) > 1 with the exact root-of-unity factor selection,
its log-derivative in both pre- and post-collapse form, divisor bookkeeping
(spectral + topological), the meromorphy order, the functional-equation
factor, and the completed log-derivative whose pair combination is purely
spectral.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .arithmetic_group import GroupData, PrimitiveLoxodromicClass
from .representation import (UnitaryRep, simultaneous_diagonalization,
                             singular_spaces, snap_unit_angle)
from .trace_formula import (EULER_GAMMA, SpectralSideInputs,
                            _euler_transform_alternating, cosh_integral,
                            cusp_lattice_constants, digamma_halfplane_value,
                            nce_term)

__all__ = [
    "ZetaClassData",
    "build_zeta_class_data",
    "zeta_truncated",
    "log_zeta_truncated",
    "zeta_tail_bound",
    "log_derivative_series",
    "collapse_identity_report",
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

UNIMODULAR_TOL = 1e-9
# Euler-product factors and log-derivative terms below this modulus are dropped
FACTOR_TOL = 1e-16


# ---------------------------------------------------------------------------
# per-class eigenvalue data and the exact c = 1 selection

@dataclass(frozen=True)
class ZetaClassData:
    """Eigenvalues of chi on one primitive loxodromic family.

    chi(T0) and chi(E_T) commute and are simultaneously diagonalized;
    t_eigen[j] and t_prime_eigen[j] belong to the same eigenvector.
    residue[j] is the unique (l - k) mod m with
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
    out = []
    for cls in classes:
        if cls.E_T is None:
            t_eig = [complex(z) for z in np.linalg.eigvals(chi(cls.T0))]
            t_prime = [1.0 + 0.0j] * len(t_eig)
            residues = [0] * len(t_eig)
        else:
            _, diags = simultaneous_diagonalization(
                [chi(cls.T0), chi(cls.E_T)])
            t_eig = [complex(z) for z in diags[0]]
            t_prime = [complex(z) for z in diags[1]]
            if cls.zeta0_angle is None:
                raise ValueError("torsion class lacks an exact zeta0 angle")
            residues = []
            for tp in t_prime:
                alpha = snap_unit_angle(tp, tol=UNIMODULAR_TOL, max_den=48)
                if alpha is None:
                    raise ValueError(
                        f"chi(E_T) eigenvalue {tp} is not a recognizable "
                        "root of unity")
                residues.append(
                    _selection_residue(alpha, cls.zeta0_angle, cls.m))
        for z in t_eig:
            if abs(abs(z) - 1.0) > UNIMODULAR_TOL:
                raise ValueError(f"non-unimodular eigenvalue {z} of chi(T0)")
        out.append(ZetaClassData(cls=cls, t_eigen=tuple(t_eig),
                                 t_prime_eigen=tuple(t_prime),
                                 residues=tuple(residues)))
    return out


def _iter_factors(zcd: ZetaClassData, kl_cutoff: int):
    """Yield (t_j, k, l) for every selected factor with k + l <= cutoff."""
    m = zcd.m
    for t_j, r in zip(zcd.t_eigen, zcd.residues):
        for total in range(kl_cutoff + 1):
            for l in range(total + 1):
                k = total - l
                if (l - k - r) % m == 0:
                    yield t_j, k, l


def _auto_cutoff(n0: float, s_real: float) -> int:
    # factor modulus is N0^-(k+l) * N0^-(Re s + 1); keep while >= FACTOR_TOL
    return max(0, int(math.log(1.0 / FACTOR_TOL) / math.log(n0)
                      - s_real - 1.0))


def _factor_terms(zcd: ZetaClassData, s: complex,
                  kl_cutoff: Optional[int]):
    """Yield x = t_j a0^(-2k) conj(a0)^(-2l) N0^(-s-1) for every selected
    factor, at kl_cutoff or else the automatic cutoff at Re s."""
    a0 = zcd.cls.a0
    n0 = zcd.cls.N0
    cutoff = (kl_cutoff if kl_cutoff is not None
              else _auto_cutoff(n0, s.real))
    base = n0 ** (-s - 1.0)
    # each power once per exponent, not once per factor
    powers = [a0 ** (-2 * k) for k in range(cutoff + 1)]
    conj_powers = [a0.conjugate() ** (-2 * l) for l in range(cutoff + 1)]
    for t_j, k, l in _iter_factors(zcd, cutoff):
        yield t_j * powers[k] * conj_powers[l] * base


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
    re_parts, im_parts = [], []
    for zcd in data:
        for x in _factor_terms(zcd, s, kl_cutoff):
            # log(1 - x) = log|1 - x| + i arg(1 - x), each part to full
            # relative accuracy however small |x| is
            re_parts.append(0.5 * math.log1p(
                x.real * x.real + x.imag * x.imag - 2.0 * x.real))
            im_parts.append(math.atan2(-x.imag, 1.0 - x.real))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def zeta_tail_bound(s, data: Sequence[ZetaClassData], kl_cutoff: int) -> float:
    """Bound on |log Z| change from raising kl_cutoff to infinity.

    Each omitted factor has |x| = N0^-(k+l) N0^-(Re s+1) and at most
    (total+1) selected pairs share k + l = total; |log(1-x)| <= 2|x| on
    |x| <= 1/2.
    """
    s_real = complex(s).real
    bound = 0.0
    for zcd in data:
        n0 = zcd.cls.N0
        dim = len(zcd.t_eigen)
        for total in range(kl_cutoff + 1, kl_cutoff + 200):
            contrib = dim * (total + 1) * n0 ** (-(total + s_real + 1.0))
            bound += 2.0 * contrib
            if contrib < 1e-20:
                break
    return bound


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
        total = 0.0 + 0.0j
        for zcd in data:
            log_n0 = math.log(zcd.cls.N0)
            for x in _factor_terms(zcd, s, None):
                total += x * log_n0 / (1.0 - x)
        return total
    if route != "classes":
        raise ValueError(f"unknown route {route!r}")
    total = 0.0 + 0.0j
    for zcd in data:
        cls = zcd.cls
        m, n0, a0, zeta0 = cls.m, cls.N0, cls.a0, cls.zeta0
        log_n0 = math.log(n0)
        n = 1
        while True:
            norm = n0 ** n
            if power_norm_bound is not None:
                if norm > power_norm_bound:
                    break
            else:
                dim = len(zcd.t_eigen)
                envelope = (dim * log_n0 * norm ** (-s.real)
                            / (norm * (1.0 - 1.0 / norm) ** 2))
                if envelope < FACTOR_TOL:
                    break
            a_pow = a0 ** n
            for v in range(1, m + 1):
                a_t = (zeta0 ** v) * a_pow
                tr = sum(t ** n * tp ** v
                         for t, tp in zip(zcd.t_eigen, zcd.t_prime_eigen))
                total += (tr * log_n0 * norm ** (-s)
                          / (m * abs(a_t - 1.0 / a_t) ** 2))
            n += 1
    return total


def collapse_identity_report(data: Sequence[ZetaClassData], s) -> list:
    """Per-class check of the v-sum collapse for the powers n = 1..6.

    1/|a - 1/a|^2 = N^-1 sum_{k,l} a^-2k conj(a)^-2l turns the v-sum over
    torsion twists into the c = 1 selection (the geometric sum of c^v over
    v = 1..m is m when c = 1, else 0).  Returns (class_index, n, lhs, rhs)
    rows; lhs is the v-sum, rhs the selected (l, k) sum.
    """
    s = complex(s)
    rows = []
    for ci, zcd in enumerate(data):
        cls = zcd.cls
        m, n0, a0, zeta0 = cls.m, cls.N0, cls.a0, cls.zeta0
        log_n0 = math.log(n0)
        for n in range(1, 7):
            norm = n0 ** n
            a_pow = a0 ** n
            lhs = 0.0 + 0.0j
            for v in range(1, m + 1):
                a_t = (zeta0 ** v) * a_pow
                tr = sum(t ** n * tp ** v
                         for t, tp in zip(zcd.t_eigen, zcd.t_prime_eigen))
                lhs += (tr * log_n0 * norm ** (-s)
                        / (m * abs(a_t - 1.0 / a_t) ** 2))
            cutoff = max(4, int(40.0 / n) + 4)
            rhs = 0.0 + 0.0j
            for t_j, k, l in _iter_factors(zcd, cutoff):
                rhs += (t_j ** n * a_pow ** (-2 * k)
                        * a_pow.conjugate() ** (-2 * l))
            rhs *= log_n0 * norm ** (-s - 1.0)
            rows.append((ci, n, lhs, rhs))
    return rows


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
    shrinks to (s - 1)/4, so every point stays in Re s > 1."""
    step = min(step, (s - 1.0) / 4.0)

    def log_z(x):
        return log_zeta_truncated(x, data)

    diff = (8.0 * (log_z(s + step) - log_z(s - step))
            - (log_z(s + 2.0 * step) - log_z(s - 2.0 * step))) / (12.0 * step)
    series = log_derivative_series(s, data, route="factors")
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
    notes: str = ""


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
        source="topological", notes="s = 0; integral by trS0 parity")]
    for n in range(1, depth + 1):
        if index == 1:
            res = Fraction(k_infinity)
            note = ""
        elif index == 2:
            if n % 2 == 1:
                res, note = Fraction(k_infinity), "n odd"
            else:
                res, note = Fraction(l_infinity - k_infinity), "n even"
        else:
            if n % 3 == 0:
                res = Fraction(2 * l_infinity, 3) - k_infinity
                note = "n = 0 mod 3"
            else:
                res = Fraction(l_infinity, 6) + Fraction(k_infinity, 2)
                note = "n != 0 mod 3"
        if res.denominator not in (1, 2, 3, 6):
            raise ValueError(f"unexpected residue denominator {res}")
        records.append(DivisorRecord(location=complex(-n, 0.0), residue=res,
                                     source="topological", notes=note))
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
                source="eigenvalue", notes="lambda = 1; residue doubled"))
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
    from scipy.special import loggamma
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

@dataclass(frozen=True)
class XiBlocks:
    """s-independent geometric constants entering the completed function."""

    index: int
    k_infinity: int
    l_infinity: int
    vol: float
    dim_v: int
    nce_constant: complex       # sum tr chi(R) log N0 / (4 m sin^2)
    log_c_sum: complex          # sum 2 tr chi(g_i) log|c_i| / (|C| |1-eps^2|^2)
    cusp_constant: complex      # (1/idx)(l_inf (eta/2 - gamma) + sum L)
    ce_weights: tuple           # (w_i, t_i): tr chi/(|C| |1-eps^2|^2), angle

    @property
    def e_constant(self) -> complex:
        """The linear-coefficient constant of the functional equation."""
        return self.nce_constant + self.log_c_sum + self.cusp_constant


def geometric_blocks(gdata: GroupData, chi: UnitaryRep) -> XiBlocks:
    group = gdata.group
    sing = singular_spaces(chi, gdata.stabilizer)
    eta_infinity, L_values = cusp_lattice_constants(group, sing)
    nce = nce_term(1.0, gdata.non_cuspidal_elliptic, chi)
    log_c = 0.0 + 0.0j
    weights = []
    for cls in gdata.cuspidal_elliptic:
        norm = cls.one_minus_eps_sq_norm
        w = chi.trace(cls.representative) / (cls.centralizer_order * norm)
        log_c += 2.0 * w * cls.log_c
        weights.append((w, math.acos(1.0 - norm / 2.0)))
    cusp = (sing.l_infinity * (eta_infinity / 2.0 - EULER_GAMMA)
            + sum(L_values)) / group.index
    return XiBlocks(index=group.index, k_infinity=sing.k_infinity,
                    l_infinity=sing.l_infinity, vol=group.volume,
                    dim_v=chi.dim, nce_constant=nce, log_c_sum=log_c,
                    cusp_constant=cusp, ce_weights=tuple(weights))


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
             - ratio * digamma_halfplane_value(s)
             - (trS0 - ratio) / (2.0 * s)
             + blocks.nce_constant + blocks.log_c_sum + blocks.cusp_constant
             - blocks.vol * blocks.dim_v / (2.0 * math.pi) * s * s)
    for w, t in blocks.ce_weights:
        value += w * cosh_integral(s, t)
    return value
