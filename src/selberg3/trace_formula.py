"""Geometric side of the Selberg trace formula, term by term.

Covers one cusp at infinity: identity, non-cuspidal elliptic, loxodromic,
cuspidal elliptic, and parabolic contributions, the log A cancellation
between the cusp terms, and the exact cuspidal-elliptic class identity.
The spectral side (eigenvalues, scattering matrix) is external input only.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .arithmetic_group import (CuspidalEllipticClass, GroupData,
                               GroupDescriptor, NonCuspidalEllipticClass,
                               PrimitiveLoxodromicClass)
from .lattice_lfn import Lattice, L_value_kronecker, kappa_lattice
from .representation import (CyclotomicValue, SingularData, UnitaryRep,
                             singular_spaces)
from .transform import TestFunctionTriple

__all__ = [
    "EULER_GAMMA",
    "SpectralSideInputs",
    "GeometricSideReport",
    "identity_term",
    "nce_term",
    "LoxodromicTerm",
    "loxodromic_term",
    "cosh_integral",
    "cosh_integral_quad",
    "cuspidal_elliptic_term",
    "parabolic_term",
    "cusp_lattice_constants",
    "digamma_halfplane_value",
    "digamma_poisson_integral",
    "digamma_reflection_series",
    "cuspidal_identity_check",
    "exact_cyclotomic_trace",
    "geometric_side",
]

EULER_GAMMA = 0.57721566490153286061
# truncation tolerance of the cosh_integral sine series
COSH_SERIES_TOL = 1e-10


@dataclass(frozen=True)
class SpectralSideInputs:
    """Externally supplied spectral data; never computed here.

    trS0 is the trace of the scattering matrix at s = 0, a sum of k_infinity
    signs, so it must share k_infinity's parity and satisfy |trS0| <= k_inf.
    """

    eigenvalue_parameters: tuple = ()     # (s_n, multiplicity) pairs
    trS0: float = 0.0
    scattering_poles: tuple = ()          # (rho_j, multiplicity), Re rho < 0

    def validate_parity(self, k_infinity: int) -> None:
        t = self.trS0
        if abs(t - round(t)) > 1e-9:
            raise ValueError("trS0 must be an integer (sum of +-1 terms)")
        t = int(round(t))
        if (t - k_infinity) % 2 != 0 or abs(t) > k_infinity:
            raise ValueError(
                f"trS0 = {t} incompatible with k_infinity = {k_infinity}")


# ---------------------------------------------------------------------------
# identity term

def identity_term(h: Callable, vol: float, dim_v: int,
                  route: str = "direct") -> float:
    """(vol * dim V / 4 pi^2) Integral_R h(1+t^2) t^2 dt.

    route "substitution" integrates Integral_1^inf h(w) sqrt(w-1) dw instead
    (w = 1 + t^2), an independent change-of-variables check.
    """
    from scipy.integrate import quad
    if route == "direct":
        val, err = quad(lambda t: (h(1.0 + t * t) * t * t).real, 0.0, np.inf,
                        limit=200)
        val *= 2.0
    elif route == "substitution":
        val, err = quad(lambda w: (h(w) * math.sqrt(w - 1.0)).real, 1.0,
                        np.inf, limit=200)
    else:
        raise ValueError(f"unknown route {route!r}")
    return vol * dim_v / (4.0 * math.pi ** 2) * val


# ---------------------------------------------------------------------------
# non-cuspidal elliptic term

def nce_term(g0: complex, classes: Sequence[NonCuspidalEllipticClass],
             chi: UnitaryRep) -> complex:
    """Sum of tr chi(R) g(0) log N(T0) / (4 m(R) sin^2(pi k/m)).

    Classes whose axis shows no loxodromic element within the enumeration
    bound carry no N(T0); they are skipped with a warning, making the
    result a partial (lower-truncated) sum.
    """
    total = 0.0 + 0.0j
    for cls in classes:
        if cls.N0 is None:
            warnings.warn("nce class without axis norm skipped; "
                          "term is a partial sum")
            continue
        tr = chi.trace(cls.representative)
        total += (tr * g0 * math.log(cls.N0)
                  / (4.0 * cls.order_primitive * float(cls.sin_sq)))
    return total


# ---------------------------------------------------------------------------
# loxodromic term

@dataclass(frozen=True)
class LoxodromicTerm:
    value: complex
    tail_estimate: float
    terms_used: int


def loxodromic_term(g: Callable, classes: Sequence[PrimitiveLoxodromicClass],
                    chi: UnitaryRep, norm_bound: float) -> LoxodromicTerm:
    """Sum over loxodromic classes T = T0^(n+1) E^v of

        tr chi(T) g(log N(T)) log N(T0) / (m |a(T) - a(T)^(-1)|^2),

    truncated at N(T) <= norm_bound.  The tail estimate extends the envelope
    |tr| <= dim, |a - 1/a|^2 >= N(1 - 1/N)^2 over the next sixty powers.
    """
    dim = chi.dim
    eye = np.eye(dim, dtype=complex)
    total = 0.0 + 0.0j
    tail = 0.0
    used = 0
    for cls in classes:
        log_n0 = math.log(cls.N0)
        m = cls.m
        u_mat = chi(cls.T0)
        w_mat = chi(cls.E_T) if cls.E_T is not None else eye
        w_pows = [eye]
        for _ in range(m):
            w_pows.append(w_pows[-1] @ w_mat)
        u_pow = eye
        n = 0
        while cls.N0 ** (n + 1) <= norm_bound:
            u_pow = u_pow @ u_mat
            a_pow = cls.a0 ** (n + 1)
            norm_t = cls.N0 ** (n + 1)
            g_val = g(math.log(norm_t))
            for v in range(1, m + 1):
                a_t = (cls.zeta0 ** v) * a_pow
                denom = abs(a_t - 1.0 / a_t) ** 2
                tr = complex(np.trace(u_pow @ w_pows[v]))
                total += tr * g_val * log_n0 / (m * denom)
                used += 1
            n += 1
        for extra in range(n, n + 60):
            norm_t = cls.N0 ** (extra + 1)
            env = (dim * abs(g(math.log(norm_t))) * log_n0
                   / (norm_t * (1.0 - 1.0 / norm_t) ** 2))
            tail += env
            if env < 1e-18:
                break
    return LoxodromicTerm(value=total, tail_estimate=tail, terms_used=used)


# ---------------------------------------------------------------------------
# the exponential-kernel integral over cosh x - cos t

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


def cosh_integral(s, t: float):
    """Integral_0^inf e^(-s x) sinh x / (cosh x - cos t) dx for t in (0, pi].

    Series route: (1/sin t) Sum_k sin(kt) (1/(s-1+k) - 1/(s+1+k)), summed
    by parts against the closed sine partial sums; at t = pi the limit
    Sum_k k (-1)^(k+1) (...) is accelerated by the Euler transform.
    """
    s = complex(s)
    if not (0.0 < t <= math.pi + 1e-12):
        raise ValueError("t must lie in (0, pi]")
    if s.real <= 0.0:
        raise ValueError("need Re(s) > 0 for the series")
    if abs(t - math.pi) < 1e-12:
        ks = np.arange(1.0, 121.0)
        d = 2.0 * ks / ((ks + s - 1.0) * (ks + s + 1.0))
        if abs(s.imag) < 1e-15:
            val = _euler_transform_alternating(d.real)
            return float(val)
        # complex s: transform real and imaginary parts separately
        return complex(_euler_transform_alternating(d.real),
                       _euler_transform_alternating(d.imag))
    half = 0.5 * t
    k_max = int(2.0 * math.sqrt(2.0 / (COSH_SERIES_TOL
                                       * abs(math.sin(half))))) + 100
    k = np.arange(1, k_max + 2, dtype=float)
    a = 1.0 / (s - 1.0 + k) - 1.0 / (s + 1.0 + k)
    sine_partial = np.sin(k * half) * np.sin((k + 1.0) * half) / math.sin(half)
    head = np.sum(sine_partial[:k_max] * (a[:k_max] - a[1:k_max + 1]))
    boundary = sine_partial[k_max - 1] * a[k_max]
    val = (head + boundary) / math.sin(t)
    if abs(s.imag) < 1e-15:
        return float(val.real)
    return complex(val)


def _sinh_over_cosh_shift(x: float, c: float) -> float:
    """sinh x / (cosh x - c), written to avoid overflow for large x."""
    e = math.exp(-x)
    return (1.0 - e * e) / (1.0 + e * e - 2.0 * c * e)


def cosh_integral_quad(s, t: float) -> float:
    """Direct quadrature of the same integral; the independent oracle."""
    from scipy.integrate import quad
    s = complex(s)
    c = math.cos(t)

    def f(x):
        return (cmath.exp(-s * x)).real * _sinh_over_cosh_shift(x, c)

    val, err = quad(f, 0.0, np.inf, limit=300)
    if abs(s.imag) >= 1e-15:
        def f_im(x):
            return (cmath.exp(-s * x)).imag * _sinh_over_cosh_shift(x, c)
        vi, _ = quad(f_im, 0.0, np.inf, limit=300)
        return complex(val, vi)
    return val


# ---------------------------------------------------------------------------
# cuspidal elliptic term

def _class_angle(norm: int) -> float:
    # cos t = 1 - |1 - eps^2|^2 / 2
    return math.acos(1.0 - norm / 2.0)


def cuspidal_elliptic_term(g: Callable, classes: Sequence[CuspidalEllipticClass],
                           chi: UnitaryRep, A: float,
                           route: str = "quad",
                           s_B: Optional[tuple] = None) -> complex:
    """Sum over cuspidal elliptic classes g_i of

      (tr chi(g_i)/|C(g_i)|) [ 2 g(0)(log|c_i| + log A) + I_i ] / |1-eps_i^2|^2

    with I_i = Integral_0^inf g(x) sinh x / (cosh x - 1 + |1-eps_i^2|^2/2) dx.
    route "series" (resolvent pair only, pass s_B=(s, B)) evaluates I_i from
    the partial-fraction series instead of quadrature.
    """
    from scipy.integrate import quad
    if A <= 0:
        raise ValueError("A must be positive")
    g0 = g(0.0)
    total = 0.0 + 0.0j
    for cls in classes:
        norm = cls.one_minus_eps_sq_norm
        tr = chi.trace(cls.representative)
        weight = tr / (cls.centralizer_order * norm)
        if route == "quad":
            cos_t = 1.0 - norm / 2.0
            integral, _ = quad(
                lambda x: (g(x) * _sinh_over_cosh_shift(x, cos_t)).real,
                0.0, np.inf, limit=300, epsabs=1e-13, epsrel=1e-12)
        elif route == "series":
            if s_B is None:
                raise ValueError("series route needs s_B=(s, B)")
            s, B = s_B
            t = _class_angle(norm)
            integral = (cosh_integral(s, t) / (2.0 * s)
                        - cosh_integral(B, t) / (2.0 * B))
        else:
            raise ValueError(f"unknown route {route!r}")
        total += weight * (2.0 * g0 * (cls.log_c + math.log(A)) + integral)
    return total


# ---------------------------------------------------------------------------
# parabolic term

def digamma_halfplane_value(s) -> complex:
    """psi(1+s): the analytic value of the Poisson digamma integral."""
    from scipy.special import digamma
    return complex(digamma(1.0 + complex(s)))


def digamma_poisson_integral(s: float) -> float:
    """(1/2pi) Integral_R 2s/(s^2+w^2) psi(1+iw) dw by quadrature, Re s > 0.

    Equals psi(1+s); the odd imaginary part of psi(1+iw) integrates to zero.
    """
    from scipy.integrate import quad
    from scipy.special import digamma
    if s <= 0:
        raise ValueError("need s > 0")
    val, _ = quad(lambda w: (2.0 * s / (s * s + w * w))
                  * digamma(complex(1.0, w)).real,
                  0.0, np.inf, limit=300)
    return 2.0 * val / (2.0 * math.pi)


def digamma_reflection_series(s: float, terms: Optional[int] = None) -> float:
    """psi(1-s) + Sum_k (1/(s+k) + 1/(s-k)), the printed reflected form.

    With terms=None the sum is closed: pi cot(pi s) - 1/s.  This is NOT the
    analytic continuation of the Poisson integral; the two differ by exactly
    2(pi cot(pi s) - 1/s), which moves the residue at each negative integer
    from -1 to +1 and thereby produces the topological residue tables.
    """
    from scipy.special import digamma
    if abs(s - round(s)) < 1e-12:
        raise ValueError("reflected form has a pole at integer s")
    base = float(digamma(1.0 - s))
    if terms is None:
        return base + math.pi / math.tan(math.pi * s) - 1.0 / s
    k = np.arange(1, terms + 1, dtype=float)
    return base + float(np.sum(1.0 / (s + k) + 1.0 / (s - k)))


def parabolic_term(h: Callable, g0: complex, index: int, l_infinity: int,
                   eta_infinity: float, L_values: Sequence[float],
                   A: float) -> complex:
    """Cusp-at-infinity parabolic contribution at truncation height A:

      (l_inf/idx)[ g(0) log A + h(1)/4 + g(0)(eta/2 - gamma)
                   - (1/2pi) Integral_R h(1+t^2) psi(1+it) dt ]
      + (g(0)/idx) Sum L(Lambda, psi_l)  over the non-singular characters.
    """
    from scipy.integrate import quad
    from scipy.special import digamma
    if A <= 0:
        raise ValueError("A must be positive")
    dig, _ = quad(lambda t: (h(1.0 + t * t)
                             * digamma(complex(1.0, t)).real).real,
                  0.0, np.inf, limit=300)
    dig = 2.0 * dig / (2.0 * math.pi)
    core = (g0 * math.log(A) + h(1.0) / 4.0
            + g0 * (eta_infinity / 2.0 - EULER_GAMMA) - dig)
    return (l_infinity / index) * core + (g0 / index) * sum(L_values)


def cusp_lattice_constants(group: GroupDescriptor,
                           sing: SingularData) -> tuple:
    """(kappa, L-values) of the cusp lattice: the lattice Euler constant
    (eta in the parabolic term) and the Kronecker-limit values of the
    non-singular lattice characters of chi, in their listed order."""
    lat = Lattice(group.tau)
    return kappa_lattice(lat).kappa, [
        L_value_kronecker(lat, psi)
        for psi in sing.lattice_characters[sing.l_infinity:]]


# ---------------------------------------------------------------------------
# the exact cuspidal-elliptic identity

def exact_cyclotomic_trace(chi: UnitaryRep, g) -> CyclotomicValue:
    """tr chi(g) as an exact element a + b omega, snapping if needed."""
    exact = chi.exact_trace(g)
    if exact is not None:
        return exact
    z = chi.trace(g)
    b = Fraction(z.imag / (math.sqrt(3.0) / 2.0)).limit_denominator(48)
    a = Fraction(z.real + float(b) / 2.0).limit_denominator(48)
    cand = CyclotomicValue(a, b)
    if abs(cand.to_complex() - z) > 1e-9:
        raise ValueError(f"trace {z} is not recognizably in Q(omega)")
    return cand


def cuspidal_identity_check(classes: Sequence[CuspidalEllipticClass],
                            chi: UnitaryRep, k_infinity: int,
                            l_infinity: int, index: int) -> CyclotomicValue:
    """Exact residual of  2 Sum_i tr chi(g_i)/(|C||1-eps^2|^2) + l/idx - k.

    Zero for consistent class data; computed in Q(omega), no floats.
    A nonzero value is returned, not raised: it is a finding about the data.
    """
    total = CyclotomicValue.from_rational(0)
    for cls in classes:
        tr = exact_cyclotomic_trace(chi, cls.representative)
        total = total + tr * Fraction(
            2, cls.centralizer_order * cls.one_minus_eps_sq_norm)
    total = total + CyclotomicValue.from_rational(Fraction(l_infinity, index))
    return total - CyclotomicValue.from_rational(k_infinity)


# ---------------------------------------------------------------------------
# assembly

@dataclass
class GeometricSideReport:
    A: float
    identity_term: float
    nce_term: complex
    loxodromic_term: complex
    loxodromic_tail: float
    cuspidal_elliptic_term: complex
    parabolic_term: complex
    logA_coefficient: float
    expected_logA_coefficient: float
    finite_part: complex
    errors: dict = field(default_factory=dict)

    @property
    def total(self) -> complex:
        return (self.identity_term + self.nce_term + self.loxodromic_term
                + self.cuspidal_elliptic_term + self.parabolic_term)


def geometric_side(triple: TestFunctionTriple, gdata: GroupData,
                   chi: UnitaryRep, A: float, norm_bound: float,
                   ce_route: str = "quad",
                   s_B: Optional[tuple] = None) -> GeometricSideReport:
    """Assemble every geometric term at truncation height A.

    The log A coefficient is measured by evaluating the A-dependent terms at
    A and at e*A (their difference is the coefficient exactly), then checked
    against g(0) * k_infinity, the cancellation the cusp identity enforces.
    """
    h, g = triple.h, triple.g
    g0 = g(0.0)
    group = gdata.group
    sing = singular_spaces(chi, gdata.stabilizer)
    eta_infinity, L_values = cusp_lattice_constants(group, sing)

    ident = identity_term(h, group.volume, chi.dim)
    nce = nce_term(g0, gdata.non_cuspidal_elliptic, chi)
    lox = loxodromic_term(g, gdata.loxodromic, chi, norm_bound)

    def cusp_terms(height):
        ce = cuspidal_elliptic_term(g, gdata.cuspidal_elliptic, chi, height,
                                    route=ce_route, s_B=s_B)
        par = parabolic_term(h, g0, group.index, sing.l_infinity,
                             eta_infinity, L_values, height)
        return ce, par

    ce_A, par_A = cusp_terms(A)
    ce_eA, par_eA = cusp_terms(math.e * A)
    coef = (ce_eA + par_eA - ce_A - par_A).real
    expected = (g0 * sing.k_infinity).real if isinstance(g0, complex) \
        else g0 * sing.k_infinity
    if not abs(coef - expected) <= 1e-9:  # a NaN coefficient fails too
        raise RuntimeError(
            f"log A coefficient {coef!r} != g(0) k_infinity {expected!r}; "
            "cusp cancellation violated")
    total = ident + nce + lox.value + ce_A + par_A
    return GeometricSideReport(
        A=A, identity_term=ident, nce_term=nce,
        loxodromic_term=lox.value, loxodromic_tail=lox.tail_estimate,
        cuspidal_elliptic_term=ce_A, parabolic_term=par_A,
        logA_coefficient=coef, expected_logA_coefficient=expected,
        finite_part=total - coef * math.log(A),
        errors={"loxodromic_tail": lox.tail_estimate})
