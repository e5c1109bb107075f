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
from typing import Callable, Sequence

import numpy as np

from .arithmetic_group import (CuspidalEllipticClass, GroupData,
                               GroupDescriptor, NonCuspidalEllipticClass,
                               PrimitiveLoxodromicClass)
from .lattice_lfn import Lattice, L_value_kronecker, kappa_lattice
from .quadrature import digamma, integrate_halfline
from .representation import (CyclotomicValue, SingularData, UnitaryRep,
                             _joint_angles, singular_spaces, snap_unit_angle)
from .transform import TestFunctionTriple

__all__ = [
    "EULER_GAMMA",
    "SpectralSideInputs",
    "GeometricSideReport",
    "identity_term",
    "nce_term",
    "length_spectrum",
    "LoxodromicTerm",
    "loxodromic_term",
    "cosh_integral",
    "cosh_integral_quad",
    "cusp_lattice_constants",
    "XiBlocks",
    "geometric_blocks",
    "cuspidal_elliptic_term",
    "parabolic_term",
    "cuspidal_identity_check",
    "geometric_side",
]

EULER_GAMMA = 0.57721566490153286061
# cosh_integral snaps t in (0, pi) to 2 pi p/q, q <= 12, within 1e-12
COSH_ANGLE_MAX_DEN = 12


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
                  route: str = "direct") -> tuple:
    """(value, error estimate) of (vol * dim V / 4 pi^2) Integral_R
    h(1+t^2) t^2 dt.

    route "substitution" integrates Integral_1^inf h(w) sqrt(w-1) dw instead,
    an independent change-of-variables check.  It runs over u with
    w = (1+u)^2: in w - 1 itself the w^(-3/2) tail would be an x^(-1/2)
    endpoint singularity of the half-line rule's map.
    """
    if route == "direct":
        val, err = integrate_halfline(lambda t: (h(1.0 + t * t) * t * t).real)
        val, err = 2.0 * val, 2.0 * err
    elif route == "substitution":
        val, err = integrate_halfline(
            lambda u: (h((1.0 + u) ** 2) * np.sqrt(u * (u + 2.0))
                       * 2.0 * (1.0 + u)).real)
    else:
        raise ValueError(f"unknown route {route!r}")
    scale = vol * dim_v / (4.0 * math.pi ** 2)
    return scale * val, scale * err


# ---------------------------------------------------------------------------
# non-cuspidal elliptic term

def nce_term(classes: Sequence[NonCuspidalEllipticClass],
             chi: UnitaryRep) -> complex:
    """Sum of tr chi(R) log N(T0) / (4 m(R) sin^2(pi k/m)), the NCE term
    per unit of g(0).

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
        total += (tr * math.log(cls.N0)
                  / (4.0 * cls.order_primitive * float(cls.sin_sq)))
    return total


# ---------------------------------------------------------------------------
# loxodromic term

def length_spectrum(classes: Sequence[PrimitiveLoxodromicClass],
                    norm_caps) -> tuple:
    """(family, n, v, log N(T), log N0 / (m |a(T) - a(T)^(-1)|^2)) as flat
    arrays over every T = T0^n E^v (n >= 1, v = 1..m) with N(T) = N0^n at
    most its family's cap (norm_caps: one cap, or one per family), in
    (family, n, v) order: the one rule for the terms a loxodromic sum keeps.
    """
    n0 = np.array([c.N0 for c in classes], dtype=float)
    m = np.array([c.m for c in classes], dtype=int)
    caps = np.broadcast_to(norm_caps, n0.shape)[:, None, None]
    # n runs one power past log cap / log N0; the comparison decides
    top = int(np.max(np.log(caps) / np.log(n0), initial=0.0)) + 1
    family, n, v = np.nonzero(
        (n0[:, None, None] ** np.arange(1, top + 1)[:, None] <= caps)
        & (np.arange(1, np.max(m, initial=1) + 1) <= m[:, None, None]))
    n, v = n + 1, v + 1
    a_t = (np.array([c.zeta0 for c in classes])[family] ** v
           * np.array([c.a0 for c in classes])[family] ** n)
    return (family, n, v, np.log(n0[family] ** n),
            np.log(n0[family]) / (m[family] * np.abs(a_t - 1 / a_t) ** 2))


def _matrix_powers(mats: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """mats[i]^exponents[i] over a stack of matrices, by batched products
    and squarings, one of each per binary digit of the largest exponent."""
    out = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape).astype(complex)
    while exponents.any():
        out = np.where((exponents % 2 == 1)[:, None, None], out @ mats, out)
        mats, exponents = mats @ mats, exponents // 2
    return out


@dataclass(frozen=True)
class LoxodromicTerm:
    value: complex
    tail_estimate: float
    terms_used: int


def loxodromic_term(g: Callable, classes: Sequence[PrimitiveLoxodromicClass],
                    chi: UnitaryRep, norm_bound: float) -> LoxodromicTerm:
    """Sum over loxodromic classes T = T0^n E^v of

        tr chi(T) g(log N(T)) log N(T0) / (m |a(T) - a(T)^(-1)|^2),

    truncated at N(T) <= norm_bound, with tr chi(T) from matrix powers of
    chi(T0) and chi(E_T).  The tail estimate extends the envelope
    |tr| <= dim, |a - 1/a|^2 >= N(1 - 1/N)^2 over each family's next sixty
    powers, up to the first below 1e-18.  g is called twice, on arrays.
    """
    dim = chi.dim
    family, n, v, lengths, weights = length_spectrum(classes, norm_bound)
    eye = np.eye(dim)
    mats = np.array([(chi(c.T0), eye if c.E_T is None else chi(c.E_T))
                     for c in classes], dtype=complex).reshape(-1, 2, dim, dim)
    traces = np.trace(_matrix_powers(mats[family, 0], n)
                      @ _matrix_powers(mats[family, 1], v), axis1=1, axis2=2)
    terms = traces * weights * g(lengths)
    # sequential: numpy's pairwise order would move the report's last digit
    value = np.cumsum(terms)[-1] if terms.size else 0j
    kept = np.bincount(family[v == 1], minlength=len(classes))  # powers kept
    n0 = np.array([c.N0 for c in classes], dtype=float)[:, None]
    with np.errstate(over="ignore"):   # N0^k = inf gives env = 0
        norm = n0 ** (kept[:, None] + np.arange(1, 61))
    env = (dim * np.abs(g(np.log(norm))) * np.log(n0)
           / (norm * (1.0 - 1.0 / norm) ** 2))
    small = env < 1e-18
    tail = np.sum(env[np.cumsum(small, axis=1) - small == 0])
    return LoxodromicTerm(value=complex(value), tail_estimate=float(tail),
                          terms_used=len(lengths))


# ---------------------------------------------------------------------------
# the exponential-kernel integral over cosh x - cos t

def cosh_integral(s, t: float):
    """Integral_0^inf e^(-s x) sinh x / (cosh x - cos t) dx for t in (0, pi].

    Series: (1/sin t) Sum_k sin(kt) (1/(s-1+k) - 1/(s+1+k)).  For t in
    (0, pi) the angle must be a torsion angle t = 2 pi p/q (q <= 12);
    grouping k by residue r mod q and Sum_j [1/(j+x) - 1/(j+y)] =
    psi(y) - psi(x) (DLMF 5.7) close the series:

        (1/(q sin t)) Sum_{r=1}^{q-1} sin(2 pi p r/q)
                      [psi((r+s+1)/q) - psi((r+s-1)/q)].

    At t = pi, tanh(x/2) = 1 - 2 Sum_k (-1)^(k+1) e^(-kx) closes it the
    same way, to 1/s - [psi((s+2)/2) - psi((s+1)/2)].
    """
    s = complex(s)
    if not (0.0 < t <= math.pi + 1e-12):
        raise ValueError("t must lie in (0, pi]")
    if s.real <= 0.0:
        raise ValueError("need Re(s) > 0 for the series")
    if abs(t - math.pi) < 1e-12:
        val = 1.0 / s - (digamma((s + 2.0) / 2.0) - digamma((s + 1.0) / 2.0))
    else:
        angle = snap_unit_angle(cmath.exp(1j * t), tol=1e-12,
                                max_den=COSH_ANGLE_MAX_DEN)
        if angle is None or not 0 < angle < 0.5:
            raise ValueError(f"t = {t!r} is not a torsion angle 2 pi p/q "
                             f"with q <= {COSH_ANGLE_MAX_DEN}")
        p, q = angle.numerator, angle.denominator
        r = np.arange(1, q)
        sines = np.sin(2.0 * math.pi * ((p * r) % q) / q)
        psi_gap = digamma((r + s + 1.0) / q) - digamma((r + s - 1.0) / q)
        val = np.dot(sines, psi_gap) / (q * math.sin(2.0 * math.pi * p / q))
    if abs(s.imag) < 1e-15:
        return float(val.real)
    return complex(val)


def _cosh_kernel_integral(g: Callable, cos_t: float) -> tuple:
    """(Integral_0^inf g(x) sinh x / (cosh x - cos t) dx, error estimate)
    by the half-line rule, for the real part of a g that acts on arrays."""
    def integrand(x):
        e = np.exp(-x)   # sinh x / (cosh x - cos t) without overflow
        return (g(x) * (1.0 - e * e) / (1.0 + e * e - 2.0 * cos_t * e)).real

    return integrate_halfline(integrand)


def cosh_integral_quad(s, t: float):
    """Direct quadrature of the same integral, one pass per part of
    e^(-s x); the independent oracle."""
    s = complex(s)
    val, _ = _cosh_kernel_integral(lambda x: np.exp(-s * x).real, math.cos(t))
    if abs(s.imag) >= 1e-15:
        im, _ = _cosh_kernel_integral(lambda x: np.exp(-s * x).imag,
                                      math.cos(t))
        return complex(val, im)
    return val


# ---------------------------------------------------------------------------
# the s-independent geometric constants

def cusp_lattice_constants(group: GroupDescriptor,
                           sing: SingularData) -> tuple:
    """(kappa, L-values) of the cusp lattice: the lattice Euler constant
    (eta in the parabolic term) and the Kronecker-limit values of the
    non-singular lattice characters of chi, in their listed order."""
    lat = Lattice(group.tau)
    return kappa_lattice(lat).kappa, [
        L_value_kronecker(lat, psi)
        for psi in sing.lattice_characters[sing.l_infinity:]]


@dataclass(frozen=True)
class XiBlocks:
    """s-independent geometric constants: the one record of the cusp
    constants, read by the geometric side and the completed function."""

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
    nce = nce_term(gdata.non_cuspidal_elliptic, chi)
    log_c = 0.0 + 0.0j
    weights = []
    for cls in gdata.cuspidal_elliptic:
        norm = cls.one_minus_eps_sq_norm
        w = chi.trace(cls.representative) / (cls.centralizer_order * norm)
        log_c += 2.0 * w * cls.log_c
        # cos t = 1 - |1 - eps^2|^2 / 2
        weights.append((w, math.acos(1.0 - norm / 2.0)))
    cusp = (sing.l_infinity * (eta_infinity / 2.0 - EULER_GAMMA)
            + sum(L_values)) / group.index
    return XiBlocks(index=group.index, k_infinity=sing.k_infinity,
                    l_infinity=sing.l_infinity, vol=group.volume,
                    dim_v=chi.dim, nce_constant=nce, log_c_sum=log_c,
                    cusp_constant=cusp, ce_weights=tuple(weights))


# ---------------------------------------------------------------------------
# cuspidal elliptic term

def cuspidal_elliptic_term(g: Callable, blocks: XiBlocks) -> tuple:
    """(constant, log A coefficient, error estimate) of the sum over
    cuspidal elliptic classes g_i of

      w_i [ 2 g(0)(log|c_i| + log A) + I_i ],
      w_i = tr chi(g_i) / (|C(g_i)| |1-eps_i^2|^2),

    with I_i = Integral_0^inf g(x) sinh x / (cosh x - cos t_i) dx, one
    quadrature per class.  The constant is g(0) log_c_sum + sum_i w_i I_i,
    the coefficient 2 g(0) sum_i w_i, and the estimate sum_i |w_i| err_i.
    """
    g0 = g(0.0)
    constant = g0 * blocks.log_c_sum
    weight_sum = 0.0 + 0.0j
    error = 0.0
    for w, t in blocks.ce_weights:
        integral, err = _cosh_kernel_integral(g, math.cos(t))
        constant += w * integral
        weight_sum += w
        error += abs(w) * err
    return constant, 2.0 * g0 * weight_sum, error


# ---------------------------------------------------------------------------
# parabolic term

def parabolic_term(h: Callable, g0: complex, blocks: XiBlocks) -> tuple:
    """(constant, log A coefficient, error estimate) of the cusp-at-infinity
    parabolic contribution at truncation height A,

      (l_inf/idx)[ g(0) log A + h(1)/4
                   - (1/2pi) Integral_R h(1+t^2) psi(1+it) dt ]
      + g(0) cusp_constant,

    where cusp_constant carries g(0)(eta/2 - gamma) and the L-values of
    the non-singular characters.  The integral runs over u = sqrt(t): the
    t^(-4) log t tail of the integrand would be an x^2 log x endpoint
    singularity of the half-line rule's map, and in u it is x^5 log x.
    """
    def integrand(u):
        t = u * u
        return 2.0 * u * (h(1.0 + t * t) * digamma(1.0 + 1j * t).real).real

    dig, err = integrate_halfline(integrand)
    ratio = blocks.l_infinity / blocks.index
    return (ratio * (h(1.0) / 4.0 - dig / math.pi) + g0 * blocks.cusp_constant,
            ratio * g0, abs(ratio) * err / math.pi)


# ---------------------------------------------------------------------------
# the exact cuspidal-elliptic identity

def cuspidal_identity_check(classes: Sequence[CuspidalEllipticClass],
                            chi: UnitaryRep, k_infinity: int,
                            l_infinity: int, index: int) -> CyclotomicValue:
    """Exact residual of  2 Sum_i tr chi(g_i)/(|C||1-eps^2|^2) + l/idx - k.

    Each cuspidal elliptic g_i has order 2 (Picard) or 3 (Eisenstein), so
    the eigenvalues of chi(g_i) are sixth roots of unity and its trace lies
    in Q(omega): it is summed exactly from the eigen-angles of the stacked
    images (one _joint_angles call, the identity as second operand), no
    floats.  Raises ValueError naming an angle of order not dividing 6, or
    when an image has no finite order.  A nonzero residual is returned,
    not raised: it is a finding about the data.
    """
    total = CyclotomicValue.from_rational(Fraction(l_infinity, index)
                                          - k_infinity)
    images = np.array([chi(cls.representative) for cls in classes],
                      dtype=complex).reshape(-1, chi.dim, chi.dim)
    angles = _joint_angles(images, np.broadcast_to(np.eye(chi.dim),
                                                   images.shape))
    for cls, pairs in zip(classes, angles):
        weight = Fraction(2, cls.centralizer_order * cls.one_minus_eps_sq_norm)
        for angle, _ in pairs:
            root = CyclotomicValue.from_angle(angle)
            if root is None:
                raise ValueError(f"eigen-angle {angle} of a cuspidal "
                                 "elliptic image has order not dividing 6; "
                                 "its trace is not in Q(omega)")
            total = total + root * weight
    return total


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
                   chi: UnitaryRep, A: float, norm_bound: float
                   ) -> GeometricSideReport:
    """Assemble every geometric term at truncation height A.

    Each cusp term is an A-free constant plus a log A coefficient read
    from the class weights and l_inf/idx.  Their summed coefficient is
    checked against g(0) * k_infinity, the cancellation the cusp identity
    enforces; finite_part is the sum of the A-free parts.
    """
    if A <= 0:
        raise ValueError("A must be positive")
    h, g = triple.h, triple.g
    g0 = g(0.0)
    blocks = geometric_blocks(gdata, chi)
    ident, ident_err = identity_term(h, blocks.vol, blocks.dim_v)
    nce = g0 * blocks.nce_constant
    lox = loxodromic_term(g, gdata.loxodromic, chi, norm_bound)
    ce, ce_coef, ce_err = cuspidal_elliptic_term(g, blocks)
    par, par_coef, par_err = parabolic_term(h, g0, blocks)
    coef = ce_coef + par_coef
    expected = (g0 * blocks.k_infinity).real
    if not abs(coef - expected) <= 1e-9:  # a NaN coefficient fails too
        raise RuntimeError(
            f"log A coefficient {coef!r} != g(0) k_infinity {expected!r}; "
            "cusp cancellation violated")
    log_a = math.log(A)
    return GeometricSideReport(
        A=A, identity_term=ident, nce_term=nce,
        loxodromic_term=lox.value, loxodromic_tail=lox.tail_estimate,
        cuspidal_elliptic_term=ce + ce_coef * log_a,
        parabolic_term=par + par_coef * log_a,
        logA_coefficient=coef.real, expected_logA_coefficient=expected,
        finite_part=ident + nce + lox.value + ce + par,
        errors={"loxodromic_tail": lox.tail_estimate,
                "identity_quadrature": ident_err,
                "cuspidal_elliptic_quadrature": ce_err,
                "parabolic_quadrature": par_err})
