"""Selberg-Harish-Chandra transform, the h -> g Fourier pair, and test pairs.

The transform of a point-pair kernel k is

    h(1 - s^2) = (pi/s) int_1^inf k((t + 1/t)/2) (t^s - t^{-s}) (t - 1/t) dt/t,

and g is the Fourier transform g(x) = (1/2 pi) int h(1 + t^2) e^{-itx} dt.
Everything here is plain quadrature; the only subtlety is the s = 0 limit
of the Selberg integrand and the oscillatory weight for g.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

QUAD_TOL = 1e-10


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class TestFunctionTriple:
    """A compatible (k, h, g) family; members may be closed-form or derived.

    h is a function of the eigenvalue w = 1 - s^2; g is even on R; k acts
    on the point-pair distance delta >= 1.  provenance records, per member,
    whether it is closed-form, derived by quadrature, or absent.
    """

    __test__ = False  # not a pytest test class despite the name

    h: Callable[[complex], complex]
    g: Callable[[float], float]
    k: Optional[Callable[[float], float]] = None
    provenance: dict = field(default_factory=dict)

    def g0_consistency(self, upper: float = np.inf) -> float:
        """|g(0) - (1/2 pi) int h(1+t^2) dt|; small for a genuine pair.

        A finite upper limit accommodates h members that are themselves
        quadratures and cannot be evaluated at enormous eigenvalues.
        """
        from scipy.integrate import quad
        val, err = quad(lambda t: complex(self.h(1.0 + t * t)).real, 0, upper,
                        epsabs=QUAD_TOL, limit=300)
        if err > 1e-7:
            raise QuadratureError(f"g(0) cross-check quadrature error {err:.2e}")
        return abs(val / math.pi - self.g(0.0))


def _quad_complex(f, a, b, **kw):
    from scipy.integrate import quad
    re, re_err = quad(lambda t: f(t).real, a, b, **kw)
    im, im_err = quad(lambda t: f(t).imag, a, b, **kw)
    return complex(re, im), max(re_err, im_err)


def shc_h_from_k(k: Callable[[float], float], lam: complex) -> complex:
    """Transform value h(lam) at eigenvalue lam = 1 - s^2, Re s >= 0.

    The factor (t^s - t^{-s})/s is evaluated as 2 sinh(s log t)/s, which
    passes smoothly through the s = 0 limit 2 log t with no cancellation.
    """
    from scipy.integrate import quad
    s = cmath.sqrt(1.0 - lam)

    def stretched(log_t: float) -> complex:
        if s == 0:
            return 2.0 * log_t
        return 2.0 * cmath.sinh(s * log_t) / s

    def integrand(t):
        return (k((t + 1.0 / t) / 2.0) * stretched(math.log(t))
                * (t - 1.0 / t) / t)

    if s.imag == 0:
        val, err = quad(lambda t: integrand(t).real, 1.0, np.inf,
                        epsabs=QUAD_TOL, limit=200)
        val = complex(val)
    else:
        val, err = _quad_complex(integrand, 1.0, np.inf,
                                 epsabs=QUAD_TOL, limit=200)
    if err > 1e-7:
        raise QuadratureError(f"transform quadrature error {err:.2e} at lam={lam}")
    return math.pi * val


def _check_growth(h):
    # advisory: the continuation theorem needs |h(1+z^2)| = O(|1+z^2|^{-3/2-eps});
    # sample decay at two scales and warn when it looks too slow
    lo, hi = abs(complex(h(1.0 + 100.0 ** 2))), abs(complex(h(1.0 + 1000.0 ** 2)))
    if lo > 0 and hi > 0 and math.log(lo / hi) / math.log(10.0) < 1.9:
        warnings.warn("h decays slower than the admissibility hypothesis",
                      stacklevel=3)


def g_from_h(h: Callable[[complex], complex], x: float) -> float:
    """g(x) = (1/pi) int_0^inf h(1+t^2) cos(tx) dt for even real-valued h.

    Oscillatory weight quadrature with a decade-splitting fallback; the
    admissibility of h is checked only by sampling (advisory warning).
    """
    from scipy.integrate import quad
    _check_growth(h)
    x = abs(float(x))

    def f(t):
        return complex(h(1.0 + t * t)).real

    if x < 1e-12:
        val, err = quad(f, 0, np.inf, epsabs=QUAD_TOL, limit=200)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                val, err = quad(f, 0, np.inf, weight="cos", wvar=x, limlst=80)
            except Warning:
                val, err = _decade_split_cos(f, x)
    if err > 1e-7:
        raise QuadratureError(f"oscillatory quadrature error {err:.2e} at x={x}")
    return val / math.pi


def _decade_split_cos(f, x):
    """Fallback: finite cosine-weight panels with a geometric tail estimate."""
    from scipy.integrate import quad
    total = 0.0
    err = 0.0
    a = 0.0
    b = 10.0
    last = math.inf
    for _ in range(6):
        val, e = quad(lambda t: f(t) * math.cos(x * t), a, b,
                      epsabs=QUAD_TOL, limit=400)
        total += val
        err = max(err, e)
        last = abs(val)
        if last < QUAD_TOL:
            break
        a, b = b, 10.0 * b
    return total, max(err, last)


def resolvent_pair(s: float, B: float) -> TestFunctionTriple:
    """The rational test pair h(w) = 1/(s^2+w-1) - 1/(B^2+w-1), 1 < s < B.

    Its Fourier partner is g(x) = e^{-s|x|}/(2s) - e^{-B|x|}/(2B); the pair
    drives the resolvent form of the trace formula and the zeta-function
    log-derivative identities.
    """
    if not 1.0 < s < B:
        raise ValueError("need 1 < s < B")

    def h(w: complex) -> complex:
        return 1.0 / (s * s + w - 1.0) - 1.0 / (B * B + w - 1.0)

    def g(x: float) -> float:
        ax = abs(x)
        return math.exp(-s * ax) / (2.0 * s) - math.exp(-B * ax) / (2.0 * B)

    return TestFunctionTriple(h=h, g=g, k=None,
                              provenance={"h": "closed-form", "g": "closed-form",
                                          "k": "absent"})


def gaussian_kernel(a: float = 4.0) -> Callable[[float], float]:
    """Rapid-decay point-pair kernel exp(-a (delta-1)^2) for transform tests."""
    if a <= 0:
        raise ValueError("need a > 0")

    def k(delta: float) -> float:
        d = delta - 1.0
        return math.exp(-a * d * d)

    return k
