"""Selberg-Harish-Chandra transform, the h -> g Fourier pair, and test pairs.

The transform of a point-pair kernel k is

    h(1 - s^2) = (pi/s) int_1^inf k((t + 1/t)/2) (t^s - t^{-s}) (t - 1/t) dt/t,

and g is the Fourier transform g(x) = (1/2 pi) int h(1 + t^2) e^{-itx} dt.
Everything here is plain quadrature on selberg3.quadrature: the half-line
rule for the transform and g(0), the cosine rule for g.  The only
subtleties are the s = 0 limit of the Selberg integrand and the
oscillatory weight for g.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import (QuadratureError, integrate, integrate_cos,
                         integrate_halfline)


@dataclass(frozen=True)
class TestFunctionTriple:
    """A compatible (k, h, g) family; members may be closed-form or derived.

    h is a function of the eigenvalue w = 1 - s^2; g is even on R; k acts
    on the point-pair distance delta >= 1.  Every quadrature that reads h
    or g (the geometric side, g0_consistency, g_from_h) calls them on numpy
    arrays of abscissae, and the loxodromic term calls g once on all its
    lengths, so they must act elementwise on arrays as well as on scalars.
    """

    __test__ = False  # not a pytest test class despite the name

    h: Callable[[complex], complex]
    g: Callable[[float], float]
    k: Optional[Callable[[float], float]] = None

    def g0_consistency(self, upper: float = np.inf) -> float:
        """|g(0) - (1/2 pi) int h(1+t^2) dt|; small for a genuine pair.

        A finite upper limit accommodates h members that are themselves
        quadratures and cannot be evaluated at enormous eigenvalues.
        """
        def f(t):
            return np.real(self.h(1.0 + t * t))

        val, err = (integrate_halfline(f) if upper == np.inf
                    else integrate(f, 0.0, upper))
        if err > 1e-7:
            raise QuadratureError(f"g(0) cross-check quadrature error {err:.2e}")
        return abs(val / math.pi - self.g(0.0))


def shc_h_from_k(k: Callable[[float], float], lam: complex) -> complex:
    """Transform value h(lam) at eigenvalue lam = 1 - s^2, Re s >= 0.

    k must act elementwise on numpy arrays.  The factor (t^s - t^{-s})/s is
    evaluated as 2 sinh(s log t)/s, which passes smoothly through the s = 0
    limit 2 log t with no cancellation.  The half-line rule runs over
    u = t - 1, once for a real s and once per part for a complex one.
    """
    s = cmath.sqrt(1.0 - lam)

    def integrand(u):
        t = 1.0 + u
        log_t = np.log1p(u)
        stretched = 2.0 * log_t if s == 0 else 2.0 * np.sinh(s * log_t) / s
        return k((t + 1.0 / t) / 2.0) * stretched * (t - 1.0 / t) / t

    val, err = integrate_halfline(lambda u: np.real(integrand(u)))
    if s.imag != 0:
        im, im_err = integrate_halfline(lambda u: np.imag(integrand(u)))
        val, err = complex(val, im), max(err, im_err)
    if err > 1e-7:
        raise QuadratureError(f"transform quadrature error {err:.2e} at lam={lam}")
    return math.pi * complex(val)


def _check_growth(h):
    # advisory: the continuation theorem needs |h(1+z^2)| = O(|1+z^2|^{-3/2-eps});
    # sample decay at two scales and warn when it looks too slow
    lo, hi = abs(complex(h(1.0 + 100.0 ** 2))), abs(complex(h(1.0 + 1000.0 ** 2)))
    if lo > 0 and hi > 0 and math.log(lo / hi) / math.log(10.0) < 1.9:
        warnings.warn("h decays slower than the admissibility hypothesis",
                      stacklevel=3)


def g_from_h(h: Callable[[complex], complex], x: float) -> float:
    """g(x) = (1/pi) int_0^inf h(1+t^2) cos(tx) dt for even real-valued h.

    h must act elementwise on numpy arrays.  The cosine rule of
    quadrature.integrate_cos for x != 0, the half-line rule at x = 0; the
    admissibility of h is checked only by sampling (advisory warning).
    """
    _check_growth(h)
    x = abs(float(x))

    def f(t):
        # x < 1e-150 reaches t * t = inf: h's limit, or non-finite and caught
        with np.errstate(over="ignore"):
            return np.real(h(1.0 + t * t))

    val, err = integrate_cos(f, x) if x else integrate_halfline(f)
    if err > 1e-7:
        raise QuadratureError(f"oscillatory quadrature error {err:.2e} at x={x}")
    return val / math.pi


def resolvent_pair(s: float, B: float) -> TestFunctionTriple:
    """The rational test pair h(w) = 1/(s^2+w-1) - 1/(B^2+w-1), 1 < s < B.

    Its Fourier partner is g(x) = e^{-s|x|}/(2s) - e^{-B|x|}/(2B); the pair
    drives the resolvent form of the trace formula and the zeta-function
    log-derivative identities.
    """
    if not 1.0 < s < B:
        raise ValueError("need 1 < s < B")

    def h(w: complex) -> complex:
        # one quotient (the difference of the two resolvents cancels to an
        # absolute 1e-16), by two divisions (a product would overflow)
        return (B * B - s * s) / (s * s + w - 1.0) / (B * B + w - 1.0)

    def g(x):
        ax = np.abs(x)
        return np.exp(-s * ax) / (2.0 * s) - np.exp(-B * ax) / (2.0 * B)

    return TestFunctionTriple(h=h, g=g, k=None)


def gaussian_kernel(a: float = 4.0) -> Callable[[float], float]:
    """Rapid-decay point-pair kernel exp(-a (delta-1)^2) for transform tests;
    it acts elementwise on numpy arrays."""
    if a <= 0:
        raise ValueError("need a > 0")

    def k(delta):
        d = delta - 1.0
        return np.exp(-a * d * d)

    return k
