"""Digamma, log-gamma, trigamma and the one quadrature engine; numpy only.

The special functions shift the argument up by their recurrences until
Re z >= 10, then sum the Bernoulli asymptotic series (DLMF 5.11, 5.15.8).
Every integral of the package runs on QUADPACK's 7/15-point Gauss-Kronrod
panels (Piessens et al. 1983): integrate bisects them as QAGS does, without
its extrapolation; integrate_halfline maps (0, 1] onto [0, inf) by
t = (1-u)/u, as QAGI does; integrate_cos adds a cosine weight.  One round
is one call of the integrand on the nodes of all its panels, so integrands
must act elementwise on numpy arrays.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["QuadratureError", "QUAD_EPS", "digamma", "loggamma", "trigamma",
           "integrate", "integrate_halfline", "integrate_cos"]


class QuadratureError(RuntimeError):
    pass


# the one absolute/relative tolerance that the engine holds every integral
# of the package to
QUAD_EPS = {"epsabs": 1e-13, "epsrel": 1e-12}


# B_2, B_4, ..., B_16; at |w| >= 10 the first omitted term of each
# series is below 1e-17
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510)
_ASYMPTOTIC_FROM = 10.0


def _shift(x_min: float) -> int:
    """Recurrence steps that carry real parts >= x_min past the series
    bound."""
    return max(0, math.ceil(_ASYMPTOTIC_FROM - x_min))


def digamma(z):
    """psi(z), elementwise over complex z off the poles 0, -1, -2, ...

        psi(z) = psi(z + n) - sum_{k<n} 1/(z + k),
        psi(w) ~ log w - 1/(2w) - sum_k B_2k / (2k w^2k).

    Complex result.
    """
    z = np.asarray(z, dtype=complex)
    n = _shift(z.real.min()) if z.size else 0
    w = z + n
    inv = 1.0 / w
    inv_sq = inv * inv
    series = 0.0
    for k in range(len(_BERNOULLI), 0, -1):
        series = (series + _BERNOULLI[k - 1] / (2 * k)) * inv_sq
    value = np.log(w) - 0.5 * inv - series
    value -= np.sum(1.0 / (z[..., None] + np.arange(n)), axis=-1)
    return value[()]


def loggamma(z):
    """log Gamma(z) on the principal branch, elementwise over complex z off
    the poles 0, -1, -2, ...; complex result.

        log Gamma(z) = log Gamma(z + n) - sum_{k<n} log(z + k),
        log Gamma(w) ~ (w - 1/2) log w - w + log(2 pi)/2
                       + sum_k B_2k / (2k (2k-1) w^(2k-1)).
    """
    z = np.asarray(z, dtype=complex)
    n = _shift(z.real.min()) if z.size else 0
    w = z + n
    inv = 1.0 / w
    inv_sq = inv * inv
    series = 0.0
    for k in range(len(_BERNOULLI), 0, -1):
        series = series * inv_sq + _BERNOULLI[k - 1] / (2 * k * (2 * k - 1))
    value = ((w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi)
             + inv * series)
    value -= np.sum(np.log(z[..., None] + np.arange(n)), axis=-1)
    return value[()]


def trigamma(x):
    """psi'(x), elementwise over real x > 0:

        psi'(x) = psi'(x + n) + sum_{k<n} 1/(x + k)^2,
        psi'(w) ~ 1/w + 1/(2w^2) + sum_k B_2k / w^(2k+1).
    """
    x = np.asarray(x, dtype=float)
    n = _shift(x.min()) if x.size else 0
    inv = 1.0 / (x + n)
    inv_sq = inv * inv
    series = 0.0
    for b in reversed(_BERNOULLI):
        series = (series + b) * inv_sq
    value = inv + 0.5 * inv_sq + inv * series
    for k in range(n - 1, -1, -1):
        value = value + 1.0 / ((x + k) * (x + k))
    return value[()]


# QUADPACK qk15: Kronrod abscissae on [0, 1] (the Gauss ones are the odd
# entries), Kronrod weights, and the 7-point Gauss weights
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0,
       0.279705391489276667901467771423780, 0.0,
       0.381830050505118944950369775488975, 0.0,
       0.417959183673469387755102040816327)
# the 15 nodes mapped to [0, 1], and their Kronrod and Gauss weights
_UNIT = 0.5 + 0.5 * np.array([-x for x in _XGK[:-1]] + list(reversed(_XGK)))
_KRONROD = np.array(_WGK[:-1] + tuple(reversed(_WGK)))
_WEIGHTS = np.stack([_KRONROD, _WG[:-1] + tuple(reversed(_WG))], axis=1)
_EPS = float(np.finfo(float).eps)
# a round costs one call of f whatever its size, so the rule starts from
# eight equal panels where QAGI starts from one; bisection from one panel
# reaches them after three rounds on the geometric side's integrands
_FIRST_PANELS = 8
# panels before the adaptive rule gives up, as quad's limit
_MAX_PANELS = 300
# integrate_cos: half-periods of cos(x t) in its head, in its first block,
# and before it gives up
_HEAD_HALF_PERIODS = 4
_FIRST_BLOCK = 32
_MAX_HALF_PERIODS = 2 ** 16


def _panels(f, lo: list, hi: list) -> list:
    """(lo, hi, Kronrod value, QUADPACK error estimate) of each panel
    [lo, hi], from one call of f on all their nodes."""
    left = np.array(lo)
    width = np.array(hi) - left
    fx = np.asarray(f(left[:, None] + width[:, None] * _UNIT), dtype=float)
    sums = fx @ _WEIGHTS
    resabs = np.abs(fx) @ _KRONROD
    resasc = np.abs(fx - 0.5 * sums[:, :1]) @ _KRONROD
    out = []
    for a, b, half, (kronrod, gauss), ra, rs in zip(
            lo, hi, (0.5 * width).tolist(), sums.tolist(), resabs.tolist(),
            resasc.tolist()):
        err = abs(kronrod - gauss) * half
        rs *= half
        if rs > 0.0 and err > 0.0:
            err = rs * min(1.0, (200.0 * err / rs) ** 1.5)
        out.append((a, b, kronrod * half, max(err, 50.0 * _EPS * ra * half)))
    return out


def integrate(f, a: float, b: float) -> tuple:
    """(Integral_a^b f(t) dt, error estimate) for a real f, a < b finite.

    A round bisects every panel whose error estimate exceeds its width's
    share of the tolerance max(epsabs, epsrel |I|) of QUAD_EPS, and always
    the worst one; the rule stops when the summed estimate meets it.
    Raises QuadratureError on a non-finite value or when the panels would
    exceed _MAX_PANELS.
    """
    edges = [a + (b - a) * k / _FIRST_PANELS for k in range(_FIRST_PANELS + 1)]
    panels = _panels(f, edges[:-1], edges[1:])
    while True:
        total = math.fsum(p[2] for p in panels)
        error = math.fsum(p[3] for p in panels)
        if not (math.isfinite(total) and math.isfinite(error)):
            raise QuadratureError("non-finite integrand value")
        tol = max(QUAD_EPS["epsabs"], QUAD_EPS["epsrel"] * abs(total))
        if error <= tol:
            return total, error
        worst = max(panels, key=lambda p: p[3])
        keep, split = [], []
        for p in panels:
            (split if p[3] > tol * (p[1] - p[0]) / (b - a) or p is worst
             else keep).append(p)
        if len(panels) + len(split) > _MAX_PANELS:
            raise QuadratureError(
                f"quadrature error {error:.2e} > {tol:.2e} "
                f"after {len(panels)} panels")
        mid = [0.5 * (p[0] + p[1]) for p in split]
        panels = keep + _panels(f, [p[0] for p in split] + mid,
                                mid + [p[1] for p in split])


def integrate_halfline(f) -> tuple:
    """(Integral_0^inf f(t) dt, error estimate) for a real f that decays:
    integrate over u in (0, 1] with t = (1-u)/u, dt = du/u^2."""
    return integrate(lambda u: f((1.0 - u) / u) / (u * u), 0.0, 1.0)


def integrate_cos(f, x: float) -> tuple:
    """(Integral_0^inf f(t) cos(x t) dt, error estimate), x > 0, f real.

    The head [0, 4 pi/x] runs on integrate in v = log(1 + t), which gives
    each decade of t equal room, so neither f's unit scale nor the scale
    1/x of the cosine is lost however small x is; then one panel per
    half-period, in blocks of doubling size.  While the alternating panel
    values shrink convexly, the mean of the last two partial sums is within
    half the last decrease of the limit: the rule stops once the last three
    shrink so and that bound meets the tolerance.
    """
    half = math.pi / x
    a = _HEAD_HALF_PERIODS * half
    if math.isinf(a):        # subnormal x: cos(x t) = 1 for every finite t
        return integrate_halfline(f)

    def in_log(v):
        t = np.expm1(v)
        return f(t) * np.cos(x * t) * (t + 1.0)

    head, error = integrate(in_log, 0.0, math.log1p(a))
    tail = 0.0
    first, size = _HEAD_HALF_PERIODS, _FIRST_BLOCK
    while first + size <= _MAX_HALF_PERIODS:
        t = half * (np.arange(first, first + size)[:, None] + _UNIT)
        kronrod, gauss = (0.5 * half * (f(t) * np.cos(x * t)) @ _WEIGHTS).T
        tail += math.fsum(kronrod)
        error += float(np.abs(kronrod - gauss).sum())
        m0, m1, m2 = np.abs(kronrod[-3:]).tolist()
        value = head + tail - 0.5 * kronrod[-1]
        if not math.isfinite(value + error):
            raise QuadratureError("non-finite integrand value")
        if (m0 - m1 >= m1 - m2 >= 0.0
                and 0.5 * (m1 - m2) <= max(QUAD_EPS["epsabs"],
                                           QUAD_EPS["epsrel"] * abs(value))):
            return value, error + 0.5 * (m1 - m2)
        first += size
        size *= 2
    raise QuadratureError(f"cosine tail unsettled after {first} half-periods")
