"""The numpy digamma, log-gamma and trigamma, and the quadrature rules,
against mpmath and closed forms."""
import math

import numpy as np
import pytest

from selberg3.quadrature import (digamma, integrate, integrate_cos,
                                 integrate_halfline, loggamma, trigamma)
from selberg3.transform import QuadratureError

# (s, B) resolvent pairs at which scipy's default tolerances once left
# pair errors of 1.6e-9 and 3.1e-10 (see test_zeta)
PAIRS = [(1.4324260309580783, 3.1682903188596496),
         (2.607411457430315, 4.8300273640385125)]
# cos t of the cuspidal elliptic angles pi/3, pi/2, 2 pi/3, pi
COS_T = [0.5, 0.0, -0.5, -1.0]


@pytest.fixture(scope="module")
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


# -- digamma and trigamma ---------------------------------------------------

def _digamma_grid():
    grid = [complex(x, y) for x in (1e-8, 1e-3, 0.1, 0.5, 1.0, 1.4616, 9.5,
                                    10.0, 40.0)
            for y in (0.0, 1e-3, 0.5, -3.0, 40.0, -250.0, 1e3, -1e3)]
    # the arguments (r + s +- 1)/q of cosh_integral's closed form
    for s in (1.0, 1.1, 2.0, 6.0, 2 + 0.5j, 1.2 - 3j, *PAIRS[0], *PAIRS[1]):
        for q in range(2, 13):
            for r in range(1, q):
                grid += [(r + s + 1.0) / q, (r + s - 1.0) / q]
    return grid


def test_digamma_against_mpmath(mp):
    grid = _digamma_grid()
    got = digamma(np.array(grid))
    for z, value in zip(grid, got):
        want = complex(mp.digamma(mp.mpc(z.real, z.imag)))
        assert abs(value - want) <= 1e-14 * max(1.0, abs(want)), z


def test_digamma_scalar_and_shape():
    assert np.ndim(digamma(2.0)) == 0
    assert abs(digamma(1.0) + 0.57721566490153286) <= 2e-16
    assert digamma(np.ones((3, 4))).shape == (3, 4)


def test_loggamma_against_mpmath(mp):
    """Principal branch, on and off the cut, and at the arguments 1 -+ s of
    the functional-equation factor's Gamma ratio."""
    grid = [complex(x, y) for x in (-7.5, -1.5, -0.5, 1e-8, 1e-3, 0.5, 1.0,
                                    1.4616, 2.0, 9.5, 10.0, 40.0, 300.0)
            for y in (0.0, 1e-3, 0.5, -3.0, 40.0, -250.0, 1e3)]
    grid += [1.0 + sign * s for s in (0.25, 0.5, 2.5, 1 + 2j, 0.3 - 4j)
             for sign in (1.0, -1.0)]
    got = loggamma(np.array(grid))
    for z, value in zip(grid, got):
        want = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        assert abs(value - want) <= 1e-14 * max(1.0, abs(want)), z
    assert np.ndim(loggamma(2.0)) == 0


@pytest.mark.parametrize("x", [0.01, 0.25, 1 / 3, 2 / 3, 0.75, 1.0, 7.5,
                               12.0])
def test_trigamma_against_mpmath(mp, x):
    want = float(mp.psi(1, mp.mpf(x)))
    assert abs(trigamma(x) - want) <= 1e-15 * want


# -- the half-line rule -----------------------------------------------------

def _h(s, big):
    return lambda w: 1.0 / (s * s + w - 1.0) - 1.0 / (big * big + w - 1.0)


def _g(s, big):
    return lambda x: (np.exp(-s * x) / (2.0 * s)
                      - np.exp(-big * x) / (2.0 * big))


def _mp_quad(mp, f):
    return float(mp.quad(f, [0, 0.5, 1, 2, 4, 8, 16, 64, mp.inf]))


@pytest.mark.parametrize("s,big", PAIRS)
def test_identity_integrand(mp, s, big):
    """Integral_0^inf h(1+t^2) t^2 dt = pi (B - s)/2, with h(1+t^2) t^2
    written without the difference of the two resolvents."""
    got, err = integrate_halfline(
        lambda t: t * t * (big * big - s * s)
        / ((s * s + t * t) * (big * big + t * t)))
    assert abs(got - float(mp.pi * (mp.mpf(big) - s) / 2)) <= 1e-13
    assert err <= 1e-12 * abs(got)


@pytest.mark.parametrize("s,big", PAIRS)
def test_identity_integrand_as_a_difference(mp, s, big):
    """As identity_term evaluates it, h(1+t^2) t^2 is a difference of two
    terms near 1 at large t, so it carries an absolute noise of about 1e-16
    that does not decay; scipy's quad lands 3.8e-13 and 4.4e-15 off at these
    pairs, and so does this rule."""
    h = _h(s, big)
    got, _ = integrate_halfline(lambda t: h(1.0 + t * t) * t * t)
    assert abs(got - float(mp.pi * (mp.mpf(big) - s) / 2)) <= 1e-12


@pytest.mark.parametrize("cos_t", COS_T)
@pytest.mark.parametrize("s,big", PAIRS)
def test_cuspidal_elliptic_integrand(mp, s, big, cos_t):
    g = _g(s, big)

    def f(x):
        e = np.exp(-x)   # sinh x / (cosh x - cos t), free of overflow
        return g(x) * (1.0 - e * e) / (1.0 + e * e - 2.0 * cos_t * e)

    got, _ = integrate_halfline(f)
    want = _mp_quad(mp, lambda x: (mp.exp(-s * x) / (2 * s)
                                   - mp.exp(-big * x) / (2 * big))
                    * mp.sinh(x) / (mp.cosh(x) - cos_t))
    assert abs(got - want) <= 1e-13


@pytest.mark.parametrize("s,big", PAIRS)
def test_parabolic_integrand(mp, s, big):
    """In t, and in u = sqrt(t) as parabolic_term integrates it."""
    want = _mp_quad(mp, lambda t: (1 / (s * s + t * t)
                                   - 1 / (big * big + t * t))
                    * mp.re(mp.digamma(1 + 1j * t)))
    h = _h(s, big)
    in_t, _ = integrate_halfline(
        lambda t: h(1.0 + t * t) * digamma(1.0 + 1j * t).real)
    in_u, _ = integrate_halfline(
        lambda u: 2.0 * u * h(1.0 + u ** 4) * digamma(1.0 + 1j * u * u).real)
    assert abs(in_t - want) <= 1e-13
    assert abs(in_u - want) <= 1e-13


@pytest.mark.parametrize("s,big", PAIRS)
def test_rounds_are_vectorized(s, big):
    """Each round is one call of the integrand on all its panels' nodes,
    and the geometric side's integrands converge in at most three rounds."""
    h, g = _h(s, big), _g(s, big)
    integrands = [
        lambda t: h(1.0 + t * t) * t * t,
        lambda u: 2.0 * u * h(1.0 + u ** 4) * digamma(1.0 + 1j * u * u).real,
        *[lambda x, c=c: g(x) * (1.0 - np.exp(-2.0 * x))
          / (1.0 + np.exp(-2.0 * x) - 2.0 * c * np.exp(-x)) for c in COS_T]]
    for f in integrands:
        sizes = []

        def counted(t, f=f):
            sizes.append(t.size)
            return f(t)

        integrate_halfline(counted)
        assert 1 <= len(sizes) <= 3
        assert sizes[0] == 8 * 15 and all(n % 30 == 0 for n in sizes[1:])


def test_finite_interval():
    """The finite rule alone, against closed forms."""
    got, err = integrate(np.exp, -1.0, 2.0)
    assert abs(got - (math.exp(2.0) - math.exp(-1.0))) <= 1e-14
    assert err <= 1e-12 * got
    got, _ = integrate(lambda t: np.sqrt(t), 0.0, 4.0)
    assert abs(got - 16.0 / 3.0) <= 1e-12


# f and its cosine transform Integral_0^inf f(t) cos(x t) dt
COSINE_PAIRS = {
    # entire, with a transform that vanishes to round-off at large x
    "gaussian": (lambda t: np.exp(-t * t),
                 lambda x: 0.5 * math.sqrt(math.pi) * math.exp(-x * x / 4.0)),
    # a t^-2 tail: at small x the cosine turns only where f/t^2 is still
    # large, and the tail runs thousands of half-periods
    "lorentzian": (lambda t: 1.0 / (1.0 + t * t),
                   lambda x: 0.5 * math.pi * math.exp(-x)),
}


@pytest.mark.parametrize("x", [1e-9, 1e-4, 0.3, 3.0, 30.0, 300.0])
@pytest.mark.parametrize("name", sorted(COSINE_PAIRS))
def test_cosine_rule_against_closed_forms(name, x):
    f, transform = COSINE_PAIRS[name]
    got, err = integrate_cos(f, x)
    assert abs(got - transform(x)) <= max(err, 1e-14) <= 1e-11


def test_divergent_integrand_raises():
    # Integral_0^inf dt/(1+t) diverges logarithmically
    with pytest.raises(QuadratureError, match="quadrature error .* after"):
        integrate_halfline(lambda t: 1.0 / (1.0 + t))


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_halfline(lambda t: np.where(t > 1.0, math.nan, 1.0))
