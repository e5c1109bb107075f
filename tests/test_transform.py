"""Transform pair identities against closed forms."""
import math

import numpy as np
import pytest

from selberg3.transform import (
    TestFunctionTriple,
    g_from_h,
    gaussian_kernel,
    resolvent_pair,
    shc_h_from_k,
)


class TestResolventPair:
    def test_closed_form_values(self):
        pair = resolvent_pair(2.0, 3.0)
        assert pair.h(1.0) == pytest.approx(5.0 / 36.0, abs=1e-15)
        assert pair.g(0.0) == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert pair.k is None

    def test_parameter_order(self):
        with pytest.raises(ValueError):
            resolvent_pair(3.0, 2.0)
        with pytest.raises(ValueError):
            resolvent_pair(0.5, 3.0)

    def test_g0_identity(self):
        assert resolvent_pair(2.0, 3.0).g0_consistency() < 1e-12

    def test_rational_decay(self):
        pair = resolvent_pair(2.0, 3.0)
        # h(1+t^2) ~ (B^2 - s^2)/t^4 for large t; well inside admissibility
        t = 500.0
        ratio = pair.h(1.0 + t * t) * t ** 4
        assert ratio == pytest.approx(9.0 - 4.0, rel=1e-3)


class TestFourier:
    def test_matches_exponential_closed_form(self):
        # x = 1e-9 and 1e-6 once returned about 0 without a warning
        for s, big in ((2.0, 3.0), (1.05, 1.4)):
            pair = resolvent_pair(s, big)
            for x in (0.0, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0):
                assert abs(g_from_h(pair.h, x) - pair.g(x)) < 1e-10, (s, x)

    @pytest.mark.parametrize("x", [1e-200, 1e-300])
    def test_tiny_x(self, x):
        # the cosine rule reaches t beyond 1e154 here: t * t overflowed
        pair = resolvent_pair(2.0, 3.0)
        assert abs(g_from_h(pair.h, x) - pair.g(x)) <= 8e-15

    def test_even_in_x(self):
        pair = resolvent_pair(2.0, 3.0)
        assert g_from_h(pair.h, 1.3) == g_from_h(pair.h, -1.3)

    def test_growth_warning_for_slow_decay(self):
        with pytest.warns(UserWarning, match="admissibility"):
            try:
                g_from_h(lambda w: (1.0 + abs(w)) ** -0.6, 1.0)
            except RuntimeError:
                pass  # divergent quadrature may follow the warning


class TestSelbergTransform:
    def test_zero_kernel(self):
        assert shc_h_from_k(lambda d: 0.0, 0.5) == 0

    def test_linearity(self):
        k1, k2 = gaussian_kernel(4.0), gaussian_kernel(9.0)
        lam = -0.7
        lhs = shc_h_from_k(lambda d: k1(d) + k2(d), lam)
        rhs = shc_h_from_k(k1, lam) + shc_h_from_k(k2, lam)
        assert abs(lhs - rhs) < 1e-12

    def test_zero_s_limit_is_continuous(self):
        k = gaussian_kernel(4.0)
        assert abs(shc_h_from_k(k, 1.0) - shc_h_from_k(k, 1.0 - 1e-10)) < 1e-8

    def test_complex_lambda_is_analytic(self):
        # h is analytic in lam, so h(lam + i eps) = h(lam) + i eps h'(lam)
        # + O(eps^2): the imaginary part matches the real-axis slope
        k, lam, eps = gaussian_kernel(4.0), -0.7, 1e-3
        slope = (shc_h_from_k(k, lam + eps)
                 - shc_h_from_k(k, lam - eps)).real / (2.0 * eps)
        z = shc_h_from_k(k, lam + 1j * eps)
        assert abs(z.imag - eps * slope) <= 1e-10
        assert abs(z.real - shc_h_from_k(k, lam).real) <= eps * eps

    def test_real_lambda_gives_real_value(self):
        k = gaussian_kernel(4.0)
        assert shc_h_from_k(k, 1.0 - 4.0).imag == 0.0

    def test_gaussian_dual_route_g0(self):
        # g(0) from the derived h must match 2 pi int_1^inf k(delta) d delta,
        # which for the Gaussian kernel is pi sqrt(pi/a)
        a = 4.0
        k = gaussian_kernel(a)
        closed = math.pi * math.sqrt(math.pi / a)
        # h is itself a quadrature per eigenvalue: apply it elementwise
        h = np.vectorize(lambda w: shc_h_from_k(k, w).real)
        trip = TestFunctionTriple(h=h, g=lambda x: closed, k=k)
        assert trip.g0_consistency(upper=40.0) < 1e-8

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            gaussian_kernel(-1.0)
