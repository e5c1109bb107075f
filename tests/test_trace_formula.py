import cmath
import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from selberg3 import lattice_lfn
from selberg3.arithmetic_group import (EISENSTEIN_GROUP, PICARD,
                                       NonCuspidalEllipticClass)
from selberg3.lattice_lfn import kappa_lattice
from selberg3.representation import (CyclotomicValue, find_character,
                                     singular_spaces, trivial_rep)
from selberg3.trace_formula import (EULER_GAMMA, SpectralSideInputs,
                                    cosh_integral, cosh_integral_quad,
                                    cuspidal_elliptic_term,
                                    cuspidal_identity_check,
                                    digamma_halfplane_value,
                                    digamma_poisson_integral,
                                    digamma_reflection_series,
                                    exact_cyclotomic_trace, geometric_side,
                                    identity_term, loxodromic_term, nce_term,
                                    parabolic_term)
from selberg3.zeta import geometric_blocks

OMEGA = cmath.exp(2j * math.pi / 3)

# picard_data / eisenstein_data / triple fixtures come from conftest.py.


# -- cosh integral ----------------------------------------------------------

class TestCoshIntegral:
    def test_series_vs_quadrature_grid(self):
        start = time.time()
        for s in (1.5, 2.0, 3.0):
            for t in (math.pi / 2, 2 * math.pi / 3, math.pi):
                a = cosh_integral(s, t)
                b = cosh_integral_quad(s, t)
                assert abs(a - b) <= 1e-8, (s, t, a, b)
        assert time.time() - start < 5.0

    def test_positive_decreasing_in_s(self):
        vals = [cosh_integral(s, 2 * math.pi / 3) for s in (1.0, 2.0, 4.0)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_complex_s(self):
        s = 2.0 + 0.5j
        a = cosh_integral(s, 2 * math.pi / 3)
        b = cosh_integral_quad(s, 2 * math.pi / 3)
        assert abs(a - b) < 1e-8

    def test_complex_s_at_pi(self):
        s = 1.5 + 0.25j
        assert abs(cosh_integral(s, math.pi)
                   - cosh_integral_quad(s, math.pi)) < 1e-8

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cosh_integral(2.0, 0.0)
        with pytest.raises(ValueError):
            cosh_integral(2.0, 3.5)
        with pytest.raises(ValueError):
            cosh_integral(-1.0, math.pi)


# -- identity term ----------------------------------------------------------

class TestIdentityTerm:
    def test_change_of_variables(self, triple):
        a = identity_term(triple.h, PICARD.volume, 1, route="direct")
        b = identity_term(triple.h, PICARD.volume, 1, route="substitution")
        assert abs(a - b) < 1e-10

    def test_resolvent_closed_form(self, triple):
        # integral of t^2 (1/(s^2+t^2) - 1/(B^2+t^2)) over R is pi (B - s)
        want = PICARD.volume * 1 / (4.0 * math.pi) * (3.0 - 2.0)
        got = identity_term(triple.h, PICARD.volume, 1)
        assert abs(got - want) < 1e-12

    def test_scales_with_dim(self, triple):
        one = identity_term(triple.h, PICARD.volume, 1)
        three = identity_term(triple.h, PICARD.volume, 3)
        assert abs(three - 3 * one) < 1e-14

    def test_unknown_route(self, triple):
        with pytest.raises(ValueError):
            identity_term(triple.h, 1.0, 1, route="nope")


# -- digamma integral forms -------------------------------------------------

class TestDigammaForms:
    @pytest.mark.parametrize("s", [0.3, 0.7, 1.5, 2.0])
    def test_quadrature_equals_shifted_digamma(self, s):
        assert abs(digamma_poisson_integral(s)
                   - digamma_halfplane_value(s).real) < 1e-9

    @pytest.mark.parametrize("s", [0.3, 0.7, 1.5, 2.6])
    def test_reflected_form_offset(self, s):
        # the reflected partial-fraction form moves every negative-integer
        # residue from -1 to +1: the two continuations differ by exactly
        # 2 (pi cot(pi s) - 1/s), and agree nowhere except half-integers
        gap = (digamma_reflection_series(s)
               - digamma_halfplane_value(s).real)
        want = 2.0 * (math.pi / math.tan(math.pi * s) - 1.0 / s)
        assert abs(gap - want) < 1e-9

    def test_partial_sum_converges_to_closed_form(self):
        s = 0.7
        closed = digamma_reflection_series(s)
        partial = digamma_reflection_series(s, terms=200000)
        assert abs(partial - closed) < 1e-4

    def test_integer_pole_raises(self):
        with pytest.raises(ValueError):
            digamma_reflection_series(2.0)


# -- non-cuspidal elliptic term ---------------------------------------------

class TestNceTerm:
    def test_picard_closed_form(self, picard_data, triple):
        chi = trivial_rep(PICARD.ring)
        g0 = triple.g(0.0)
        got = nce_term(g0, picard_data.non_cuspidal_elliptic, chi)
        # single order-3 torsion class: m = 3, sin^2 = 3/4, N0 = 7 + 4 sqrt 3
        want = g0 * math.log(7 + 4 * math.sqrt(3)) / (4 * 3 * 0.75)
        assert abs(got - want) < 1e-12

    def test_eisenstein_closed_form(self, eisenstein_data, triple):
        chi = trivial_rep(EISENSTEIN_GROUP.ring)
        g0 = triple.g(0.0)
        got = nce_term(g0, eisenstein_data.non_cuspidal_elliptic, chi)
        want = g0 * math.log(7 + 4 * math.sqrt(3)) / (4 * 2 * 1.0)
        assert abs(got - want) < 1e-12

    def test_missing_axis_norm_warns(self, picard_data, triple):
        chi = trivial_rep(PICARD.ring)
        cls = picard_data.non_cuspidal_elliptic[0]
        broken = NonCuspidalEllipticClass(
            representative=cls.representative,
            order_primitive=cls.order_primitive, sin_sq=cls.sin_sq,
            N0=None, axis=cls.axis)
        with pytest.warns(UserWarning):
            got = nce_term(triple.g(0.0), [cls, broken], chi)
        full = nce_term(triple.g(0.0), [cls], chi)
        assert got == full


# -- loxodromic term --------------------------------------------------------

class TestLoxodromicTerm:
    def test_truncation_within_tail_estimate(self, picard_data, triple):
        chi = trivial_rep(PICARD.ring)
        lo = loxodromic_term(triple.g, picard_data.loxodromic, chi, 7.0)
        hi = loxodromic_term(triple.g, picard_data.loxodromic, chi, 14.0)
        assert abs(hi.value - lo.value) <= lo.tail_estimate
        assert hi.tail_estimate < lo.tail_estimate

    def test_real_for_trivial_character(self, eisenstein_data, triple):
        chi = trivial_rep(EISENSTEIN_GROUP.ring)
        out = loxodromic_term(triple.g, eisenstein_data.loxodromic, chi, 14.0)
        assert abs(out.value.imag) < 1e-12
        assert out.value.real > 0
        assert out.terms_used > len(eisenstein_data.loxodromic)

    def test_sign_character_changes_value(self, picard_data, triple):
        chi0 = trivial_rep(PICARD.ring)
        chi1 = find_character(PICARD, (1, 1), -1, -1, 1)
        a = loxodromic_term(triple.g, picard_data.loxodromic, chi0, 14.0)
        b = loxodromic_term(triple.g, picard_data.loxodromic, chi1, 14.0)
        assert abs(a.value - b.value) > 1e-3


# -- cuspidal elliptic term -------------------------------------------------

class TestCuspidalElliptic:
    @pytest.mark.parametrize("group_key", ["picard", "eisenstein"])
    def test_quad_vs_series_routes(self, group_key, picard_data,
                                   eisenstein_data, triple):
        gd = picard_data if group_key == "picard" else eisenstein_data
        chi = trivial_rep(gd.group.ring)
        a = cuspidal_elliptic_term(triple.g, gd.cuspidal_elliptic, chi, 5.0,
                                   route="quad")
        b = cuspidal_elliptic_term(triple.g, gd.cuspidal_elliptic, chi, 5.0,
                                   route="series", s_B=(2.0, 3.0))
        assert abs(a - b) < 1e-10

    def test_sign_character_routes(self, picard_data, triple):
        chi = find_character(PICARD, (1, 1), -1, -1, 1)
        a = cuspidal_elliptic_term(triple.g, picard_data.cuspidal_elliptic,
                                   chi, 5.0, route="quad")
        b = cuspidal_elliptic_term(triple.g, picard_data.cuspidal_elliptic,
                                   chi, 5.0, route="series", s_B=(2.0, 3.0))
        assert abs(a - b) < 1e-10

    def test_log_A_slope(self, picard_data, triple):
        # d/d(log A) = 2 g(0) sum tr chi / (|C| |1-eps^2|^2)
        chi = trivial_rep(PICARD.ring)
        g0 = triple.g(0.0)
        a5 = cuspidal_elliptic_term(triple.g, picard_data.cuspidal_elliptic,
                                    chi, 5.0)
        ae5 = cuspidal_elliptic_term(triple.g, picard_data.cuspidal_elliptic,
                                     chi, 5.0 * math.e)
        weight = sum(1.0 / (c.centralizer_order * c.one_minus_eps_sq_norm)
                     for c in picard_data.cuspidal_elliptic)
        assert abs((ae5 - a5) - 2.0 * g0 * weight) < 1e-14

    def test_invalid_inputs(self, picard_data, triple):
        chi = trivial_rep(PICARD.ring)
        with pytest.raises(ValueError):
            cuspidal_elliptic_term(triple.g, picard_data.cuspidal_elliptic,
                                   chi, -1.0)
        with pytest.raises(ValueError):
            cuspidal_elliptic_term(triple.g, picard_data.cuspidal_elliptic,
                                   chi, 5.0, route="series")


# -- parabolic term ---------------------------------------------------------

class TestParabolicTerm:
    def test_log_A_slope(self, triple):
        g0 = triple.g(0.0)
        a = parabolic_term(triple.h, g0, 2, 1, 0.8, [], 5.0)
        b = parabolic_term(triple.h, g0, 2, 1, 0.8, [], 5.0 * math.e)
        assert abs((b - a) - g0 * (1 / 2)) < 1e-14

    def test_l_values_enter_linearly(self, triple):
        g0 = triple.g(0.0)
        base = parabolic_term(triple.h, g0, 2, 1, 0.8, [], 5.0)
        with_l = parabolic_term(triple.h, g0, 2, 1, 0.8, [0.25, -0.1], 5.0)
        assert abs((with_l - base) - g0 * 0.15 / 2) < 1e-14

    def test_invalid_A(self, triple):
        with pytest.raises(ValueError):
            parabolic_term(triple.h, 0.1, 1, 1, 0.8, [], 0.0)


# -- exact cuspidal-elliptic identity ---------------------------------------

class TestCuspidalIdentity:
    CASES = [
        ("picard", None),
        ("picard", ((1, 1), -1, -1, 1)),
        ("eisenstein", None),
        ("eisenstein", ((1, 2), OMEGA, OMEGA, 1)),
    ]

    @pytest.mark.parametrize("group_key,char_spec", CASES)
    def test_residual_exactly_zero(self, group_key, char_spec, picard_data,
                                   eisenstein_data):
        gd = picard_data if group_key == "picard" else eisenstein_data
        if char_spec is None:
            chi = trivial_rep(gd.group.ring)
        else:
            chi = find_character(gd.group, *char_spec)
        sing = singular_spaces(chi, gd.stabilizer)
        res = cuspidal_identity_check(gd.cuspidal_elliptic, chi,
                                      sing.k_infinity, sing.l_infinity,
                                      gd.group.index)
        assert res.is_zero
        assert res.a == 0 and res.b == 0

    def test_wrong_k_gives_nonzero(self, picard_data):
        chi = trivial_rep(PICARD.ring)
        res = cuspidal_identity_check(picard_data.cuspidal_elliptic, chi,
                                      2, 1, PICARD.index)
        assert not res.is_zero
        assert res.rational_part() == -1

    def test_exact_trace_snapping(self):
        class Stub:
            def exact_trace(self, g):
                return None

            def trace(self, g):
                return complex(-0.5, math.sqrt(3) / 2)  # omega itself

        val = exact_cyclotomic_trace(Stub(), None)
        assert val == CyclotomicValue(Fraction(0), Fraction(1))

    def test_unrecognizable_trace_raises(self):
        class Stub:
            def exact_trace(self, g):
                return None

            def trace(self, g):
                return complex(0.3, 0.41)

        with pytest.raises(ValueError):
            exact_cyclotomic_trace(Stub(), None)


# -- spectral-side input validation -----------------------------------------

class TestSpectralInputs:
    def test_parity_accepts_matching(self):
        SpectralSideInputs(trS0=1.0).validate_parity(1)
        SpectralSideInputs(trS0=-1.0).validate_parity(3)
        SpectralSideInputs(trS0=0.0).validate_parity(0)

    def test_parity_rejects_mismatch(self):
        with pytest.raises(ValueError):
            SpectralSideInputs(trS0=0.0).validate_parity(1)
        with pytest.raises(ValueError):
            SpectralSideInputs(trS0=3.0).validate_parity(1)
        with pytest.raises(ValueError):
            SpectralSideInputs(trS0=0.5).validate_parity(0)


# -- assembled geometric side -----------------------------------------------

class TestGeometricSide:
    @pytest.mark.parametrize("group_key", ["picard", "eisenstein"])
    def test_logA_coefficient_is_g0_k(self, group_key, picard_data,
                                      eisenstein_data, triple):
        gd = picard_data if group_key == "picard" else eisenstein_data
        chi = trivial_rep(gd.group.ring)
        rep = geometric_side(triple, gd, chi, A=5.0, norm_bound=14.0)
        assert abs(rep.logA_coefficient - rep.expected_logA_coefficient) < 1e-9
        assert abs(rep.expected_logA_coefficient - triple.g(0.0)) < 1e-15

    def test_finite_part_independent_of_A(self, picard_data, triple):
        chi = trivial_rep(PICARD.ring)
        r1 = geometric_side(triple, picard_data, chi, A=5.0, norm_bound=14.0)
        r2 = geometric_side(triple, picard_data, chi, A=11.0, norm_bound=14.0)
        assert abs(r1.finite_part - r2.finite_part) < 1e-9

    def test_total_matches_parts(self, picard_data, triple):
        chi = trivial_rep(PICARD.ring)
        rep = geometric_side(triple, picard_data, chi, A=5.0, norm_bound=14.0)
        parts = (rep.identity_term + rep.nce_term + rep.loxodromic_term
                 + rep.cuspidal_elliptic_term + rep.parabolic_term)
        assert rep.total == parts
        assert abs(rep.finite_part
                   - (parts - rep.logA_coefficient * math.log(5.0))) < 1e-15

    def test_series_route_agrees(self, picard_data, triple):
        chi = trivial_rep(PICARD.ring)
        a = geometric_side(triple, picard_data, chi, A=5.0, norm_bound=14.0)
        b = geometric_side(triple, picard_data, chi, A=5.0, norm_bound=14.0,
                           ce_route="series", s_B=(2.0, 3.0))
        assert abs(a.total - b.total) < 1e-10

    def test_kappa_fitted_once_per_lattice(self, monkeypatch, picard_data,
                                           triple):
        calls = []
        inner = lattice_lfn.ladder_sums

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(lattice_lfn, "ladder_sums", counted)
        kappa_lattice.cache_clear()
        chi = trivial_rep(PICARD.ring)
        first = geometric_side(triple, picard_data, chi, A=5.0,
                               norm_bound=14.0)
        assert len(calls) == 1
        geometric_blocks(picard_data, chi)
        again = geometric_side(triple, picard_data, chi, A=5.0,
                               norm_bound=14.0)
        assert len(calls) == 1
        assert again.finite_part == first.finite_part

    def test_nan_log_A_coefficient_raises(self, picard_data, triple):
        def g(r):
            return math.nan if r == 0.0 else triple.g(r)

        with pytest.raises(RuntimeError, match="cusp cancellation"):
            geometric_side(dataclasses.replace(triple, g=g), picard_data,
                           trivial_rep(PICARD.ring), A=5.0, norm_bound=14.0)
