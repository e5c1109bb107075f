import cmath
import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from selberg3 import lattice_lfn, trace_formula
from selberg3.arithmetic_group import (EISENSTEIN_GROUP, PICARD,
                                       NonCuspidalEllipticClass)
from selberg3.lattice_lfn import kappa_lattice
from selberg3.quadrature import QUAD_EPS, digamma
from selberg3.representation import (CyclotomicValue, UnitaryRep,
                                     direct_sum, find_character,
                                     singular_spaces, trivial_rep)
from selberg3.trace_formula import (EULER_GAMMA, SpectralSideInputs,
                                    XiBlocks, cosh_integral,
                                    cosh_integral_quad,
                                    cuspidal_elliptic_term,
                                    cuspidal_identity_check, geometric_blocks,
                                    geometric_side, identity_term,
                                    loxodromic_term, nce_term,
                                    parabolic_term)
from selberg3.transform import resolvent_pair

from numerical_oracle import snapped_cyclotomic_trace

OMEGA = cmath.exp(2j * math.pi / 3)

# picard_data / eisenstein_data / triple fixtures come from conftest.py.


# -- cosh integral ----------------------------------------------------------

def _mpmath_cosh_integral(s, t):
    """The integral by mpmath quadrature at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        sm = mpmath.mpmathify(s)
        c = mpmath.cos(mpmath.mpf(t))
        return complex(mpmath.quad(
            lambda x: mpmath.exp(-sm * x) * mpmath.sinh(x)
            / (mpmath.cosh(x) - c), [0, 1, 4, 16, 64, mpmath.inf]))


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
        # the closed form needs t = 2 pi p/q; t = 1 is no such angle
        with pytest.raises(ValueError, match="torsion angle"):
            cosh_integral(2.0, 1.0)

    @pytest.mark.parametrize("t", [math.pi / 3, math.pi / 2, 2 * math.pi / 3,
                                   5 * math.pi / 6, math.pi])
    @pytest.mark.parametrize("s", [1.0, 1.1, 2.0, 6.0, 2 + 0.5j, 1.2 - 3j])
    def test_closed_form_against_mpmath(self, s, t):
        assert abs(cosh_integral(s, t) - _mpmath_cosh_integral(s, t)) <= 1e-13

    def test_quadrature_oracle_at_pi(self):
        """At this s (spectral_eval seed 11) quad at scipy's default
        absolute tolerance missed the integral by 1.8e-8."""
        s = 1.4324783493959072
        assert abs(cosh_integral_quad(s, math.pi)
                   - _mpmath_cosh_integral(s, math.pi)) <= 1e-12


# -- identity term ----------------------------------------------------------

class TestIdentityTerm:
    def test_change_of_variables(self, triple):
        a, _ = identity_term(triple.h, PICARD.volume, 1, route="direct")
        b, _ = identity_term(triple.h, PICARD.volume, 1,
                             route="substitution")
        assert abs(a - b) < 1e-10

    def test_resolvent_closed_form(self, triple):
        # integral of t^2 (1/(s^2+t^2) - 1/(B^2+t^2)) over R is pi (B - s)
        want = PICARD.volume * 1 / (4.0 * math.pi) * (3.0 - 2.0)
        got, err = identity_term(triple.h, PICARD.volume, 1)
        assert abs(got - want) < 1e-12
        assert 0.0 < err < 1e-12

    @pytest.mark.parametrize("group", [PICARD, EISENSTEIN_GROUP],
                             ids=["picard", "eisenstein"])
    def test_closed_form_within_estimate(self, group):
        # as a difference of two resolvents, h cancelled to a noise that
        # left Picard's value 5.9e-15 off with an estimate of 4.7e-16
        s, big = 1.4324260309580783, 3.1682903188596496
        got, err = identity_term(resolvent_pair(s, big).h, group.volume, 1)
        assert abs(got - group.volume * (big - s) / (4.0 * math.pi)) <= err

    def test_scales_with_dim(self, triple):
        one, _ = identity_term(triple.h, PICARD.volume, 1)
        three, _ = identity_term(triple.h, PICARD.volume, 3)
        assert abs(three - 3 * one) < 1e-14

    def test_unknown_route(self, triple):
        with pytest.raises(ValueError):
            identity_term(triple.h, 1.0, 1, route="nope")


# -- digamma integral forms -------------------------------------------------

def digamma_poisson_integral(s: float) -> float:
    """(1/2pi) Integral_R 2s/(s^2+w^2) psi(1+iw) dw by scipy's quad and
    digamma, Re s > 0: an oracle independent of selberg3.quadrature.

    Equals psi(1+s); the odd imaginary part of psi(1+iw) integrates to zero.
    """
    from scipy.integrate import quad
    from scipy.special import digamma
    val, _ = quad(lambda w: (2.0 * s / (s * s + w * w))
                  * digamma(complex(1.0, w)).real,
                  0.0, np.inf, limit=300, **QUAD_EPS)
    return 2.0 * val / (2.0 * math.pi)


class TestDigammaForms:
    @pytest.mark.parametrize("s", [0.3, 0.7, 1.5, 2.0])
    def test_quadrature_equals_shifted_digamma(self, s):
        assert abs(digamma_poisson_integral(s)
                   - digamma(1.0 + s).real) < 1e-9


# -- non-cuspidal elliptic term ---------------------------------------------

class TestNceTerm:
    def test_picard_closed_form(self, picard_data, triple):
        chi = trivial_rep(PICARD.ring)
        g0 = triple.g(0.0)
        got = g0 * nce_term(picard_data.non_cuspidal_elliptic, chi)
        # single order-3 torsion class: m = 3, sin^2 = 3/4, N0 = 7 + 4 sqrt 3
        want = g0 * math.log(7 + 4 * math.sqrt(3)) / (4 * 3 * 0.75)
        assert abs(got - want) < 1e-12

    def test_eisenstein_closed_form(self, eisenstein_data, triple):
        chi = trivial_rep(EISENSTEIN_GROUP.ring)
        g0 = triple.g(0.0)
        got = g0 * nce_term(eisenstein_data.non_cuspidal_elliptic, chi)
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
            got = triple.g(0.0) * nce_term([cls, broken], chi)
        full = triple.g(0.0) * nce_term([cls], chi)
        assert got == full


# -- loxodromic term --------------------------------------------------------

def _loxodromic_loop(g, classes, chi, norm_bound):
    """(value, tail, terms) term by term, one class, power and rotation at
    a time: the reference for the flat length-spectrum sum."""
    total, tail, used = 0j, 0.0, 0
    for cls in classes:
        u = chi(cls.T0)
        w = np.eye(chi.dim) if cls.E_T is None else chi(cls.E_T)
        log_n0, n = math.log(cls.N0), 1
        while cls.N0 ** n <= norm_bound:
            for v in range(1, cls.m + 1):
                a = cls.zeta0 ** v * cls.a0 ** n
                tr = np.trace(np.linalg.matrix_power(u, n)
                              @ np.linalg.matrix_power(w, v))
                total += (tr * g(n * log_n0) * log_n0
                          / (cls.m * abs(a - 1 / a) ** 2))
                used += 1
            n += 1
        for k in range(n, n + 60):
            norm = cls.N0 ** k
            env = (chi.dim * abs(g(math.log(norm))) * log_n0
                   / (norm * (1 - 1 / norm) ** 2))
            tail += env
            if env < 1e-18:
                break
    return total, tail, used


class TestLoxodromicTerm:
    @pytest.mark.parametrize("group_key,char_spec", [
        ("picard", None), ("picard", "sign"), ("picard", "trivial+sign"),
        ("eisenstein", None), ("eisenstein", "cube")])
    @pytest.mark.parametrize("norm_bound", [3.0, 7.0, 14.0])
    def test_matches_term_by_term_loop(self, group_key, char_spec,
                                       norm_bound, picard_data,
                                       eisenstein_data, triple):
        gd = picard_data if group_key == "picard" else eisenstein_data
        trivial = trivial_rep(gd.group.ring)
        sign = find_character(PICARD, (1, 1), -1, -1, 1)
        chi = {None: trivial, "sign": sign,
               "trivial+sign": direct_sum([trivial, sign]),
               "cube": find_character(EISENSTEIN_GROUP, (1, 2), OMEGA, OMEGA,
                                      1)}[char_spec]
        out = loxodromic_term(triple.g, gd.loxodromic, chi, norm_bound)
        value, tail, used = _loxodromic_loop(triple.g, gd.loxodromic, chi,
                                             norm_bound)
        assert out.terms_used == used
        assert abs(out.value - value) <= 1e-15
        assert out.tail_estimate == pytest.approx(tail, rel=1e-14)

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

    @pytest.mark.parametrize("group_key", ["picard", "eisenstein"])
    def test_two_calls_of_g(self, group_key, picard_data, eisenstein_data,
                            triple):
        # one call on every length, one on the tail grid; never one per term
        gd = picard_data if group_key == "picard" else eisenstein_data
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return triple.g(x)

        out = loxodromic_term(counted, gd.loxodromic,
                              trivial_rep(gd.group.ring), 14.0)
        assert len(calls) <= 2
        assert calls[0] == (out.terms_used,)


# -- cuspidal elliptic term -------------------------------------------------

class TestCuspidalElliptic:
    @pytest.mark.parametrize("fixture,char_spec", [
        ("picard_data", None),
        ("picard_data", ((1, 1), -1, -1, 1)),
        ("eisenstein_data", None),
        ("eisenstein_data", ((1, 2), OMEGA, OMEGA, 1)),
    ])
    def test_quadrature_against_series(self, fixture, char_spec, request,
                                       triple):
        # for the resolvent pair I_i = I(s, t_i)/(2s) - I(B, t_i)/(2B)
        gd = request.getfixturevalue(fixture)
        chi = (trivial_rep(gd.group.ring) if char_spec is None
               else find_character(gd.group, *char_spec))
        blocks = geometric_blocks(gd, chi)
        constant, _, err = cuspidal_elliptic_term(triple.g, blocks)
        series = triple.g(0.0) * blocks.log_c_sum + sum(
            w * (cosh_integral(2.0, t) / 4.0 - cosh_integral(3.0, t) / 6.0)
            for w, t in blocks.ce_weights)
        assert abs(constant - series) < 1e-10
        assert 0.0 < err < 1e-12

    @pytest.mark.parametrize("group_key", ["picard", "eisenstein"])
    def test_log_A_coefficient_from_class_data(self, group_key, picard_data,
                                               eisenstein_data, triple):
        # d/d(log A) = 2 g(0) sum tr chi / (|C| |1-eps^2|^2)
        gd = picard_data if group_key == "picard" else eisenstein_data
        blocks = geometric_blocks(gd, trivial_rep(gd.group.ring))
        _, coef, _ = cuspidal_elliptic_term(triple.g, blocks)
        weight = sum(1.0 / (c.centralizer_order * c.one_minus_eps_sq_norm)
                     for c in gd.cuspidal_elliptic)
        assert abs(coef - 2.0 * triple.g(0.0) * weight) < 1e-14


# -- parabolic term ---------------------------------------------------------

class TestParabolicTerm:
    BLOCKS = XiBlocks(index=2, k_infinity=1, l_infinity=1, vol=1.0, dim_v=1,
                      nce_constant=0j, log_c_sum=0j, cusp_constant=0.4 + 0j,
                      ce_weights=())

    def test_log_A_coefficient(self, triple):
        g0 = triple.g(0.0)
        _, coef, _ = parabolic_term(triple.h, g0, self.BLOCKS)
        assert abs(coef - g0 * (1 / 2)) < 1e-14

    @pytest.mark.parametrize("s,big", [(2.0, 3.0), (1.4324260309580783,
                                                  3.1682903188596496)])
    def test_digamma_integral_closed_form(self, s, big):
        # (1/2pi) Integral_R 2s/(s^2+t^2) psi(1+it) dt = psi(1+s), so for
        # the resolvent pair the integral is psi(1+s)/2s - psi(1+B)/2B
        pair = resolvent_pair(s, big)
        g0 = pair.g(0.0)
        got, _, err = parabolic_term(pair.h, g0, self.BLOCKS)
        closed = (digamma(1.0 + s) / (2.0 * s)
                  - digamma(1.0 + big) / (2.0 * big))
        want = 0.5 * (pair.h(1.0) / 4.0 - closed) + g0 * 0.4
        assert abs(got - want) <= 1e-13
        assert 0.0 < err <= 1e-12

    def test_cusp_constant_enters_linearly(self, triple):
        g0 = triple.g(0.0)
        base, _, _ = parabolic_term(triple.h, g0, self.BLOCKS)
        shifted, _, _ = parabolic_term(
            triple.h, g0,
            dataclasses.replace(self.BLOCKS, cusp_constant=0.55 + 0j))
        assert abs((shifted - base) - g0 * 0.15) < 1e-14


# -- exact cuspidal-elliptic identity ---------------------------------------

def identity_rep(group_key, name, request):
    """The named representation of the group: trivial, trivial(3), sign,
    cube, s3 (the S3 table representation), or a "+"-joined sum."""
    if "+" in name:
        return direct_sum([identity_rep(group_key, part, request)
                           for part in name.split("+")])
    ring = (PICARD if group_key == "picard" else EISENSTEIN_GROUP).ring
    if name.startswith("trivial"):
        return trivial_rep(ring, 3 if name == "trivial(3)" else 1)
    if name == "s3":
        return request.getfixturevalue("s3_table_rep")
    return {"sign": lambda: find_character(PICARD, (1, 1), -1, -1, 1),
            "cube": lambda: find_character(EISENSTEIN_GROUP, (1, 2), OMEGA,
                                           OMEGA, 1)}[name]()


class TestCuspidalIdentity:
    CASES = [
        ("picard", "trivial"),
        ("picard", "sign"),
        ("eisenstein", "trivial"),
        ("eisenstein", "cube"),
        ("picard", "s3"),
        ("picard", "trivial+sign"),
        ("picard", "s3+trivial"),
        ("picard", "trivial(3)"),
        ("eisenstein", "trivial(3)"),
        ("eisenstein", "trivial+cube"),
    ]

    @pytest.mark.parametrize("group_key,rep_name", CASES)
    def test_residual_exactly_zero(self, group_key, rep_name, picard_data,
                                   eisenstein_data, request):
        gd = picard_data if group_key == "picard" else eisenstein_data
        chi = identity_rep(group_key, rep_name, request)
        sing = singular_spaces(chi, gd.stabilizer)
        res = cuspidal_identity_check(gd.cuspidal_elliptic, chi,
                                      sing.k_infinity, sing.l_infinity,
                                      gd.group.index)
        assert res.is_zero
        assert res.a == 0 and res.b == 0

    @pytest.mark.parametrize("group_key,rep_name", CASES)
    def test_traces_equal_the_float_snap(self, group_key, rep_name,
                                         picard_data, eisenstein_data,
                                         request):
        """On every cuspidal class at h6/N14, the trace read from the
        eigen-angles (the residual of that class alone, k = l = 0, over its
        weight) is the float trace snapped into Q(omega)."""
        gd = picard_data if group_key == "picard" else eisenstein_data
        chi = identity_rep(group_key, rep_name, request)
        assert gd.cuspidal_elliptic
        for cls in gd.cuspidal_elliptic:
            weight = Fraction(2, cls.centralizer_order
                              * cls.one_minus_eps_sq_norm)
            res = cuspidal_identity_check([cls], chi, 0, 0, 1)
            assert (res * (1 / weight)
                    == snapped_cyclotomic_trace(chi, cls.representative))

    def test_wrong_k_gives_nonzero(self, picard_data):
        chi = trivial_rep(PICARD.ring)
        res = cuspidal_identity_check(picard_data.cuspidal_elliptic, chi,
                                      2, 1, PICARD.index)
        assert not res.is_zero
        assert res == CyclotomicValue.from_rational(-1)

    def test_angle_of_order_five_raises(self, picard_data):
        chi = UnitaryRep(1, lambda M: np.array([[cmath.exp(0.4j * math.pi)]]))
        with pytest.raises(ValueError, match="eigen-angle 1/5"):
            cuspidal_identity_check(picard_data.cuspidal_elliptic, chi,
                                    0, 0, PICARD.index)

    def test_image_of_infinite_order_raises(self, picard_data):
        chi = UnitaryRep(1, lambda M: np.array([[cmath.exp(0.3j)]]))
        with pytest.raises(ValueError, match="no finite order"):
            cuspidal_identity_check(picard_data.cuspidal_elliptic, chi,
                                    0, 0, PICARD.index)

    @pytest.mark.parametrize("k,l,index", [(1, 1, 1), (1, 1, 2), (0, 3, 3)])
    def test_no_classes_gives_cusp_part(self, k, l, index):
        res = cuspidal_identity_check([], trivial_rep(PICARD.ring, 3), k, l,
                                      index)
        assert res == CyclotomicValue.from_rational(Fraction(l, index) - k)


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

    @pytest.mark.parametrize("group_key", ["picard", "eisenstein"])
    def test_quadrature_error_estimates(self, group_key, picard_data,
                                        eisenstein_data, triple):
        # each term's half-line quadrature reports its error estimate,
        # scaled to the term, next to the loxodromic tail
        gd = picard_data if group_key == "picard" else eisenstein_data
        chi = trivial_rep(gd.group.ring)
        rep = geometric_side(triple, gd, chi, A=5.0, norm_bound=14.0)
        blocks = geometric_blocks(gd, chi)
        assert rep.errors == {
            "loxodromic_tail": rep.loxodromic_tail,
            "identity_quadrature": identity_term(
                triple.h, blocks.vol, blocks.dim_v)[1],
            "cuspidal_elliptic_quadrature": cuspidal_elliptic_term(
                triple.g, blocks)[2],
            "parabolic_quadrature": parabolic_term(
                triple.h, triple.g(0.0), blocks)[2],
        }
        for key in ("identity", "cuspidal_elliptic", "parabolic"):
            assert 0.0 < rep.errors[key + "_quadrature"] <= 1e-12

    def test_total_matches_parts(self, picard_data, triple):
        chi = trivial_rep(PICARD.ring)
        rep = geometric_side(triple, picard_data, chi, A=5.0, norm_bound=14.0)
        parts = (rep.identity_term + rep.nce_term + rep.loxodromic_term
                 + rep.cuspidal_elliptic_term + rep.parabolic_term)
        assert rep.total == parts
        assert abs(rep.finite_part
                   - (parts - rep.logA_coefficient * math.log(5.0))) < 1e-15

    @pytest.mark.parametrize("A", [0.0, -1.0])
    def test_invalid_A(self, A, picard_data, triple):
        with pytest.raises(ValueError, match="A must be positive"):
            geometric_side(triple, picard_data, trivial_rep(PICARD.ring),
                           A=A, norm_bound=14.0)

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

    @pytest.mark.parametrize("group_key", ["picard", "eisenstein"])
    def test_one_quadrature_per_term(self, group_key, monkeypatch,
                                     picard_data, eisenstein_data, triple):
        # identity, one I_i per cuspidal elliptic class, and the digamma
        # integral: each A-free quadrature runs once per call
        gd = picard_data if group_key == "picard" else eisenstein_data
        chi = trivial_rep(gd.group.ring)
        calls = []
        inner = trace_formula.integrate_halfline

        def counted(*args, **kwargs):
            calls.append(args[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(trace_formula, "integrate_halfline", counted)
        geometric_side(triple, gd, chi, A=5.0, norm_bound=14.0)
        assert len(calls) == 1 + len(gd.cuspidal_elliptic) + 1

    @pytest.mark.parametrize("group_key", ["picard", "eisenstein"])
    def test_dropped_class_breaks_cancellation(self, group_key, picard_data,
                                               eisenstein_data, triple):
        # the log A coefficient comes from the class weights, so a class
        # list missing one class cannot cancel to g(0) k_infinity
        gd = picard_data if group_key == "picard" else eisenstein_data
        short = dataclasses.replace(
            gd, cuspidal_elliptic=gd.cuspidal_elliptic[1:])
        with pytest.raises(RuntimeError, match="cusp cancellation"):
            geometric_side(triple, short, trivial_rep(gd.group.ring), A=5.0,
                           norm_bound=14.0)

    def test_nan_log_A_coefficient_raises(self, picard_data, triple):
        def g(r):
            return np.where(r == 0.0, math.nan, triple.g(r))

        with pytest.raises(RuntimeError, match="cusp cancellation"):
            geometric_side(dataclasses.replace(triple, g=g), picard_data,
                           trivial_rep(PICARD.ring), A=5.0, norm_bound=14.0)
