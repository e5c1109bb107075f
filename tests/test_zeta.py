import cmath
import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from selberg3.arithmetic_group import EISENSTEIN_GROUP, PICARD
from selberg3.cli import _divisor_rows, _render_csv_rows
from selberg3.quadrature import digamma
from selberg3.representation import (UnitaryRep, direct_sum, find_character,
                                     singular_spaces, trivial_rep)
from selberg3.trace_formula import (SpectralSideInputs, geometric_side,
                                    loxodromic_term)
from selberg3.transform import resolvent_pair
from selberg3.zeta import (FACTOR_TOL, DivisorRecord, XiBlocks,
                           ZetaClassData, _euler_factors,
                           _selection_residue, abel_product_log,
                           build_zeta_class_data, central_difference_check,
                           functional_factor_psi, geometric_blocks,
                           log_derivative_series, log_zeta_truncated,
                           meromorphy_order, meromorphy_report,
                           spectral_divisor, topological_divisor,
                           xi_log_derivative, zeta_tail_bound, zeta_truncated)

OMEGA = cmath.exp(2j * math.pi / 3)


@pytest.fixture(scope="module")
def picard_zeta(picard_data):
    chi = trivial_rep(PICARD.ring)
    return build_zeta_class_data(picard_data.loxodromic, chi)


@pytest.fixture(scope="module")
def eisenstein_zeta(eisenstein_data):
    chi = trivial_rep(EISENSTEIN_GROUP.ring)
    return build_zeta_class_data(eisenstein_data.loxodromic, chi)


def _char(group_name, char_name):
    if char_name is None:
        ring = PICARD.ring if group_name == "picard" else EISENSTEIN_GROUP.ring
        return trivial_rep(ring)
    if char_name == "sign":
        return find_character(PICARD, (1, 1), -1, -1, 1)
    return find_character(EISENSTEIN_GROUP, (1, 2), OMEGA, OMEGA, 1)


def _loop_cutoff(n0, s_real):
    return max(0, int(math.log(1.0 / FACTOR_TOL) / math.log(n0)
                      - s_real - 1.0))


def _loop_factors(zcd, s, kl_cutoff):
    """Reference selection: x for every slot j, total k + l up to the
    cutoff and l with (l - k - r_j) = 0 mod m, one factor at a time in
    Python complex arithmetic, t_j multiplying the a0 powers' product."""
    a0, n0 = zcd.cls.a0, zcd.cls.N0
    cutoff = kl_cutoff if kl_cutoff is not None else _loop_cutoff(n0, s.real)
    base = n0 ** (-s - 1.0)
    for t_j, r in zip(zcd.t_eigen, zcd.residues):
        for total in range(cutoff + 1):
            for l in range(total + 1):
                k = total - l
                if (l - k - r) % zcd.m == 0:
                    yield (t_j * (a0 ** (-2 * k) * a0.conjugate() ** (-2 * l))
                           * base)


CHARACTERS = [("picard", None), ("picard", "sign"), ("picard", "trivial+sign"),
              ("eisenstein", None), ("eisenstein", "cube"),
              ("eisenstein", "trivial+cube")]


def _assert_matches_loop(data, s, cutoff):
    x, log_n0 = _euler_factors(complex(s), data, cutoff)
    got = sorted(zip(x.tolist(), log_n0.tolist()),
                 key=lambda p: (p[0].real, p[0].imag, p[1]))
    want = sorted(((v, math.log(z.cls.N0)) for z in data
                   for v in _loop_factors(z, complex(s), cutoff)),
                  key=lambda p: (p[0].real, p[0].imag, p[1]))
    assert len(got) == len(want)
    for (a, la), (b, lb) in zip(got, want):
        assert abs(a - b) <= 1e-15 * abs(b)
        assert la == lb


def _char_data(request, group_name, char_name):
    gd = request.getfixturevalue(f"{group_name}_data")
    if char_name is not None and "+" in char_name:
        chi = direct_sum([_char(group_name, None),
                          _char(group_name, char_name.split("+")[1])])
    else:
        chi = _char(group_name, char_name)
    return build_zeta_class_data(gd.loxodromic, chi)


# -- class data and the exact c = 1 selection -------------------------------

class TestClassData:
    def test_shapes_and_torsion_free_defaults(self, picard_zeta):
        for zcd in picard_zeta:
            n = len(zcd.t_eigen)
            assert len(zcd.t_prime_eigen) == n
            assert len(zcd.residues) == n
            if zcd.cls.E_T is None:
                assert zcd.m == 1
                assert zcd.t_prime_eigen == (1.0 + 0.0j,) * n
                assert zcd.residues == (0,) * n

    def test_torsion_classes_present(self, picard_zeta, eisenstein_zeta):
        # one axis per group carries nontrivial torsion at this ball size;
        # the selection tests below rely on them being here
        assert any(z.m == 3 for z in picard_zeta)
        assert any(z.m == 2 for z in eisenstein_zeta)

    def test_unimodularity_enforced(self, picard_data):
        class Doubler:
            def __call__(self, M):
                return np.eye(1, dtype=complex) * 2.0

        free = [c for c in picard_data.loxodromic if c.E_T is None]
        with pytest.raises(ValueError, match="non-unimodular"):
            build_zeta_class_data(free[:1], UnitaryRep(1, Doubler()))

    def test_unrecognizable_torsion_eigenvalue(self, eisenstein_data):
        torsion = [c for c in eisenstein_data.loxodromic if c.E_T is not None]
        assert torsion
        key = torsion[0].E_T.key()

        class Drifter:
            def __call__(self, M):
                if M.key() == key:
                    return np.array([[cmath.exp(0.3j)]])
                return np.eye(1, dtype=complex)

        with pytest.raises(ValueError, match="root of unity"):
            build_zeta_class_data(torsion[:1], UnitaryRep(1, Drifter()))


class TestSelection:
    @pytest.mark.parametrize("group_name,char_name", [
        ("picard", None), ("picard", "sign"),
        ("eisenstein", None), ("eisenstein", "cube"),
    ])
    def test_exhaustive_period(self, group_name, char_name, request):
        """Over one full torsion period of (l, k) pairs, membership in the
        factor set coincides with the numeric c = 1 condition, and each
        eigenvector slot selects exactly 4m pairs."""
        gd = request.getfixturevalue(f"{group_name}_data")
        data = build_zeta_class_data(gd.loxodromic, _char(group_name,
                                                          char_name))
        checked = 0
        for zcd in data:
            if zcd.m == 1:
                continue
            m, zeta0 = zcd.m, zcd.cls.zeta0
            for tp, r in zip(zcd.t_prime_eigen, zcd.residues):
                count = 0
                for l in range(2 * m):
                    for k in range(2 * m):
                        exact = (l - k - r) % m == 0
                        c = tp * zeta0 ** (2 * (l - k))
                        numeric = abs(c - 1.0) < 1e-9
                        assert exact == numeric
                        count += exact
                assert count == 4 * m
                checked += 1
        assert checked >= 1

    def test_nonzero_residue_numeric_consistency(self):
        # alpha = 1/3, theta = 1/6: c = e^{2 pi i (1/3 + r/3)} = 1 at r = 2
        m = 3
        r = _selection_residue(Fraction(1, 3), Fraction(1, 6), m)
        assert r == 2
        tp = cmath.exp(2j * math.pi / 3)
        zeta0 = cmath.exp(2j * math.pi / 6)
        hits = [(l, k) for l in range(2 * m) for k in range(2 * m)
                if abs(tp * zeta0 ** (2 * (l - k)) - 1.0) < 1e-9]
        assert len(hits) == 4 * m
        assert all((l - k - r) % m == 0 for l, k in hits)

    def test_no_solution_rejected(self):
        with pytest.raises(ValueError, match="0 solutions"):
            _selection_residue(Fraction(1, 2), Fraction(1, 3), 3)

    def test_multiple_solutions_rejected(self):
        with pytest.raises(ValueError, match="2 solutions"):
            _selection_residue(Fraction(0), Fraction(1, 2), 2)


# -- Euler product ----------------------------------------------------------

class TestEulerProduct:
    @pytest.mark.parametrize("s", [2.0, 1.000001])
    def test_factor_modulus_strictly_below_one(self, s, picard_zeta,
                                               eisenstein_zeta):
        for data in (picard_zeta, eisenstein_zeta):
            x, _ = _euler_factors(complex(s), data, 6)
            assert len(x) > 0
            assert np.all(np.abs(x) < 1.0)

    @pytest.mark.parametrize("group_name,char_name", CHARACTERS)
    def test_factors_match_per_factor_loop(self, group_name, char_name,
                                           request):
        """The record selects the loop's factors, no more and no fewer,
        with the loop's values, at the automatic and explicit cutoffs."""
        data = _char_data(request, group_name, char_name)
        for s in (1.05, 2.0, 2.3 + 0.5j):
            for cutoff in (None, 0, 5, 40):
                _assert_matches_loop(data, s, cutoff)

    def test_selection_orientation(self, picard_zeta):
        """Every residue above has r = -r mod m, so swapping k and l would
        select the same factors; residue 1 on the m = 3 class does not."""
        data = [dataclasses.replace(z, residues=(1,)) for z in picard_zeta
                if z.m == 3]
        assert data
        for cutoff in (None, 5):
            _assert_matches_loop(data, 2.0, cutoff)

    def test_auto_cutoff_matches_log_rule(self, picard_zeta, eisenstein_zeta):
        """On a one-slot class with m = 1 the factor count is
        (K + 1)(K + 2)/2, which fixes the cutoff K the record used."""
        for zcd in picard_zeta + eisenstein_zeta:
            one = ZetaClassData(cls=SimpleNamespace(N0=zcd.cls.N0,
                                                    a0=zcd.cls.a0, m=1),
                                t_eigen=(1.0 + 0.0j,),
                                t_prime_eigen=(1.0 + 0.0j,), residues=(0,))
            for s in np.linspace(1.001, 4.999, 41):
                x, _ = _euler_factors(complex(s), [one], None)
                cutoff = _loop_cutoff(zcd.cls.N0, s)
                assert len(x) == (cutoff + 1) * (cutoff + 2) // 2

    @pytest.mark.parametrize("group_name", ["picard", "eisenstein"])
    def test_real_character_values_are_real(self, group_name, request):
        """A real representation at real s (values +-1, or the real S3
        table, whose eigenvalues are the conjugate pair omega, omega^2 on
        some classes): the factors pair off as exact conjugates, so both
        imaginary parts are exactly zero."""
        gd = request.getfixturevalue(f"{group_name}_data")
        chars = [_char(group_name, None)]
        if group_name == "picard":
            chars += [_char("picard", "sign"),
                      request.getfixturevalue("s3_table_rep")]
        for chi in chars:
            data = build_zeta_class_data(gd.loxodromic, chi)
            for s in (1.05, 2.0, 2.5, 3.7):
                assert zeta_truncated(s, data).imag == 0.0
                assert log_derivative_series(s, data,
                                             route="factors").imag == 0.0

    def test_half_plane_required(self, picard_zeta):
        for s in (1.0, 0.5, 1.0 + 5.0j):
            with pytest.raises(ValueError, match="Re"):
                log_zeta_truncated(s, picard_zeta)
            with pytest.raises(ValueError, match="Re"):
                log_derivative_series(s, picard_zeta)

    def test_zeta_is_exp_of_log(self, picard_zeta):
        s = 2.2
        z = zeta_truncated(s, picard_zeta, kl_cutoff=5)
        lz = log_zeta_truncated(s, picard_zeta, kl_cutoff=5)
        assert abs(z - cmath.exp(lz)) <= 1e-14 * abs(z)

    def test_cutoff_stability(self, picard_zeta):
        auto = log_zeta_truncated(2.0, picard_zeta)
        wide = log_zeta_truncated(2.0, picard_zeta, kl_cutoff=40)
        assert abs(auto - wide) <= 1e-12

    def test_tail_bound_dominates_refinement(self, eisenstein_zeta):
        s = 2.0
        lo = log_zeta_truncated(s, eisenstein_zeta, kl_cutoff=2)
        hi = log_zeta_truncated(s, eisenstein_zeta, kl_cutoff=12)
        bound = zeta_tail_bound(s, eisenstein_zeta, 2)
        assert abs(hi - lo) <= bound
        terms = sum(2.0 * len(z.t_eigen) * (total + 1)
                    * z.cls.N0 ** -(total + s + 1.0)
                    for z in eisenstein_zeta for total in range(3, 400))
        assert bound == pytest.approx(terms, rel=1e-13)
        assert zeta_tail_bound(s, eisenstein_zeta, 8) < bound

    def test_empty_data(self):
        assert log_zeta_truncated(2.0, []) == 0
        assert zeta_truncated(2.0, []) == 1
        assert log_derivative_series(2.0, [], route="classes") == 0
        assert log_derivative_series(2.0, [], route="factors") == 0


# -- log-derivative ---------------------------------------------------------

class TestLogDerivative:
    @pytest.mark.parametrize("s", [2.0, 2.3 + 0.5j])
    def test_routes_agree(self, s, picard_zeta, eisenstein_zeta):
        for data in (picard_zeta, eisenstein_zeta):
            a = log_derivative_series(s, data, route="classes")
            b = log_derivative_series(s, data, route="factors")
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    @pytest.mark.parametrize("group_name,char_name", [
        ("picard", "sign"), ("eisenstein", "cube"),
    ])
    def test_routes_agree_nontrivial_character(self, group_name, char_name,
                                               request):
        gd = request.getfixturevalue(f"{group_name}_data")
        data = build_zeta_class_data(gd.loxodromic,
                                     _char(group_name, char_name))
        a = log_derivative_series(2.0, data, route="classes")
        b = log_derivative_series(2.0, data, route="factors")
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    @pytest.mark.parametrize("group_name", ["picard", "eisenstein"])
    def test_factors_route_correctly_rounded(self, group_name, request):
        """The factors route is the rounded exact sum of the loop's terms
        x log N0/(1 - x); a sequential sum was 2.7e-15 (Picard) and 1.7e-15
        (Eisenstein) off at s = 2.5."""
        mpmath = pytest.importorskip("mpmath")
        data = _char_data(request, group_name, None)
        s = 2.5
        terms = [x * math.log(z.cls.N0) / (1.0 - x) for z in data
                 for x in _loop_factors(z, complex(s), None)]
        got = log_derivative_series(s, data, route="factors")
        with mpmath.workprec(2200):  # any sum of doubles, exactly
            exact_re = float(mpmath.fsum(mpmath.mpf(t.real) for t in terms))
            exact_im = float(mpmath.fsum(mpmath.mpf(t.imag) for t in terms))
        assert abs(got.real - exact_re) <= 2e-16
        assert abs(got.imag - exact_im) <= 2e-16

    def test_modulus_decreasing_in_s(self, picard_zeta):
        vals = [abs(log_derivative_series(s, picard_zeta, route="factors"))
                for s in (2.0, 3.0, 4.0)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_unknown_route(self, picard_zeta):
        with pytest.raises(ValueError, match="route"):
            log_derivative_series(2.0, picard_zeta, route="weights")

    # s = 1.00005 lies within 2 step of s = 1: the stencil shrinks its step
    @pytest.mark.parametrize("s", [2.0, 2.5, 1.00005])
    def test_central_difference(self, s, picard_zeta):
        check = central_difference_check(s, picard_zeta)
        assert check.relative_error <= 1e-6
        assert check.s == complex(s)
        assert abs(check.series) > 0

    def test_central_difference_near_a_zero(self, eisenstein_data):
        """Z'/Z for eisenstein/cube crosses zero near s = 1.5595, so at
        this s (spectral_eval seed 12) the second-order stencil over the
        np.log1p sum missed by 1.56e-6 relative (1.3e-10 absolute)."""
        data = build_zeta_class_data(eisenstein_data.loxodromic,
                                     _char("eisenstein", "cube"))
        check = central_difference_check(1.554738455438198, data)
        assert abs(check.central_difference - check.series) <= 1e-11
        assert check.relative_error <= 1e-6

    @pytest.mark.parametrize("group_name,char_name", [
        ("picard", None), ("picard", "sign"),
        ("eisenstein", None), ("eisenstein", "cube"),
    ])
    def test_central_difference_shares_one_grid(self, group_name, char_name,
                                                request):
        """One factor grid at the lowest point's cutoffs serves the whole
        stencil: the check equals, bit for bit, separate log Z calls at
        s +- step and s +- 2 step and the factor route at s.  The sweep
        holds random s, s with s - 1 < 4 step (the step shrinks), and the s
        at which some class's cutoff drops inside the stencil."""
        data = _char_data(request, group_name, char_name)
        step = 1e-4
        jumps = sorted({math.log(1.0 / FACTOR_TOL) / math.log(z.cls.N0)
                        - 1.0 - n for z in data for n in range(40)})
        jumps = [s for s in jumps if 1.1 < s < 4.0][::7]
        sweep = ([1.00005, 1.0002, 1.00039]
                 + np.random.default_rng(31).uniform(1.0, 4.0, 50).tolist()
                 + jumps)
        assert any(_loop_cutoff(z.cls.N0, s - 2.0 * step)
                   != _loop_cutoff(z.cls.N0, s + 2.0 * step)
                   for s in jumps for z in data)

        def bits(z):
            return np.array([z]).tobytes()

        for s in sweep:
            h = min(step, (s - 1.0) / 4.0)
            up, down, up2, down2 = (log_zeta_truncated(s + k * h, data)
                                    for k in (1.0, -1.0, 2.0, -2.0))
            diff = (8.0 * (up - down) - (up2 - down2)) / (12.0 * h)
            check = central_difference_check(s, data, step)
            assert bits(check.central_difference) == bits(diff), s
            assert bits(check.series) == bits(
                log_derivative_series(s, data, route="factors")), s


# -- agreement with the geometric side --------------------------------------

class TestCrossModule:
    @pytest.mark.parametrize("group_name,char_name", [
        ("picard", None), ("picard", "sign"), ("picard", "trivial+sign"),
        ("eisenstein", None), ("eisenstein", "cube"),
    ])
    def test_loxodromic_term_matches_zeta_series(self, group_name,
                                                 char_name, request, triple):
        """Matrix-power traces (the g-sum) against eigenvalue traces (the
        class series), on characters and on a 2-dimensional sum."""
        gd = request.getfixturevalue(f"{group_name}_data")
        if char_name == "trivial+sign":
            chi = direct_sum([_char("picard", None), _char("picard", "sign")])
        else:
            chi = _char(group_name, char_name)
        s, big = 2.0, 3.0
        lox = loxodromic_term(triple.g, gd.loxodromic, chi, 14.0)
        data = build_zeta_class_data(gd.loxodromic, chi)
        zs = log_derivative_series(s, data, route="classes",
                                   power_norm_bound=14.0)
        zb = log_derivative_series(big, data, route="classes",
                                   power_norm_bound=14.0)
        paired = zs / (2.0 * s) - zb / (2.0 * big)
        assert abs(lox.value - paired) <= 1e-13

    @pytest.mark.parametrize("group_name,char_name", [
        ("picard", None), ("picard", "sign"),
        ("eisenstein", None), ("eisenstein", "cube"),
    ])
    @pytest.mark.parametrize("trS0", [1.0, -1.0])
    def test_completed_pair_is_spectral_free(self, group_name, char_name,
                                             trS0, request, triple):
        """The resolvent-pair geometric side equals the paired completed
        log-derivative once the trS0 pole block moves across; every
        geometric term and the zeta series must cohere for this to hold."""
        gd = request.getfixturevalue(f"{group_name}_data")
        chi = _char(group_name, char_name)
        s, big = 2.0, 3.0
        rep = geometric_side(triple, gd, chi, A=5.0, norm_bound=14.0)
        data = build_zeta_class_data(gd.loxodromic, chi)
        blocks = geometric_blocks(gd, chi)
        lhs = rep.finite_part - trS0 * (1.0 / (4.0 * s * s)
                                        - 1.0 / (4.0 * big * big))
        xi_s = xi_log_derivative(s, data, blocks, trS0,
                                 power_norm_bound=14.0)
        xi_b = xi_log_derivative(big, data, blocks, trS0,
                                 power_norm_bound=14.0)
        rhs = xi_s / (2.0 * s) - xi_b / (2.0 * big)
        assert abs(lhs - rhs) <= 1e-9

    @staticmethod
    def _picard_pair_error(gd, s, big, trS0):
        chi = trivial_rep(PICARD.ring)
        rep = geometric_side(resolvent_pair(s, big), gd, chi, A=5.0,
                             norm_bound=14.0)
        data = build_zeta_class_data(gd.loxodromic, chi)
        blocks = geometric_blocks(gd, chi)
        lhs = rep.finite_part - trS0 * (1.0 / (4.0 * s * s)
                                        - 1.0 / (4.0 * big * big))
        rhs = (xi_log_derivative(s, data, blocks, trS0, power_norm_bound=14.0)
               / (2.0 * s)
               - xi_log_derivative(big, data, blocks, trS0,
                                   power_norm_bound=14.0) / (2.0 * big))
        return abs(lhs - rhs)

    def test_completed_pair_near_s_one(self, picard_data):
        """At this (s, B) the cuspidal elliptic quadrature at scipy's default
        absolute tolerance (about 1.5e-8) left a pair error of 1.6e-9."""
        assert self._picard_pair_error(
            picard_data, 1.4324260309580783, 3.1682903188596496, -1.0) <= 1e-9

    def test_completed_pair_at_round_off(self, picard_data):
        """At this (s, B) (spectral_eval seed 7) the identity and parabolic
        quadratures at scipy's default tolerances left a pair error of
        3.1e-10; at the module's one tolerance pair it is round-off."""
        assert self._picard_pair_error(
            picard_data, 2.607411457430315, 4.8300273640385125, -1.0) <= 1e-12


# -- divisor bookkeeping ----------------------------------------------------

TOPO_CASES = {
    # (index, k_inf, l_inf): residues at s = -1..-6
    (1, 1, 1): [1, 1, 1, 1, 1, 1],
    (1, 0, 1): [0, 0, 0, 0, 0, 0],
    (1, 1, 2): [1, 1, 1, 1, 1, 1],
    (2, 1, 1): [1, 0, 1, 0, 1, 0],
    (2, 0, 1): [0, 1, 0, 1, 0, 1],
    (2, 1, 2): [1, 1, 1, 1, 1, 1],
    (3, 1, 1): ["2/3", "2/3", "-1/3", "2/3", "2/3", "-1/3"],
    (3, 0, 1): ["1/6", "1/6", "2/3", "1/6", "1/6", "2/3"],
    (3, 1, 2): ["5/6", "5/6", "1/3", "5/6", "5/6", "1/3"],
}


class TestTopologicalDivisor:
    @pytest.mark.parametrize("index,k,l", sorted(TOPO_CASES))
    def test_residue_table(self, index, k, l):
        trS0 = float(k % 2)  # matches the parity constraint
        records = topological_divisor(index, k, l, trS0, depth=6)
        assert [r.location for r in records] == [complex(-n) for n in
                                                 range(0, 7)]
        assert records[0].residue == Fraction(int(trS0) - k, 2)
        got = [r.residue for r in records[1:]]
        want = [Fraction(str(v)) for v in TOPO_CASES[(index, k, l)]]
        assert got == want
        for r in records:
            assert r.residue.denominator in (1, 2, 3, 6)
            assert r.source == "topological"

    def test_negative_trS0_at_zero(self):
        records = topological_divisor(2, 1, 1, -1.0, depth=1)
        assert records[0].residue == Fraction(-1)

    def test_depth(self):
        assert len(topological_divisor(1, 1, 1, 1.0, depth=50)) == 51

    @pytest.mark.parametrize("bad", [0, 4, 6])
    def test_unsupported_index(self, bad):
        with pytest.raises(ValueError, match="cusp index"):
            topological_divisor(bad, 1, 1, 1.0)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            topological_divisor(2, 1, 1, 0.0)


class TestSpectralDivisor:
    def test_empty(self):
        assert spectral_divisor(SpectralSideInputs()) == []

    def test_base_eigenvalue_doubles(self):
        recs = spectral_divisor(SpectralSideInputs(
            eigenvalue_parameters=((0.0, 2),)))
        assert len(recs) == 1
        assert recs[0].location == 0
        assert recs[0].residue == Fraction(4)

    def test_paired_locations(self):
        recs = spectral_divisor(SpectralSideInputs(
            eigenvalue_parameters=((1.0, 1), (0.5j, 3))))
        locs = {r.location for r in recs}
        assert locs == {1.0, -1.0, 0.5j, -0.5j}
        assert all(r.source == "eigenvalue" for r in recs)
        assert {r.residue for r in recs} == {Fraction(1), Fraction(3)}

    def test_zero_multiplicity_skipped(self):
        recs = spectral_divisor(SpectralSideInputs(
            eigenvalue_parameters=((1.0, 0),)))
        assert recs == []

    @pytest.mark.parametrize("mult", [-1, 1.5])
    def test_bad_multiplicity(self, mult):
        with pytest.raises(ValueError, match="multiplicity"):
            spectral_divisor(SpectralSideInputs(
                eigenvalue_parameters=((1.0, mult),)))

    def test_scattering_poles(self):
        recs = spectral_divisor(SpectralSideInputs(
            scattering_poles=((-0.5 + 1.0j, 2),)))
        assert recs == [DivisorRecord(location=-0.5 + 1.0j,
                                      residue=Fraction(2),
                                      source="scattering_pole")]

    def test_scattering_pole_half_plane(self):
        with pytest.raises(ValueError, match="Re"):
            spectral_divisor(SpectralSideInputs(
                scattering_poles=((0.5, 1),)))


class TestMeromorphy:
    def test_order_is_lcm(self):
        recs = [DivisorRecord(0j, Fraction(1, 2), "topological"),
                DivisorRecord(-1 + 0j, Fraction(1, 3), "topological")]
        assert meromorphy_order(recs) == 6
        assert meromorphy_order([]) == 1

    def test_picard_trivial_is_meromorphic(self):
        recs = topological_divisor(2, 1, 1, 1.0)
        assert meromorphy_order(recs) == 1
        report = meromorphy_report(recs, documented_order=1)
        assert report.matches is True
        assert report.note == ""

    def test_eisenstein_trivial_contrast(self):
        """The computed lcm for the hexagonal-cusp trivial character is 3;
        the documented order 6 is reported next to it, not adopted."""
        recs = topological_divisor(3, 1, 1, 1.0)
        report = meromorphy_report(recs, documented_order=6)
        assert report.computed == 3
        assert report.documented == 6
        assert report.matches is False
        assert "3" in report.note and "6" in report.note

    def test_no_documented_value(self):
        report = meromorphy_report(topological_divisor(1, 1, 1, 1.0))
        assert report.computed == 1
        assert report.documented is None and report.matches is None


class TestDivisorCsv:
    # the zeta command writes <out>.divisor.csv with this row renderer
    def test_golden_output(self):
        records = topological_divisor(3, 1, 2, 1.0, depth=2)
        assert _render_csv_rows(_divisor_rows(records)).splitlines() == [
            "location_re,location_im,residue_num,residue_den,source",
            "0,0,0,1,topological",
            "-1,0,5,6,topological",
            "-2,0,5,6,topological",
        ]

    def test_deterministic(self):
        records = topological_divisor(2, 1, 1, 1.0, depth=20)
        assert _render_csv_rows(_divisor_rows(records)) \
            == _render_csv_rows(_divisor_rows(records))


# -- functional-equation factor ---------------------------------------------

def _abel_direct(s, x, kmax=200000):
    k = np.arange(1.0, kmax + 1.0)
    a = -k * (-1.0) ** k * ((k - 1.0) ** 2 - s * s) / ((k + 1.0) ** 2 - s * s)
    return np.sum(a * x ** k)


class TestAbelProduct:
    @pytest.mark.parametrize("s", [0.5, 1.3 + 0.7j])
    def test_term_count_stability(self, s):
        assert abs(abel_product_log(s, terms=80)
                   - abel_product_log(s, terms=200)) <= 1e-13

    @pytest.mark.parametrize("s", [0.5, 1.3])
    def test_matches_direct_abel_limit(self, s):
        """Partial sums at x -> 1^- approach the regularized value; the
        error shrinks with 1 - x."""
        q = abel_product_log(s).real
        err99 = abs(_abel_direct(s, 0.99) - q)
        err999 = abs(_abel_direct(s, 0.999) - q)
        assert err999 < err99 < 1e-2
        assert err999 < 1e-3

    def test_even_in_s(self):
        assert abel_product_log(0.7) == abel_product_log(-0.7)

    @pytest.mark.parametrize("s", [2.0, -3.0])
    def test_pole_rejected(self, s):
        with pytest.raises(ValueError, match="pole"):
            abel_product_log(s)


class TestFunctionalFactor:
    E = 0.37 - 0.21j
    VOL, DIM = 0.3053218647257397, 2

    @pytest.mark.parametrize("s", [0.3, 0.6 + 0.4j])
    @pytest.mark.parametrize("index,k,l", [(1, 2, 2), (2, 1, 1), (2, 3, 3)])
    def test_reflection_pairs_to_one(self, s, index, k, l):
        p = functional_factor_psi(s, index, k, l, self.E, self.VOL, self.DIM)
        q = functional_factor_psi(-s, index, k, l, self.E, self.VOL, self.DIM)
        assert abs(p * q - 1.0) <= 1e-10

    @pytest.mark.parametrize("s", [0.3, 0.6 + 0.4j])
    def test_reflection_with_product_factor(self, s):
        k, l = 3, 1
        p = functional_factor_psi(s, 2, k, l, self.E, self.VOL, self.DIM)
        q = functional_factor_psi(-s, 2, k, l, self.E, self.VOL, self.DIM)
        want = cmath.exp((k - l) * abel_product_log(s))
        assert abs(p * q - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("index,k,l", [(1, 2, 2), (2, 1, 1)])
    def test_origin_value_is_a_sign(self, index, k, l):
        for sign in (1, -1):
            v = functional_factor_psi(0.0, index, k, l, self.E, self.VOL,
                                      self.DIM, exp_c_sign=sign)
            assert abs(v - sign) <= 1e-12

    def test_index_three_has_no_factor(self):
        with pytest.raises(ValueError, match="index 3"):
            functional_factor_psi(0.5, 3, 1, 1, 0.0, self.VOL, 1)

    def test_unsupported_index(self):
        with pytest.raises(ValueError, match="unsupported"):
            functional_factor_psi(0.5, 5, 1, 1, 0.0, self.VOL, 1)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            functional_factor_psi(0.5, 1, 1, 1, 0.0, self.VOL, 1,
                                  exp_c_sign=0)


# -- completed log-derivative blocks ----------------------------------------

class TestXiBlocks:
    def test_block_structure(self, picard_data, eisenstein_data):
        for gd, angle in ((picard_data, math.pi),
                          (eisenstein_data, 2.0 * math.pi / 3.0)):
            chi = trivial_rep(gd.group.ring)
            blocks = geometric_blocks(gd, chi)
            sing = singular_spaces(chi, gd.stabilizer)
            assert blocks.index == gd.group.index
            assert blocks.k_infinity == sing.k_infinity
            assert blocks.l_infinity == sing.l_infinity
            assert blocks.dim_v == 1
            assert len(blocks.ce_weights) == len(gd.cuspidal_elliptic)
            for w, t in blocks.ce_weights:
                assert abs(t - angle) <= 1e-12
                assert w.real > 0 and abs(w.imag) <= 1e-15
            total = (blocks.nce_constant + blocks.log_c_sum
                     + blocks.cusp_constant)
            assert blocks.e_constant == total

    def test_reduces_to_named_blocks_without_classes(self):
        blocks = XiBlocks(index=2, k_infinity=0, l_infinity=2, vol=0.3,
                          dim_v=1, nce_constant=0j, log_c_sum=0j,
                          cusp_constant=0j, ce_weights=())
        for s in (2.0, 2.4 + 0.3j):
            got = xi_log_derivative(s, [], blocks, trS0=1.0)
            want = (-digamma(1.0 + s)
                    - 0.3 / (2.0 * math.pi) * complex(s) ** 2)
            assert abs(got - want) <= 1e-13
