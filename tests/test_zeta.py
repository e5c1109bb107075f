import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from selberg3.arithmetic_group import EISENSTEIN_GROUP, PICARD
from selberg3.cli import _divisor_rows, _render_csv_rows
from selberg3.representation import (find_character, singular_spaces,
                                     trivial_rep)
from selberg3.trace_formula import (SpectralSideInputs, geometric_side,
                                    loxodromic_term)
from selberg3.transform import resolvent_pair
from selberg3.zeta import (DivisorRecord, XiBlocks, _iter_factors,
                           _selection_residue, abel_product_log,
                           build_zeta_class_data, central_difference_check,
                           collapse_identity_report,
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
            build_zeta_class_data(free[:1], Doubler())

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
            build_zeta_class_data(torsion[:1], Drifter())


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
            for zcd in data:
                a0, n0 = zcd.cls.a0, zcd.cls.N0
                for t_j, k, l in _iter_factors(zcd, 6):
                    x = (t_j * a0 ** (-2 * k) * a0.conjugate() ** (-2 * l)
                         * n0 ** (-s - 1.0))
                    assert abs(x) < 1.0

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

    def test_routes_agree_nontrivial_character(self, eisenstein_data):
        data = build_zeta_class_data(eisenstein_data.loxodromic,
                                     _char("eisenstein", "cube"))
        a = log_derivative_series(2.0, data, route="classes")
        b = log_derivative_series(2.0, data, route="factors")
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_modulus_decreasing_in_s(self, picard_zeta):
        vals = [abs(log_derivative_series(s, picard_zeta, route="factors"))
                for s in (2.0, 3.0, 4.0)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_unknown_route(self, picard_zeta):
        with pytest.raises(ValueError, match="route"):
            log_derivative_series(2.0, picard_zeta, route="weights")

    @pytest.mark.parametrize("group_name,char_name", [
        ("picard", None), ("picard", "sign"),
        ("eisenstein", None), ("eisenstein", "cube"),
    ])
    def test_collapse_identity(self, group_name, char_name, request):
        """Per class and power, the v-sum over torsion twists equals the
        selected (l, k) double sum: the geometric-series collapse behind
        the Euler product."""
        gd = request.getfixturevalue(f"{group_name}_data")
        data = build_zeta_class_data(gd.loxodromic, _char(group_name,
                                                          char_name))
        rows = collapse_identity_report(data, 2.0)
        assert rows
        for ci, n, lhs, rhs in rows:
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) / scale <= 1e-12, (ci, n)

    @pytest.mark.parametrize("s", [2.0, 2.5])
    def test_central_difference(self, s, picard_zeta):
        check = central_difference_check(s, picard_zeta)
        assert check.relative_error <= 1e-6
        assert check.s == complex(s)
        assert abs(check.series) > 0


# -- agreement with the geometric side --------------------------------------

class TestCrossModule:
    def test_loxodromic_term_matches_zeta_series(self, picard_data,
                                                 eisenstein_data, triple):
        s, big = 2.0, 3.0
        for gd in (picard_data, eisenstein_data):
            chi = trivial_rep(gd.group.ring)
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

    def test_completed_pair_near_s_one(self, picard_data):
        """At this (s, B) the cuspidal elliptic quadrature at scipy's default
        absolute tolerance (about 1.5e-8) left a pair error of 1.6e-9."""
        s, big, trS0 = 1.4324260309580783, 3.1682903188596496, -1.0
        chi = trivial_rep(PICARD.ring)
        rep = geometric_side(resolvent_pair(s, big), picard_data, chi, A=5.0,
                             norm_bound=14.0)
        data = build_zeta_class_data(picard_data.loxodromic, chi)
        blocks = geometric_blocks(picard_data, chi)
        lhs = rep.finite_part - trS0 * (1.0 / (4.0 * s * s)
                                        - 1.0 / (4.0 * big * big))
        rhs = (xi_log_derivative(s, data, blocks, trS0, power_norm_bound=14.0)
               / (2.0 * s)
               - xi_log_derivative(big, data, blocks, trS0,
                                   power_norm_bound=14.0) / (2.0 * big))
        assert abs(lhs - rhs) <= 1e-9


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
        assert "parity" in records[0].notes

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
        assert "doubled" in recs[0].notes

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
        from selberg3.trace_formula import digamma_halfplane_value
        blocks = XiBlocks(index=2, k_infinity=0, l_infinity=2, vol=0.3,
                          dim_v=1, nce_constant=0j, log_c_sum=0j,
                          cusp_constant=0j, ce_weights=())
        for s in (2.0, 2.4 + 0.3j):
            got = xi_log_derivative(s, [], blocks, trS0=1.0)
            want = (-digamma_halfplane_value(s)
                    - 0.3 / (2.0 * math.pi) * complex(s) ** 2)
            assert abs(got - want) <= 1e-13
