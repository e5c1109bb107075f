"""Congruence quotients, characters, singular subspaces, lattice restriction."""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from selberg3.arithmetic_group import (
    EISENSTEIN_GROUP,
    PICARD,
    enumerate_elements,
    from_ints,
    stabilizer_data,
)
from selberg3.representation import (
    CongruenceQuotient,
    CyclotomicValue,
    ResidueRing,
    UnitaryRep,
    congruence_table_rep,
    cusp_local_character,
    direct_sum,
    find_character,
    quotient_characters,
    restrict_to_lattice,
    simultaneous_diagonalization,
    singular_spaces,
    snap_unit_angle,
    trivial_rep,
    verify_unitary_rep,
)
from selberg3.rings import EISENSTEIN, GAUSSIAN

OMEGA = cmath.exp(2j * math.pi / 3)

STAB_P = stabilizer_data(PICARD)
STAB_E = stabilizer_data(EISENSTEIN_GROUP)
SIGMA = from_ints(GAUSSIAN, (((0, 0), (-1, 0)), ((1, 0), (0, 0))))


@pytest.fixture(scope="module")
def picard_elements():
    return enumerate_elements(PICARD, 2)


@pytest.fixture(scope="module")
def sign_character():
    return find_character(PICARD, (1, 1), -1, -1, 1)


@pytest.fixture(scope="module")
def cube_character():
    return find_character(EISENSTEIN_GROUP, (1, 2), OMEGA, OMEGA, 1)


@pytest.fixture(scope="module")
def s3_table_rep():
    th = 2 * math.pi / 3
    refl_a = np.array([[1, 0], [0, -1]], dtype=complex)
    refl_b = np.array([[math.cos(th), math.sin(th)],
                       [math.sin(th), -math.cos(th)]], dtype=complex)
    return congruence_table_rep(PICARD, (1, 1), [(STAB_P.R, refl_a), (SIGMA, refl_b)])


def translation(ring, m, n):
    return from_ints(ring, (((1, 0), (m, n)), ((0, 0), (1, 0))))


class TestCyclotomicValue:
    def test_omega_squared(self):
        w = CyclotomicValue.from_angle(Fraction(1, 3))
        assert w * w == CyclotomicValue(Fraction(-1), Fraction(-1))

    def test_sixth_root_table(self):
        for k in range(6):
            v = CyclotomicValue.from_angle(Fraction(k, 6))
            assert abs(v.to_complex() - cmath.exp(1j * math.pi * k / 3)) < 1e-15

    def test_unsupported_order(self):
        assert CyclotomicValue.from_angle(Fraction(1, 4)) is None
        assert CyclotomicValue.from_angle(Fraction(1, 5)) is None

    def test_rational_part(self):
        assert CyclotomicValue.from_rational(Fraction(3, 2)).rational_part() == Fraction(3, 2)
        with pytest.raises(ValueError):
            CyclotomicValue.from_angle(Fraction(1, 3)).rational_part()

    def test_cube_roots_sum_to_zero(self):
        total = CyclotomicValue(Fraction(0), Fraction(0))
        for k in range(3):
            total = total + CyclotomicValue.from_angle(Fraction(k, 3))
        assert total.is_zero


class TestSnap:
    def test_snaps_roots_of_unity(self):
        assert snap_unit_angle(cmath.exp(2j * math.pi / 7)) == Fraction(1, 7)
        assert snap_unit_angle(-1.0 + 0j) == Fraction(1, 2)

    def test_rejects_off_circle(self):
        assert snap_unit_angle(1.5 + 0j) is None

    def test_rejects_generic_phase(self):
        assert snap_unit_angle(cmath.exp(2j * 1.0)) is None


class TestResidueRing:
    def test_sizes_match_norms(self):
        assert len(ResidueRing(GAUSSIAN, (1, 1)).elements()) == 2
        assert len(ResidueRing(GAUSSIAN, (2, 0)).elements()) == 4
        assert len(ResidueRing(EISENSTEIN, (1, 2)).elements()) == 3
        assert len(ResidueRing(EISENSTEIN, (2, 0)).elements()) == 4

    def test_known_congruences(self):
        rr = ResidueRing(GAUSSIAN, (1, 1))
        assert rr.reduce((0, 1)) == rr.reduce((1, 0))  # i = 1 mod (1+i)
        re = ResidueRing(EISENSTEIN, (1, 2))
        assert re.reduce((0, 1)) == re.reduce((1, 0))  # omega = 1 mod (1+2w)

    def test_reduce_idempotent_and_additive(self):
        rr = ResidueRing(GAUSSIAN, (2, 1))
        for x in [(-3, 7), (4, -2), (11, 5)]:
            r = rr.reduce(x)
            assert rr.reduce(r) == r
            assert rr.add(x, (1, 1)) == rr.reduce(GAUSSIAN.add(x, (1, 1)))
            assert rr.mul(x, (0, 1)) == rr.reduce(GAUSSIAN.mul(x, (0, 1)))

    def test_inverse(self):
        re = ResidueRing(EISENSTEIN, (1, 2))
        inv = re.inverse((2, 0))
        assert re.mul((2, 0), inv) == re.reduce((1, 0))
        rr = ResidueRing(GAUSSIAN, (2, 0))
        assert rr.inverse((1, 1)) is None  # 1+i is a zero divisor mod 2

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            ResidueRing(GAUSSIAN, (0, 0))


class TestCongruenceQuotient:
    def test_orders(self):
        assert CongruenceQuotient(GAUSSIAN, (1, 1)).order() == 6
        assert CongruenceQuotient(EISENSTEIN, (1, 2)).order() == 12

    def test_reduction_is_homomorphism(self, picard_elements):
        q = CongruenceQuotient(GAUSSIAN, (1, 1))
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = picard_elements[rng.integers(len(picard_elements))]
            n = picard_elements[rng.integers(len(picard_elements))]
            assert q.reduce_element(m * n) == q.multiply(
                q.reduce_element(m), q.reduce_element(n))

    def test_inverse_key(self):
        q = CongruenceQuotient(EISENSTEIN, (1, 2))
        for k in q.element_keys:
            assert q.multiply(k, q.invert(k)) == q.identity_key

    def test_torsion_reduces_to_identity(self):
        # diag(i, -i) = 1 mod (1+i); diag(w^2, w) = 1 mod (1+2w)
        assert (CongruenceQuotient(GAUSSIAN, (1, 1)).reduce_element(STAB_P.E)
                == CongruenceQuotient(GAUSSIAN, (1, 1)).identity_key)
        assert (CongruenceQuotient(EISENSTEIN, (1, 2)).reduce_element(STAB_E.E)
                == CongruenceQuotient(EISENSTEIN, (1, 2)).identity_key)

    def test_character_counts(self):
        _, chars_p = quotient_characters(CongruenceQuotient(GAUSSIAN, (1, 1)))
        _, chars_e = quotient_characters(CongruenceQuotient(EISENSTEIN, (1, 2)))
        assert len(chars_p) == 2  # S3 abelianized is Z/2
        assert len(chars_e) == 3  # A4 abelianized is Z/3


class TestFindCharacter:
    def test_sign_character_values(self, sign_character):
        chi = sign_character
        assert abs(chi.trace(STAB_P.R) + 1) < 1e-12
        assert abs(chi.trace(STAB_P.S) + 1) < 1e-12
        assert abs(chi.trace(STAB_P.E) - 1) < 1e-12
        assert chi.kind == "congruence"

    def test_cube_character_exact_angles(self, cube_character):
        chi = cube_character
        assert chi.angle(STAB_E.R) == Fraction(1, 3)
        assert chi.angle(STAB_E.S) == Fraction(1, 3)
        assert chi.angle(STAB_E.E) == 0

    def test_depends_only_on_residue(self, sign_character, picard_elements):
        # right-multiplying by the translation by q = 1+i fixes the residue
        tq = translation(GAUSSIAN, 1, 1)
        for m in picard_elements[::7]:
            assert abs(sign_character.trace(m * tq) - sign_character.trace(m)) < 1e-12

    def test_unavailable_values_rejected(self):
        with pytest.raises(ValueError, match="no congruence character"):
            find_character(PICARD, (1, 1), -1, -1, -1)  # chi(E) = 1 is forced
        with pytest.raises(ValueError, match="no congruence character"):
            find_character(EISENSTEIN_GROUP, (1, 2), OMEGA, OMEGA.conjugate(), 1)

    def test_nan_value_rejected(self):
        # abs(got - nan) > tol is False, so a NaN must not match every character
        with pytest.raises(ValueError, match="no congruence character"):
            find_character(PICARD, (1, 1), -1, -1, float("nan"))

    def test_residuals(self, cube_character, sign_character, picard_elements):
        res = verify_unitary_rep(sign_character, picard_elements)
        assert res["homomorphism"] < 1e-12 and res["unitarity"] < 1e-12
        els = enumerate_elements(EISENSTEIN_GROUP, 2)
        res = verify_unitary_rep(cube_character, els)
        assert res["homomorphism"] < 1e-12 and res["unitarity"] < 1e-12


class TestTableRep:
    def test_two_dim_s3(self, s3_table_rep, picard_elements):
        assert s3_table_rep.dim == 2
        res = verify_unitary_rep(s3_table_rep, picard_elements)
        assert res["homomorphism"] < 1e-10 and res["unitarity"] < 1e-12

    def test_non_unitary_image_rejected(self):
        bad = np.array([[2, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="not unitary"):
            congruence_table_rep(PICARD, (1, 1), [(STAB_P.R, bad)])

    def test_relation_violation_rejected(self):
        # R has order 2 in the quotient; a quarter turn does not
        quarter = np.array([[0, -1], [1, 0]], dtype=complex)
        full = np.array([[1, 0], [0, -1]], dtype=complex)
        with pytest.raises(ValueError, match="relations"):
            congruence_table_rep(PICARD, (1, 1), [(STAB_P.R, quarter), (SIGMA, full)])

    def test_non_generating_set_rejected(self):
        refl = np.array([[1, 0], [0, -1]], dtype=complex)
        with pytest.raises(ValueError, match="generators reach"):
            congruence_table_rep(PICARD, (1, 1), [(STAB_P.R, refl)])


class TestCuspLocal:
    def test_torsion_sign_character(self):
        chi = cusp_local_character(PICARD, 1, 1, -1)
        assert chi.angle(STAB_P.E) == Fraction(1, 2)
        assert chi.angle(STAB_P.R) == 0
        prod = STAB_P.E * STAB_P.R * STAB_P.S
        assert abs(chi.trace(prod) + 1) < 1e-12

    def test_translation_values(self):
        chi = cusp_local_character(PICARD, -1, 1, 1)
        assert chi.angle(translation(GAUSSIAN, 3, 2)) == Fraction(1, 2)
        assert chi.angle(translation(GAUSSIAN, 2, 5)) == 0

    def test_relation_violations_rejected(self):
        # conjugation by E inverts translations, so chi(R) must be +-1
        with pytest.raises(ValueError, match="stabilizer relation"):
            cusp_local_character(PICARD, 1j, 1, 1)
        # E has order 3 in the Eisenstein stabilizer, so chi(E) = -1 is impossible
        with pytest.raises(ValueError, match="stabilizer relation"):
            cusp_local_character(EISENSTEIN_GROUP, OMEGA, OMEGA, -1)

    def test_eisenstein_cube_values_allowed(self):
        chi = cusp_local_character(EISENSTEIN_GROUP, OMEGA, OMEGA, OMEGA)
        assert chi.angle(STAB_E.E) == Fraction(1, 3)

    def test_outside_stabilizer_rejected(self):
        chi = cusp_local_character(PICARD, 1, 1, -1)
        with pytest.raises(ValueError, match="outside"):
            chi(SIGMA)

    def test_unsnappable_value_rejected(self):
        with pytest.raises(ValueError, match="snapped"):
            cusp_local_character(PICARD, cmath.exp(2j), 1, 1)


class TestSimultaneousDiagonalization:
    def test_degenerate_commuting_pair(self):
        a = np.diag([1, 1, -1]).astype(complex)
        b = np.diag([1, -1, 1]).astype(complex)
        # rotate into a non-obvious basis
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u0, _ = np.linalg.qr(m)
        au, bu = u0 @ a @ u0.conj().T, u0 @ b @ u0.conj().T
        u, (da, db) = simultaneous_diagonalization([au, bu])
        assert sorted(np.round(da.real)) == [-1, 1, 1]
        assert sorted(np.round(db.real)) == [-1, 1, 1]
        assert np.max(np.abs(au @ u - u @ np.diag(da))) < 1e-9

    def test_non_commuting_rejected(self):
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        b = np.array([[1, 0], [0, -1]], dtype=complex)
        with pytest.raises(ValueError, match="commute"):
            simultaneous_diagonalization([a, b])


class TestSingularSpaces:
    def test_trivial_dim3(self):
        sd = singular_spaces(trivial_rep(GAUSSIAN, 3), STAB_P)
        assert (sd.k_infinity, sd.l_infinity) == (3, 3)
        assert all(c.is_trivial for c in sd.lattice_characters)

    def test_sign_character_kills_everything(self, sign_character):
        sd = singular_spaces(sign_character, STAB_P)
        assert (sd.k_infinity, sd.l_infinity) == (0, 0)

    def test_cusp_local_torsion_minus_one(self):
        chi = cusp_local_character(PICARD, 1, 1, -1)
        sd = singular_spaces(chi, STAB_P)
        assert (sd.k_infinity, sd.l_infinity) == (0, 1)

    def test_s3_two_dim(self, s3_table_rep):
        sd = singular_spaces(s3_table_rep, STAB_P)
        assert (sd.k_infinity, sd.l_infinity) == (1, 1)

    def test_containment_and_orthonormality(self, s3_table_rep, sign_character):
        mix = direct_sum([trivial_rep(GAUSSIAN, 1), sign_character, s3_table_rep])
        sd = singular_spaces(mix, STAB_P)
        p, v = sd.V_prime_infinity, sd.V_infinity
        assert np.max(np.abs(p.conj().T @ p - np.eye(sd.l_infinity))) < 1e-10
        # V_infinity sits inside V'_infinity
        proj = p @ p.conj().T
        assert np.max(np.abs(proj @ v - v)) < 1e-10
        assert 0 <= sd.k_infinity <= sd.l_infinity <= mix.dim

    def test_non_unitary_evaluator_rejected(self):
        bad = UnitaryRep(1, "congruence", lambda M: np.array([[2.0]]))
        with pytest.raises(ValueError, match="not unitary"):
            singular_spaces(bad, STAB_P)

    def test_torsion_breaking_invariance_rejected(self):
        # chi(R) = chi(S) = diag(1,-1) has V' = span(e1), but this "chi(E)"
        # rotates e1 off the subspace
        had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
        diag = np.diag([1.0, -1.0]).astype(complex)

        def evaluator(M):
            return had if M == STAB_P.E else diag

        fake = UnitaryRep(2, "congruence", evaluator)
        with pytest.raises(ValueError, match="preserve"):
            singular_spaces(fake, STAB_P)


class TestRestriction:
    def test_trace_identity_on_lattice_points(self, sign_character, s3_table_rep):
        mix = direct_sum([trivial_rep(GAUSSIAN, 1), sign_character, s3_table_rep])
        chars = restrict_to_lattice(mix, STAB_P)
        assert len(chars) == mix.dim
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, n = int(rng.integers(-9, 10)), int(rng.integers(-9, 10))
            mu = translation(GAUSSIAN, m, n)
            lhs = sum(c(m, n) for c in chars)
            assert abs(lhs - mix.trace(mu)) < 1e-12

    def test_third_root_character(self):
        # chi defined on translations only: chi(m + n tau) = e^{2 pi i m/3}
        def evaluator(M):
            if M.c != (0, 0) or M.a != (1, 0):
                raise ValueError("translations only")
            m, _ = M.b
            return np.array([[cmath.exp(2j * math.pi * m / 3.0)]])

        chi = UnitaryRep(1, "congruence", evaluator)
        chars = restrict_to_lattice(chi, STAB_P)
        assert chars == [type(chars[0])(Fraction(1, 3), Fraction(0))]

    def test_trivial_first_ordering(self, sign_character):
        mix = direct_sum([sign_character, trivial_rep(GAUSSIAN, 1)])
        chars = restrict_to_lattice(mix, STAB_P)
        assert chars[0].is_trivial and not chars[1].is_trivial
