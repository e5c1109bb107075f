"""Congruence quotients, characters, singular subspaces, lattice restriction."""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from selberg3 import representation, zeta
from selberg3.arithmetic_group import (
    EISENSTEIN_GROUP,
    PICARD,
    GroupElement,
    enumerate_elements,
    from_ints,
    stabilizer_data,
)
from selberg3.lattice_lfn import LatticeCharacter
from selberg3.representation import (
    CongruenceQuotient,
    CyclotomicValue,
    ResidueRing,
    UnitaryRep,
    congruence_table_rep,
    direct_sum,
    find_character,
    quotient_characters,
    _joint_angles,
    _unit_value,
    singular_spaces,
    snap_unit_angle,
    trivial_rep,
)
from selberg3.rings import EISENSTEIN, GAUSSIAN
from selberg3.zeta import build_zeta_class_data

from numerical_oracle import simultaneous_diagonalization, singular_spaces_svd

OMEGA = cmath.exp(2j * math.pi / 3)

STAB_P = stabilizer_data(PICARD)
STAB_E = stabilizer_data(EISENSTEIN_GROUP)
SIGMA = from_ints(GAUSSIAN, (((0, 0), (-1, 0)), ((1, 0), (0, 0))))

# (group, modulus, the (R, S, E) angle triples of its congruence characters)
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
KLEIN = {(0, 0, 0), (0, HALF, HALF), (HALF, 0, HALF), (HALF, HALF, 0)}
CUBE = {(0, 0, 0), (THIRD, THIRD, 0), (2 * THIRD, 2 * THIRD, 0)}
SURVEY = [
    (PICARD, (1, 1), {(0, 0, 0), (HALF, HALF, 0)}),  # S3
    (PICARD, (2, 0), KLEIN),
    (PICARD, (1, 2), {(0, 0, 0)}),  # A5
    (PICARD, (3, 0), {(0, 0, 0)}),  # A6
    (PICARD, (2, 2), KLEIN),
    (EISENSTEIN_GROUP, (1, 2), CUBE),  # A4
    (EISENSTEIN_GROUP, (2, 1), CUBE),  # A4
    (EISENSTEIN_GROUP, (2, 0), {(0, 0, 0)}),  # A5
    (EISENSTEIN_GROUP, (3, 0), CUBE),
    (EISENSTEIN_GROUP, (4, 0), {(0, 0, 0)}),
]


@pytest.fixture(scope="module")
def picard_elements():
    return enumerate_elements(PICARD, 2)


@pytest.fixture(scope="module")
def sign_character():
    return find_character(PICARD, (1, 1), -1, -1, 1)


@pytest.fixture(scope="module")
def cube_character():
    return find_character(EISENSTEIN_GROUP, (1, 2), OMEGA, OMEGA, 1)


def restrict_to_lattice(chi, stab):
    """The lattice characters of chi alone, by the joint angles of chi(R)
    and chi(S) with their own cyclic powers; chi need not be defined
    beyond the translations."""
    (angles,) = _joint_angles(chi(stab.R)[None], chi(stab.S)[None])
    return [LatticeCharacter(u, v) for u, v in angles]


def translation(ring, m, n):
    return from_ints(ring, (((1, 0), (m, n)), ((0, 0), (1, 0))))


def residuals(rep, elements):
    """Largest homomorphism and unitarity residuals over sampled pairs."""
    rng = np.random.default_rng(7)
    hom = uni = 0.0
    for _ in range(40):
        M, N = (elements[i] for i in rng.integers(len(elements), size=2))
        a, b = rep(M), rep(N)
        hom = max(hom, float(np.max(np.abs(rep(M * N) - a @ b))))
        uni = max(uni, float(np.max(np.abs(a @ a.conj().T - np.eye(rep.dim)))))
    return hom, uni


class TestCyclotomicValue:
    def test_sixth_root_table(self):
        for k in range(6):
            v = CyclotomicValue.from_angle(Fraction(k, 6))
            z = EISENSTEIN.to_complex((v.a, v.b))
            assert abs(z - cmath.exp(1j * math.pi * k / 3)) < 1e-15

    def test_unsupported_order(self):
        assert CyclotomicValue.from_angle(Fraction(1, 4)) is None
        assert CyclotomicValue.from_angle(Fraction(1, 5)) is None

    def test_from_rational_has_no_omega_part(self):
        assert (CyclotomicValue.from_rational(Fraction(3, 2))
                == CyclotomicValue(Fraction(3, 2), Fraction(0)))
        assert CyclotomicValue.from_angle(Fraction(1, 3)).b != 0

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


class TestUnitValue:
    def test_conjugate_symmetric(self):
        """The values at a and -a are exact conjugates for every a/q with
        q <= 12 (once exp(2 pi i 2/3) was not the conjugate of the value
        at 1/3 in its last bits)."""
        for q in range(1, 13):
            for a in range(q):
                z = _unit_value(Fraction(a, q))
                assert abs(z - cmath.exp(2j * math.pi * a / q)) < 1e-15
                assert _unit_value(Fraction(-a, q)) == z.conjugate()
                assert _unit_value(Fraction(q - a, q)) == z.conjugate()

    def test_quarter_turns_exact(self):
        assert [_unit_value(Fraction(k, 4)) for k in range(4)] == [
            1, 1j, -1, -1j]


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

    def test_reduce_idempotent(self):
        rr = ResidueRing(GAUSSIAN, (2, 1))
        for x in [(-3, 7), (4, -2), (11, 5)]:
            r = rr.reduce(x)
            assert rr.reduce(r) == r

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

    @pytest.mark.parametrize("group, modulus, triples", SURVEY,
                             ids=[f"{g.name}-{x}_{y}" for g, (x, y), _ in SURVEY])
    def test_character_counts(self, group, modulus, triples):
        q = CongruenceQuotient(group.ring, modulus)
        chars = quotient_characters(q)
        stab = stabilizer_data(group)
        keys = [q.reduce_element(e) for e in (stab.R, stab.S, stab.E)]
        got = [tuple(table[k] for k in keys) for table in chars]
        assert len(got) == len(triples) and set(got) == triples
        assert all(set(table) == set(q.element_keys) for table in chars)
        if q.order() <= 192:
            for x in q.element_keys:
                for y in q.element_keys:
                    xy = q.multiply(x, y)
                    assert all(table[xy] == (table[x] + table[y]) % 1
                               for table in chars)


class TestFindCharacter:
    def test_sign_character_values(self, sign_character):
        chi = sign_character
        assert abs(chi.trace(STAB_P.R) + 1) < 1e-12
        assert abs(chi.trace(STAB_P.S) + 1) < 1e-12
        assert abs(chi.trace(STAB_P.E) - 1) < 1e-12

    def test_quarter_turn_values_exact(self, sign_character, picard_elements):
        values = {complex(sign_character.trace(m)) for m in picard_elements}
        assert values == {1 + 0j, -1 + 0j}
        assert all(math.copysign(1.0, v.imag) == 1.0 for v in values)

    def test_cube_character_exact_angles(self, cube_character):
        images = np.array([cube_character(m)
                           for m in (STAB_E.R, STAB_E.S, STAB_E.E)])
        assert _joint_angles(images, np.ones_like(images)) == [
            [(THIRD, 0)], [(THIRD, 0)], [(0, 0)]]
        assert np.array_equal(images[:, 0, 0],
                              [_unit_value(THIRD)] * 2 + [1])

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
        hom, uni = residuals(sign_character, picard_elements)
        assert hom < 1e-12 and uni < 1e-12
        els = enumerate_elements(EISENSTEIN_GROUP, 2)
        hom, uni = residuals(cube_character, els)
        assert hom < 1e-12 and uni < 1e-12


class TestTableRep:
    def test_two_dim_s3(self, s3_table_rep, picard_elements):
        assert s3_table_rep.dim == 2
        hom, uni = residuals(s3_table_rep, picard_elements)
        assert hom < 1e-10 and uni < 1e-12

    def test_non_unitary_image_rejected(self):
        bad = np.array([[2, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="not unitary"):
            congruence_table_rep(PICARD, (1, 1), [(STAB_P.R, bad)])
        nan = np.array([[float("nan"), 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="not unitary"):
            congruence_table_rep(PICARD, (1, 1), [(STAB_P.R, nan)])

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError, match="no generator images"):
            congruence_table_rep(PICARD, (1, 1), [])

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


# (group, representation) pairs of the oracle comparisons
ORACLE_REPS = [("picard", "trivial(3)"), ("picard", "sign"), ("picard", "s3"),
               ("picard", "trivial+sign"), ("eisenstein", "trivial(3)"),
               ("eisenstein", "cube"), ("eisenstein", "trivial+cube")]


def oracle_rep(group_name, rep_name, request):
    ring = GAUSSIAN if group_name == "picard" else EISENSTEIN
    named = {"sign": "sign_character", "cube": "cube_character",
             "s3": "s3_table_rep"}
    if rep_name == "trivial(3)":
        return trivial_rep(ring, 3)
    if rep_name.startswith("trivial+"):
        return direct_sum([trivial_rep(ring, 1),
                           oracle_rep(group_name, rep_name[8:], request)])
    return request.getfixturevalue(named[rep_name])


def rebuilt(chi):
    """A newly built rep around chi's evaluator: the same images, an empty
    memo."""
    return UnitaryRep(chi.dim, chi._evaluator, chi.label)


def assert_same_pairs(exact, numeric, tol=1e-9):
    """The two lists of eigenvalue pairs agree as multisets within tol."""
    left = list(exact)
    numeric = list(numeric)
    assert len(left) == len(numeric)
    for x, y in numeric:
        hits = [i for i, (u, v) in enumerate(left)
                if abs(u - x) <= tol and abs(v - y) <= tol]
        assert hits, (x, y, left)
        left.pop(hits[0])


class TestJointAngles:
    @pytest.mark.parametrize("group_name,rep_name", ORACLE_REPS,
                             ids=[f"{g}-{r}" for g, r in ORACLE_REPS])
    def test_matches_numerical_diagonalization(self, group_name, rep_name,
                                               request):
        """On every loxodromic class at h6/N14, the trace DFT gives the
        joint eigenvalues of chi(T0) and chi(E_T) that simultaneous
        diagonalization finds."""
        classes = request.getfixturevalue(f"{group_name}_data").loxodromic
        chi = oracle_rep(group_name, rep_name, request)
        t0 = np.array([chi(c.T0) for c in classes])
        e_t = np.array([np.eye(chi.dim) if c.E_T is None else chi(c.E_T)
                        for c in classes])
        angles = _joint_angles(t0, e_t)
        assert len(angles) == len(classes)
        for a, b, pairs in zip(t0, e_t, angles):
            _, (d_a, d_b) = simultaneous_diagonalization([a, b])
            assert_same_pairs([(_unit_value(u), _unit_value(v))
                               for u, v in pairs], zip(d_a, d_b))

    def test_mixed_orders_in_one_batch(self):
        omega = cmath.exp(2j * math.pi / 3)
        a = np.array([np.diag([1, -1]), np.diag([omega, omega.conjugate()])])
        b = np.array([np.diag([-1, 1]), np.eye(2)])
        assert _joint_angles(a, b) == [
            [(0, HALF), (HALF, 0)], [(THIRD, 0), (2 * THIRD, 0)]]

    def test_non_commuting_pair_rejected(self):
        a = np.array([[[0, 1], [1, 0]]], dtype=complex)
        b = np.array([[[1, 0], [0, -1]]], dtype=complex)
        with pytest.raises(ValueError, match="commute"):
            _joint_angles(a, b)

    def test_infinite_order_rejected(self):
        # once the lattice restriction returned a float angle here
        def evaluator(M):
            return np.array([[cmath.exp(0.3j) if M == STAB_P.R else 1.0]])

        chi = UnitaryRep(1, evaluator)
        with pytest.raises(ValueError, match="finite order"):
            restrict_to_lattice(chi, STAB_P)
        with pytest.raises(ValueError, match="finite order"):
            singular_spaces(chi, STAB_P)


class TestSingularSpaces:
    @pytest.mark.parametrize("group_name,rep_name", ORACLE_REPS,
                             ids=[f"{g}-{r}" for g, r in ORACLE_REPS])
    def test_matches_svd_route(self, group_name, rep_name, request):
        """(k_inf, l_inf), the lattice characters and both subspaces agree
        with SVD nullspaces and simultaneous diagonalization."""
        stab = STAB_P if group_name == "picard" else STAB_E
        chi = oracle_rep(group_name, rep_name, request)
        sd = singular_spaces(chi, stab)
        v, p, pairs = singular_spaces_svd(chi(stab.R), chi(stab.S),
                                          chi(stab.E))
        assert (sd.k_infinity, sd.l_infinity) == (v.shape[1], p.shape[1])
        assert [(c.u, c.v) for c in sd.lattice_characters] == pairs
        for got, want in ((sd.V_infinity, v), (sd.V_prime_infinity, p)):
            assert np.max(np.abs(got.conj().T @ got - np.eye(got.shape[1])),
                          initial=0.0) < 1e-12
            assert np.max(np.abs(got @ got.conj().T - want @ want.conj().T),
                          initial=0.0) < 1e-9

    @pytest.mark.parametrize("group_name,rep_name,k_l,pairs", [
        ("picard", "trivial(3)", (3, 3), [(0, 0)] * 3),
        ("picard", "sign", (0, 0), [(HALF, HALF)]),
        ("eisenstein", "cube", (0, 0), [(THIRD, THIRD)]),
        ("picard", "s3", (1, 1), [(0, 0), (HALF, HALF)]),
    ], ids=["trivial(3)", "sign", "cube", "s3"])
    def test_bit_identical_values(self, group_name, rep_name, k_l, pairs,
                                  request, monkeypatch):
        """The bases are the leading unit columns bit for bit (+0.0 off
        the diagonal), as the route that found the cyclic powers of
        chi(R) and chi(S) again for the lattice characters gave them; on a
        newly built rep one singular_spaces call finds the cyclic powers
        once, and a second call reads the memo."""
        calls = []
        cyclic_powers = representation._cyclic_powers

        def counted(stack):
            calls.append(len(stack))
            return cyclic_powers(stack)

        monkeypatch.setattr(representation, "_cyclic_powers", counted)
        stab = STAB_P if group_name == "picard" else STAB_E
        chi = rebuilt(oracle_rep(group_name, rep_name, request))
        sd = singular_spaces(chi, stab)
        assert calls == [3]  # the stack (chi(R), chi(S), chi(E))
        assert singular_spaces(chi, stab) is sd and calls == [3]
        assert (sd.k_infinity, sd.l_infinity) == k_l
        for got, cols in ((sd.V_infinity, k_l[0]), (sd.V_prime_infinity, k_l[1])):
            want = np.eye(chi.dim, cols, dtype=complex)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert [(c.u, c.v) for c in sd.lattice_characters] == pairs
        assert list(sd.lattice_characters) == restrict_to_lattice(chi, stab)

    def test_trivial_dim3(self):
        sd = singular_spaces(trivial_rep(GAUSSIAN, 3), STAB_P)
        assert (sd.k_infinity, sd.l_infinity) == (3, 3)
        assert all(c.is_trivial for c in sd.lattice_characters)

    def test_sign_character_kills_everything(self, sign_character):
        sd = singular_spaces(sign_character, STAB_P)
        assert (sd.k_infinity, sd.l_infinity) == (0, 0)

    def test_cusp_local_torsion_minus_one(self):
        # a character of the cusp stabilizer only: chi(R) = chi(S) = 1 and
        # chi(E) = -1, which no congruence character of PICARD has
        def evaluator(M):
            return np.array([[-1.0 if M == STAB_P.E else 1.0]])

        chi = UnitaryRep(1, evaluator)
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
        bad = UnitaryRep(1, lambda M: np.array([[2.0]]))
        with pytest.raises(ValueError, match="not unitary"):
            singular_spaces(bad, STAB_P)

    def test_torsion_breaking_invariance_rejected(self):
        # chi(R) = chi(S) = diag(1,-1) has V' = span(e1), but this "chi(E)"
        # rotates e1 off the subspace
        had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
        diag = np.diag([1.0, -1.0]).astype(complex)

        def evaluator(M):
            return had if M == STAB_P.E else diag

        fake = UnitaryRep(2, evaluator)
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

        chi = UnitaryRep(1, evaluator)
        chars = restrict_to_lattice(chi, STAB_P)
        assert chars == [type(chars[0])(Fraction(1, 3), Fraction(0))]

    def test_trivial_first_ordering(self, sign_character):
        mix = direct_sum([sign_character, trivial_rep(GAUSSIAN, 1)])
        chars = restrict_to_lattice(mix, STAB_P)
        assert chars[0].is_trivial and not chars[1].is_trivial


def counting(chi):
    """A newly built rep around chi's evaluator, and the list of the
    elements it has evaluated."""
    seen = []

    def evaluator(M):
        seen.append(M)
        return chi._evaluator(M)

    return UnitaryRep(chi.dim, evaluator, chi.label), seen


def other_ring_twin(M):
    """The element with M's coordinates in the other ring."""
    ring = EISENSTEIN if M.ring.name == GAUSSIAN.name else GAUSSIAN
    return GroupElement(ring, M.a, M.b, M.c, M.d)


class TestReadOnlyImages:
    @pytest.mark.parametrize("group_name,rep_name", ORACLE_REPS,
                             ids=[f"{g}-{r}" for g, r in ORACLE_REPS])
    def test_write_raises_and_later_images_hold(self, group_name, rep_name,
                                                request):
        """Once the trivial evaluator handed out one shared identity, so a
        write into chi(M) moved every later chi(M') and chi.trace."""
        stab = STAB_P if group_name == "picard" else STAB_E
        chi = oracle_rep(group_name, rep_name, request)
        fresh = rebuilt(chi)
        image = chi(stab.R)
        with pytest.raises(ValueError, match="read-only"):
            image[0, 0] = 5
        for M in (stab.R, stab.S, stab.E, stab.R * stab.E):
            assert chi(M).tobytes() == fresh(M).tobytes()
            assert chi.trace(M) == fresh.trace(M)

    def test_trivial_rep_shares_no_writable_identity(self):
        chi = trivial_rep(GAUSSIAN)
        with pytest.raises(ValueError, match="read-only"):
            chi(STAB_P.R)[0, 0] = 5
        assert chi(STAB_P.S)[0, 0] == 1 and chi.trace(STAB_P.R) == 1

    def test_table_rep_images_read_only(self, s3_table_rep):
        with pytest.raises(ValueError, match="read-only"):
            s3_table_rep(SIGMA)[0, 1] = 5
        assert s3_table_rep.trace(SIGMA) == rebuilt(s3_table_rep).trace(SIGMA)

    @pytest.mark.parametrize("group_name,rep_name", ORACLE_REPS,
                             ids=[f"{g}-{r}" for g, r in ORACLE_REPS])
    def test_singular_bases_read_only(self, group_name, rep_name, request):
        stab = STAB_P if group_name == "picard" else STAB_E
        chi = oracle_rep(group_name, rep_name, request)
        sd = singular_spaces(chi, stab)
        for basis in (sd.V_infinity, sd.V_prime_infinity):
            assert not basis.flags.writeable
            if basis.size:
                with pytest.raises(ValueError, match="read-only"):
                    basis[0, 0] = 5
        again = singular_spaces(rebuilt(chi), stab)
        assert sd.V_infinity.tobytes() == again.V_infinity.tobytes()


class TestMemo:
    """What depends on chi alone is computed once per rep."""

    @pytest.mark.parametrize("group_name,rep_name", ORACLE_REPS,
                             ids=[f"{g}-{r}" for g, r in ORACLE_REPS])
    def test_warm_image_calls_no_evaluator(self, group_name, rep_name,
                                           request):
        stab = STAB_P if group_name == "picard" else STAB_E
        chi, seen = counting(oracle_rep(group_name, rep_name, request))
        first = chi(stab.S)
        assert seen == [stab.S]
        assert chi(stab.S) is first and seen == [stab.S]
        fresh = rebuilt(chi)
        assert first.tobytes() == fresh(stab.S).tobytes()

    @pytest.mark.parametrize("group_name,rep_name", ORACLE_REPS,
                             ids=[f"{g}-{r}" for g, r in ORACLE_REPS])
    def test_other_ring_still_raises(self, group_name, rep_name, request):
        """The memo keys on the element, whose hash holds its ring."""
        stab = STAB_P if group_name == "picard" else STAB_E
        chi = oracle_rep(group_name, rep_name, request)
        chi(stab.R)
        twin = other_ring_twin(stab.R)
        assert twin.key() == stab.R.key()
        with pytest.raises(ValueError, match="wrong ring"):
            chi(twin)

    @pytest.mark.parametrize("group_name,rep_name", ORACLE_REPS,
                             ids=[f"{g}-{r}" for g, r in ORACLE_REPS])
    def test_warm_singular_spaces(self, group_name, rep_name, request,
                                  monkeypatch):
        stab = STAB_P if group_name == "picard" else STAB_E
        chi, seen = counting(oracle_rep(group_name, rep_name, request))
        sd = singular_spaces(chi, stab)
        calls = []
        cyclic_powers = representation._cyclic_powers
        monkeypatch.setattr(representation, "_cyclic_powers",
                            lambda stack: calls.append(stack)
                            or cyclic_powers(stack))
        del seen[:]
        assert singular_spaces(chi, stab) is sd
        assert seen == [] and calls == []
        # the other group's stabilizer is another key
        other = STAB_E if group_name == "picard" else STAB_P
        with pytest.raises(ValueError, match="wrong ring"):
            singular_spaces(chi, other)
        monkeypatch.undo()
        fresh = singular_spaces(rebuilt(chi), stab)
        assert (sd.k_infinity, sd.l_infinity, sd.lattice_characters) == (
            fresh.k_infinity, fresh.l_infinity, fresh.lattice_characters)
        for got, want in ((sd.V_infinity, fresh.V_infinity),
                          (sd.V_prime_infinity, fresh.V_prime_infinity)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("group_name,rep_name", ORACLE_REPS,
                             ids=[f"{g}-{r}" for g, r in ORACLE_REPS])
    def test_warm_class_data(self, group_name, rep_name, request,
                             monkeypatch):
        classes = request.getfixturevalue(f"{group_name}_data").loxodromic
        chi, seen = counting(oracle_rep(group_name, rep_name, request))
        cold = build_zeta_class_data(classes, chi)
        angles, powers = [], []
        joint_angles = zeta._joint_angles
        cyclic_powers = representation._cyclic_powers
        monkeypatch.setattr(zeta, "_joint_angles",
                            lambda a, b: angles.append(len(a))
                            or joint_angles(a, b))
        monkeypatch.setattr(representation, "_cyclic_powers",
                            lambda stack: powers.append(len(stack))
                            or cyclic_powers(stack))
        del seen[:]
        warm = build_zeta_class_data(classes, chi)
        assert seen == [] and angles == [] and powers == []
        assert warm == cold and all(w is not c for w, c in zip(warm, cold))
        assert all(w.cls is c for w, c in zip(warm, classes))
        monkeypatch.undo()
        assert warm == build_zeta_class_data(classes, rebuilt(chi))

    @pytest.mark.parametrize("group_name", ["picard", "eisenstein"])
    def test_shared_classes_reuse_entries(self, group_name, request,
                                          monkeypatch):
        """A class list that shares classes with an earlier one finds the
        eigen-data of its new classes only, in one batch."""
        classes = request.getfixturevalue(f"{group_name}_data").loxodromic
        chi = trivial_rep(GAUSSIAN if group_name == "picard" else EISENSTEIN,
                          2)
        angles = []
        joint_angles = zeta._joint_angles
        monkeypatch.setattr(zeta, "_joint_angles",
                            lambda a, b: angles.append(len(a))
                            or joint_angles(a, b))
        head = build_zeta_class_data(classes[:10], chi)
        both = build_zeta_class_data(classes[5:15], chi)
        assert angles == [10, 5]
        assert both[:5] == head[5:]
        build_zeta_class_data(classes[12:3:-1], chi)
        assert angles == [10, 5]
