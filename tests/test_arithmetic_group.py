"""Group enumeration, classification, and conjugacy-class reduction."""
import dataclasses
import functools
import math
import operator

import numpy as np
import pytest

from selberg3.arithmetic_group import (
    ConjugatorSet,
    EnumerationCapError,
    EISENSTEIN_GROUP,
    GroupData,
    GroupDescriptor,
    GroupElement,
    PICARD,
    _INT64_SAFE,
    _axis_families,
    _bounded_axes,
    _elliptic_order,
    _kronecker,
    _zeta0_for,
    axis_key,
    build_group_data,
    classify,
    collect_axes,
    cuspidal_elliptic_classes,
    element_array,
    enumerate_elements,
    from_ints,
    get_group,
    identity,
    non_cuspidal_elliptic_classes,
    primitive_loxodromic_classes,
    stabilizer_data,
    trace_class_key,
)
from selberg3 import arithmetic_group
from selberg3.rings import EISENSTEIN, GAUSSIAN, Ring

from numerical_oracle import is_square_in_field, zeta0_by_eigenvector


def gi(rows):
    return from_ints(GAUSSIAN, rows)


def power(g, n):
    """g^n for n >= 1."""
    return functools.reduce(operator.mul, [g] * n)


def ei(rows):
    return from_ints(EISENSTEIN, rows)


R_PIC = gi((((1, 0), (1, 0)), ((0, 0), (1, 0))))
SIGMA = gi((((0, 0), (-1, 0)), ((1, 0), (0, 0))))
T21 = gi((((2, 0), (1, 0)), ((1, 0), (1, 0))))


# -- enumeration ------------------------------------------------------------

class TestEnumeration:
    def test_height_one_witnesses(self):
        els = set(enumerate_elements(PICARD, 1))
        assert R_PIC in els
        assert SIGMA in els
        assert T21 not in els   # entry norm 4 > 1

    @pytest.mark.parametrize("group", [PICARD, EISENSTEIN_GROUP])
    def test_brute_force_oracle_height_two(self, group):
        r = group.ring
        small = [(0, 0)] + r.elements_with_norm_le(2)
        brute = set()
        for a in small:
            for b in small:
                for c in small:
                    for d in small:
                        if r.sub(r.mul(a, d), r.mul(b, c)) == (1, 0):
                            brute.add(GroupElement(r, a, b, c, d))
        assert set(enumerate_elements(group, 2)) == brute

    def test_deterministic_sorted_order(self):
        els = enumerate_elements(PICARD, 2)
        assert els == sorted(els, key=GroupElement.key)
        assert els == enumerate_elements(PICARD, 2)

    def test_element_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_elements(PICARD, 4, cap=10)

    def test_closed_under_inverse_and_canonical_sign(self):
        els = set(enumerate_elements(PICARD, 2))
        for g in els:
            assert g.inv() in els
        # -M and M are the same element
        m = gi((((0, 0), (-1, 0)), ((1, 0), (0, 0))))
        n = gi((((0, 0), (1, 0)), ((-1, 0), (0, 0))))
        assert m == n

    def test_get_group(self):
        assert get_group("picard") is PICARD
        assert get_group("eisenstein") is EISENSTEIN_GROUP
        with pytest.raises(ValueError):
            get_group("modular")


# -- classification ---------------------------------------------------------

class TestClassification:
    def test_identity(self):
        assert classify(identity(GAUSSIAN)).kind == "identity"

    def test_translations_parabolic(self):
        assert classify(R_PIC).kind == "parabolic"
        s = ei((((1, 0), (0, 1)), ((0, 0), (1, 0))))
        assert classify(s).kind == "parabolic"

    def test_inversion_elliptic_order_two_cuspidal(self):
        c = classify(SIGMA)
        assert c.kind == "elliptic"
        assert c.order == 2
        assert c.cuspidal is True

    def test_diagonal_torsion_cuspidal(self):
        e = gi((((0, 1), (0, 0)), ((0, 0), (0, -1))))
        c = classify(e)
        assert c.kind == "elliptic" and c.order == 2 and c.cuspidal

    def test_order_three_not_cuspidal_in_picard(self):
        r3 = gi((((0, 0), (-1, 0)), ((1, 0), (-1, 0))))
        c = classify(r3)
        assert c.kind == "elliptic" and c.order == 3 and c.cuspidal is False

    def test_eisenstein_cuspidality_reversed(self):
        # order 3 is cuspidal over Z[omega] (disc -3 is a square there),
        # order 2 is not (disc -4 is not)
        r3 = ei((((0, 0), (-1, 0)), ((1, 0), (-1, 0))))
        r2 = ei((((0, 0), (-1, 0)), ((1, 0), (0, 0))))
        assert classify(r3).cuspidal is True
        assert classify(r2).cuspidal is False

    def test_hyperbolic_example_against_char_poly(self):
        c = classify(T21)
        assert c.kind == "loxodromic" and T21.trace()[1] == 0
        lam = (3.0 + math.sqrt(5.0)) / 2.0   # larger root of x^2 - 3x + 1
        assert abs(c.a - lam) < 1e-12
        assert abs(c.norm - lam * lam) < 1e-12

    def test_minimal_picard_loxodromic_norm(self):
        t = gi((((0, 0), (0, 1)), ((0, 1), (0, -1))))   # trace -i
        c = classify(t)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert c.kind == "loxodromic" and t.trace()[1] != 0
        assert abs(c.norm - phi * phi) < 1e-12

    def test_parabolic_iff_trace_squared_four(self):
        r = GAUSSIAN
        for g in enumerate_elements(PICARD, 2):
            t = g.trace()
            expected = r.mul(t, t) == (4, 0) and not g.is_identity()
            assert (classify(g).kind == "parabolic") == expected

    @pytest.mark.parametrize("group", [PICARD, EISENSTEIN_GROUP])
    def test_conjugation_invariance_exact(self, group):
        els = enumerate_elements(group, 2)
        sample = els[:: max(1, len(els) // 40)]
        for t in sample:
            ct = classify(t)
            for g in els:
                cc = classify(t.conjugate_by(g))
                assert cc.kind == ct.kind
                assert cc.order == ct.order
                assert cc.cuspidal == ct.cuspidal
                if ct.kind == "loxodromic":
                    assert abs(cc.norm - ct.norm) <= 1e-12 * ct.norm


class TestTraceRule:
    """The trace rules of `classify` against repeated multiplication and
    the ring square-root search of the numerical oracle."""

    @pytest.mark.parametrize("ring, elliptic, cuspidal", [
        (GAUSSIAN, 143, 119), (EISENSTEIN, 329, 290),
        (Ring("sqrt-2", -2, 0), 53, 0), (Ring("d-7", -2, 1), 41, 0),
        (Ring("d-11", -3, 1), 57, 0)], ids=lambda p: getattr(p, "name", None))
    def test_order_and_cuspidality_at_height_8(self, ring, elliptic, cuspidal):
        seen = []
        for g in enumerate_elements(GroupDescriptor(ring.name, ring, (1, 0)), 8):
            c = classify(g)
            if c.kind in ("parabolic", "loxodromic"):
                assert c.order is None
                with pytest.raises(ValueError):
                    _elliptic_order(g)
                continue
            m = next(m for m in range(1, 13) if power(g, m).is_identity())
            assert _elliptic_order(g) == m
            if c.kind == "elliptic":
                t = g.trace()
                disc = ring.sub(ring.mul(t, t), (4, 0))
                assert c.order == m
                assert c.cuspidal == is_square_in_field(ring, disc)
                seen.append(c.cuspidal)
        # units +-1 leave the index-1 rings no cuspidal elliptic element
        assert (len(seen), sum(seen)) == (elliptic, cuspidal)


# -- stabilizer -------------------------------------------------------------

class TestStabilizer:
    def test_picard_relations(self):
        st = stabilizer_data(PICARD)
        assert not st.E.is_identity()
        assert st.R * st.S == st.S * st.R
        assert power(st.E, 2).is_identity()
        # E R E^-1 = R^-1 since eps^2 = -1
        assert st.E * st.R * st.E.inv() == st.R.inv()

    def test_eisenstein_relations(self):
        st = stabilizer_data(EISENSTEIN_GROUP)
        assert not st.E.is_identity()
        assert st.R * st.S == st.S * st.R
        assert power(st.E, 3).is_identity()
        # E R E^-1 = S since eps^2 = omega
        assert st.E * st.R * st.E.inv() == st.S

    def test_descriptor_reads_cusp_data_from_the_ring(self):
        assert [f.name for f in dataclasses.fields(GroupDescriptor)] == [
            "name", "ring", "epsilon_pair"]
        assert (PICARD.tau, PICARD.index) == (1j, 2)
        assert EISENSTEIN_GROUP.tau == complex(-0.5, math.sqrt(3.0) / 2.0)
        assert EISENSTEIN_GROUP.index == 3
        for group in (PICARD, EISENSTEIN_GROUP):
            assert group.tau_pair == (0, 1)
            assert group.ring.to_complex(group.tau_pair) == group.tau

    def test_commutator_lands_in_translations(self):
        for group in (PICARD, EISENSTEIN_GROUP):
            st = stabilizer_data(group)
            w = st.E.inv() * st.R.inv() * st.E * st.R
            assert w.c == (0, 0)
            assert group.ring.mul(w.a, w.a) == (1, 0)


# -- covolume ---------------------------------------------------------------

class TestCovolume:
    def test_humbert_values_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            picard = mpmath.catalan / 3
            l_minus3 = (mpmath.psi(1, mpmath.mpf(1) / 3)
                        - mpmath.psi(1, mpmath.mpf(2) / 3)) / 9
            eisenstein = mpmath.mpf(3) ** 1.5 * l_minus3 / 24
            for group, want in ((PICARD, picard), (EISENSTEIN_GROUP, eisenstein)):
                assert abs(group.volume - want) <= 1e-15 * want

    # chi_D(a) for a = 1 .. |D|, from the quadratic residues mod |D|
    @pytest.mark.parametrize("ring, chi, want", [
        (Ring("sqrt-2", -2, 0), (1, 0, 1, 0, -1, 0, -1, 0), 1.00384),
        (Ring("d-7", -2, 1), (1, 1, -1, 1, -1, -1, 0), 0.88891),
        (Ring("d-11", -3, 1), (1, -1, 1, 1, 1, -1, -1, -1, 1, -1, 0), 1.38261),
    ], ids=lambda p: p.name if isinstance(p, Ring) else None)
    def test_other_discriminants_against_mpmath(self, ring, chi, want):
        mpmath = pytest.importorskip("mpmath")
        d = -ring.field_disc
        assert tuple(_kronecker(-d, a) for a in range(1, d + 1)) == chi
        with mpmath.workdps(40):
            # L(2, chi_D) from Hurwitz zeta values
            lval = sum(c * mpmath.zeta(2, mpmath.mpf(a) / d)
                       for a, c in enumerate(chi, 1)) / d ** 2
            exact = (mpmath.mpf(d) ** 1.5 * mpmath.zeta(2) * lval
                     / (4 * mpmath.pi ** 2))
        volume = GroupDescriptor(ring.name, ring, (1, 0)).volume
        assert abs(volume - exact) <= 1e-15 * exact
        assert round(volume, 5) == want

    def test_picard_and_eisenstein_floats_kept(self):
        assert PICARD.volume == 0.30532186472573963
        assert EISENSTEIN_GROUP.volume == 0.16915693440160898

    def test_repeated_reads_return_the_same_float(self):
        for group in (PICARD, EISENSTEIN_GROUP):
            first = group.volume
            assert isinstance(first, float)
            assert group.volume is first


# -- axes -------------------------------------------------------------------

class TestAxes:
    def test_axis_shared_with_inverse_and_commuting_torsion(self):
        t0 = gi((((0, 0), (0, 1)), ((0, 1), (0, -1))))
        assert axis_key(t0) == axis_key(t0.inv())
        assert axis_key(t0) == axis_key(power(t0, 2))

    def test_unit_scaling_invariance(self):
        # [[2,1],[1,1]] and its square lie on one axis
        assert axis_key(T21) == axis_key(T21 * T21)

    def test_different_axes_differ(self):
        assert axis_key(T21) != axis_key(gi((((1, 0), (1, 0)), ((1, 0), (2, 0)))))


# -- cuspidal elliptic classes ---------------------------------------------

@pytest.fixture(scope="module")
def picard_elements():
    return enumerate_elements(PICARD, 6)


@pytest.fixture(scope="module")
def eisenstein_elements():
    return enumerate_elements(EISENSTEIN_GROUP, 6)


class TestCuspidalElliptic:
    def test_picard_class_data(self, picard_elements):
        ce = cuspidal_elliptic_classes(PICARD, picard_elements)
        assert len(ce) == 4
        assert all(c.centralizer_order == 4 for c in ce)
        assert all(c.one_minus_eps_sq_norm == 4 for c in ce)
        assert all(c.order == 2 for c in ce)
        assert sorted(c.c_norm for c in ce) == [1, 2, 4, 4]

    def test_eisenstein_class_data(self, eisenstein_elements):
        ce = cuspidal_elliptic_classes(EISENSTEIN_GROUP, eisenstein_elements)
        assert len(ce) == 3
        assert all(c.centralizer_order == 3 for c in ce)
        assert all(c.one_minus_eps_sq_norm == 3 for c in ce)
        assert all(c.order == 3 for c in ce)
        assert sorted(c.c_norm for c in ce) == [1, 3, 3]

    @pytest.mark.parametrize("fixture", ["picard_elements", "eisenstein_elements"])
    def test_unit_budget(self, fixture, request):
        group = PICARD if fixture == "picard_elements" else EISENSTEIN_GROUP
        els = request.getfixturevalue(fixture)
        ce = cuspidal_elliptic_classes(group, els)
        # with the trivial character the class budget sums to exactly one
        from fractions import Fraction
        total = sum(Fraction(1, c.centralizer_order) for c in ce)
        assert total == 1

    def test_witness_independence_of_c(self, picard_elements):
        # |c| must not depend on which group element realizes the cusp p:
        # any right multiplication by a stabilizer element fixes |c| exactly
        st = stabilizer_data(PICARD)
        ce = cuspidal_elliptic_classes(PICARD, picard_elements)
        r = GAUSSIAN
        for cls in ce:
            # rep = [[eps, eps w], [0, eps^-1]] fixes p = eps^2 w / (1 - eps^2)
            rep = cls.representative
            p = r.field_div(r.mul(rep.a, rep.b),
                            r.sub((1, 0), r.mul(rep.a, rep.a)))
            den = 1
            for coord in p:
                den = den * coord.denominator // math.gcd(den, coord.denominator)
            num = (int(p[0] * den), int(p[1] * den))
            g = r.gcd(num, (den, 0))
            a0, c0 = r.exact_div(num, g), r.exact_div((den, 0), g)
            _, s, t = r.xgcd(a0, c0)
            gg = r.add(r.mul(s, a0), r.mul(t, c0))
            ginv = r.conj(gg)
            witness = GroupElement(r, a0, r.neg(r.mul(t, ginv)), c0, r.mul(s, ginv))
            for tail in (st.R, st.S, st.E, st.R * st.E, st.S.inv() * st.R):
                alt = witness * tail
                assert r.norm(alt.c) == cls.c_norm

    def test_representatives_fix_infinity(self, picard_elements):
        for cls in cuspidal_elliptic_classes(PICARD, picard_elements):
            assert cls.representative.c == (0, 0)


# -- loxodromic classes -----------------------------------------------------

class TestLoxodromicClasses:
    def test_minimal_norm_and_direction_merge(self, picard_elements):
        cls = primitive_loxodromic_classes(PICARD, 6.0, 6, picard_elements)
        phi2 = ((1.0 + math.sqrt(5.0)) / 2.0) ** 2
        assert abs(cls[0].N0 - phi2) < 1e-9
        # the trace +-i classes come as an unresolved pair with equal invariants
        pair = [c for c in cls if abs(c.N0 - phi2) < 1e-9]
        assert len(pair) == 2
        assert all(c.ambiguous for c in pair)

    @pytest.mark.parametrize("fixture", ["picard_elements",
                                         "eisenstein_elements"])
    def test_family_split_matches_attracting_fixed_points(self, fixture,
                                                          request):
        # numeric oracle for the exact split: the families of an axis hold
        # its norm-N0 members, each family shares its lead's attracting
        # fixed point (expanding eigenvector), and the two families differ
        def attracting(g):
            m = g.to_moebius()
            vals, vecs = np.linalg.eig(np.array([[m.a, m.b], [m.c, m.d]]))
            return vecs[:, np.argmax(np.abs(vals))]     # unit length

        def same_point(v, w):
            return abs(v[0] * w[1] - v[1] * w[0]) < 1e-8

        axes = collect_axes(request.getfixturevalue(fixture), 14.0)
        for ax in (ax for ax in axes.values() if ax.loxodromics):
            fams = _axis_families(ax)
            N0 = ax.norms[0]
            assert sorted(g.key() for f in fams for g in f.minimal_members) \
                == sorted(g.key() for g, n in zip(ax.loxodromics, ax.norms)
                          if abs(n - N0) <= 1e-9 * N0)
            leads = [attracting(f.lead) for f in fams]
            for f, v in zip(fams, leads):
                assert f.lead in f.minimal_members
                assert all(same_point(attracting(g), v)
                           for g in f.minimal_members)
            if len(fams) == 2:
                assert not same_point(*leads)

    @pytest.mark.parametrize("fixture,flagged", [("picard_data", 25),
                                                 ("eisenstein_data", 14)])
    def test_ambiguity_keys_on_trace_up_to_sign(self, fixture, flagged, request):
        # complex conjugation is not inner: a flagged class needs a partner
        # with equal norm, torsion order and trace +-t, not +-conj(t)
        gd = request.getfixturevalue(fixture)
        r, cls = gd.group.ring, gd.loxodromic
        assert sum(c.ambiguous for c in cls) == flagged
        for c in cls:
            t = c.T0.trace()
            partners = [o for o in cls if o is not c and o.m == c.m
                        and abs(o.N0 - c.N0) <= 1e-6
                        and o.T0.trace() in (t, r.neg(t))]
            assert c.ambiguous == bool(partners)
            assert trace_class_key(c.T0) == min(t, r.neg(t))

    def test_powers_not_listed_as_primitive(self, picard_elements):
        cls = primitive_loxodromic_classes(PICARD, 8.0, 6, picard_elements)
        n_t21 = classify(T21).norm
        assert all(abs(c.N0 - n_t21) > 1e-6 for c in cls), \
            "a square of a primitive element must not produce its own class"

    @pytest.mark.parametrize("group,h", [(PICARD, 6), (EISENSTEIN_GROUP, 6)])
    def test_closure_and_uniqueness(self, group, h):
        bound = 6.0
        els = enumerate_elements(group, h)
        cls = primitive_loxodromic_classes(group, bound, h, els)
        cover = {}
        for ci, c in enumerate(cls):
            n = 1
            while c.N0 ** n <= bound + 1e-9:
                base = power(c.T0, n)
                if c.E_T is None:
                    reps = [base]
                else:
                    reps = [base * power(c.E_T, v) for v in range(1, c.m + 1)]
                for p in reps:
                    for g in els:
                        cover.setdefault(p.conjugate_by(g), set()).add(ci)
                n += 1
        for g in els:
            cg = classify(g)
            if cg.kind == "loxodromic" and cg.norm <= bound:
                assert g in cover, f"{g} not covered by any class family"
                assert len(cover[g]) == 1, f"{g} covered twice: {cover[g]}"

    def test_stability_under_height_increase(self):
        a = primitive_loxodromic_classes(PICARD, 6.0, 6)
        b = primitive_loxodromic_classes(PICARD, 6.0, 8)
        key = lambda cs: sorted((round(c.N0, 9), c.m) for c in cs)
        assert key(a) == key(b)

    def test_picard_torsion_class_zeta(self):
        # the axis z^2 + z + 1 = 0 carries order-3 torsion; its primitive
        # loxodromic has norm 7 + 4 sqrt(3) and rotation number 1/6 or 5/6
        t0 = gi((((0, 2), (-2, 1)), ((2, -1), (2, 1))))
        r0 = gi((((0, 0), (-1, 0)), ((1, 0), (1, 0))))
        assert t0 * r0 == r0 * t0
        c = classify(t0)
        assert abs(c.norm - (7.0 + 4.0 * math.sqrt(3.0))) < 1e-9
        zeta0, angle = _zeta0_for(t0, c.a, r0)
        assert angle.denominator == 6
        assert math.gcd(angle.numerator, 6) == 1
        assert abs(zeta0 ** 6 - 1) < 1e-9
        assert abs(zeta0 ** 2 - 1) > 0.5 and abs(zeta0 ** 3 - 1) > 0.5


    @pytest.mark.parametrize("group", [PICARD, EISENSTEIN_GROUP], ids=lambda g: g.name)
    @pytest.mark.parametrize("height, norm_bound", [(12, 14.0), (14, 30.0)])
    def test_zeta0_against_float_eigenvector(self, group, height, norm_bound):
        # E_T = x + y T0 over K gives bit for bit the zeta0 that E_T
        # applied in floats to T0's expanding eigenvector gives
        bits = lambda z: (z.real.hex(), z.imag.hex())
        torsion = [c for c in primitive_loxodromic_classes(
            group, norm_bound, height) if c.E_T is not None]
        assert torsion
        for c in torsion:
            zeta0, angle = _zeta0_for(c.T0, c.a0, c.E_T)
            want, want_angle = zeta0_by_eigenvector(c.T0, c.a0, c.E_T, c.m)
            assert angle == want_angle == c.zeta0_angle
            assert bits(zeta0) == bits(want) == bits(c.zeta0)

    @pytest.mark.parametrize("group", [
        PICARD, EISENSTEIN_GROUP,
        GroupDescriptor("sqrt-2", Ring("sqrt-2", -2, 0), (1, 0))],
        ids=lambda g: g.name)
    def test_zeta0_on_random_conjugates(self, group):
        # the trace rule against the float eigenvector on g T g^-1 and
        # g E g^-1 for random words g in R, S, E, J and their inverses, with
        # T in {T0, T0^-1, T0 E_T} and E in {E_T, E_T^-1}: both canonical
        # trace signs of E and both directions of the axis are met
        st = stabilizer_data(group)
        j = from_ints(group.ring, (((0, 0), (-1, 0)), ((1, 0), (0, 0))))
        letters = [x for g in (st.R, st.S, st.E, j) for x in (g, g.inv())]
        rng = np.random.default_rng(33)
        torsion = [c for c in primitive_loxodromic_classes(group, 14.0, 6)
                   if c.E_T is not None]
        assert torsion
        cases = 0
        for c in torsion:
            pairs = [(t, e) for t in (c.T0, c.T0.inv(), c.T0 * c.E_T)
                     for e in (c.E_T, c.E_T.inv())]
            for _ in range(300):
                g = identity(group.ring)
                for k in rng.integers(len(letters), size=rng.integers(10)):
                    g = g * letters[k]
                for t, e in pairs:
                    t, e = t.conjugate_by(g), e.conjugate_by(g)
                    a = classify(t).a
                    assert (_zeta0_for(t, a, e)[1]
                            == zeta0_by_eigenvector(t, a, e, c.m)[1])
                    cases += 1
        assert cases == 1800 * len(torsion)


# -- non-cuspidal elliptic classes -----------------------------------------

class TestNonCuspidalElliptic:
    def test_picard_rotation_invariant(self, picard_elements):
        nce = non_cuspidal_elliptic_classes(PICARD, picard_elements, 6.0)
        assert nce, "order-3 classes must exist"
        from fractions import Fraction
        for c in nce:
            assert c.order_primitive == 3
            assert c.sin_sq == Fraction(3, 4)   # trace +-1

    def test_eisenstein_rotation_invariant(self, eisenstein_elements):
        nce = non_cuspidal_elliptic_classes(
            EISENSTEIN_GROUP, eisenstein_elements, 6.0)
        assert nce
        from fractions import Fraction
        for c in nce:
            assert c.order_primitive == 2
            assert c.sin_sq == Fraction(1, 1)   # trace 0

    def test_conjugacy_through_a_third_member(self):
        # at height 2 the two least Eisenstein torsion keys have no
        # conjugator between them in the ball, but share conjugates there:
        # one class, as at every larger height
        els = enumerate_elements(EISENSTEIN_GROUP, 2)
        nce = non_cuspidal_elliptic_classes(EISENSTEIN_GROUP, els, 6.0)
        assert len(nce) == 1


# -- vectorized conjugation kernel -----------------------------------------
#
# The pure-Python references below are the loops the kernel replaced; the
# kernel must reproduce them exactly.


def _ref_find_conjugator(t1, t2, els):
    return next((g for g in els if g * t1 == t2 * g), None)


def _ref_centralizer_order(t, els):
    return sum(1 for x in els if x * t == t * x)


def _ref_loxodromic(els, norm_bound):
    axes = collect_axes(els, norm_bound)
    fams = [f for k in sorted(axes) if axes[k].loxodromics
            for f in _axis_families(axes[k])]
    owner = {g: i for i, f in enumerate(fams) for g in f.minimal_members}
    parent = list(range(len(fams)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, f in enumerate(fams):
        for g in els:
            j = owner.get(f.lead.conjugate_by(g))
            if j is not None:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    comps = {}
    for i, f in enumerate(fams):
        comps.setdefault(find(i), []).append(f)
    out = []
    for members in comps.values():
        lead = min(members, key=lambda f: (f.N0, f.lead.key()))
        out.append((lead.lead.key(), lead.axis.m, lead.N0,
                    tuple(sorted({f.axis.key for f in members}))))
    return sorted(out)


def _ref_non_cuspidal(els):
    axes = collect_axes(els, math.inf)
    torsion = sorted(((t, ax) for ax in axes.values() for t in ax.torsion),
                     key=lambda p: p[0].key())
    reps = []
    for g, ax in torsion:
        if not any(_ref_find_conjugator(g, seen, els) for seen, _ in reps):
            reps.append((g, ax))
    return sorted((g.key(), ax.m) for g, ax in reps)


def _sample_of_each_kind(els, per_kind=3):
    picked = {}
    for g in els:
        c = classify(g)
        kind = (c.kind, c.cuspidal)
        if len(picked.setdefault(kind, [])) < per_kind:
            picked[kind].append(g)
    return [g for gs in picked.values() for g in gs]


@pytest.fixture(scope="module")
def picard_elements_h8():
    return enumerate_elements(PICARD, 8)


def _up_to_sign(rows, elements):
    """Is each raw image row +-key() of the matching element?"""
    return all(tuple(v) == g.key() or tuple(-x for x in v) == g.key()
               for v, g in zip(rows.tolist(), elements))


class TestConjugationKernel:
    @pytest.mark.parametrize("fixture", ["picard_elements", "eisenstein_elements"])
    def test_hits_equal_brute_force(self, fixture, request):
        els = request.getfixturevalue(fixture)
        ring = els[0].ring
        sample = _sample_of_each_kind(els)
        kinds = {classify(t).kind for t in sample}
        assert kinds == {"identity", "parabolic", "elliptic", "loxodromic"}
        # targets: the sample and some of its conjugates, each once
        targets = list(dict.fromkeys(
            sample + [t.conjugate_by(g) for t in sample for g in els[::97]]))
        # the far element's images fall outside the packed bound
        far = GroupElement(ring, (1, 0), (1 << 20, -(1 << 19)), (0, 0), (1, 0))
        leads = sample + [far]
        conj = ConjugatorSet(ring, els)
        got = arithmetic_group._conjugate_hits(
            conj, element_array(leads), element_array(targets),
            np.arange(len(targets)))
        label = {m: k for k, m in enumerate(targets)}
        want = {(i, j, label[t.conjugate_by(g)])
                for i, t in enumerate(leads) for j, g in enumerate(els)
                if t.conjugate_by(g) in label}
        assert len(got) == len(want)
        assert set(map(tuple, got.tolist())) == want
        assert all(i < len(sample) for i, _, _ in want)
        assert len(want) > len(sample)    # not only the identity hits

    @pytest.mark.parametrize("group,h", [(PICARD, 6), (EISENSTEIN_GROUP, 6),
                                         (PICARD, 8)])
    def test_class_lists_match_reference(self, group, h, request):
        els = request.getfixturevalue(
            {(PICARD, 6): "picard_elements", (EISENSTEIN_GROUP, 6):
             "eisenstein_elements", (PICARD, 8): "picard_elements_h8"}[group, h])
        lox = primitive_loxodromic_classes(group, 14.0, h, els)
        assert sorted((c.T0.key(), c.m, c.N0, c.merged_axes) for c in lox) \
            == _ref_loxodromic(els, 14.0)
        for c in cuspidal_elliptic_classes(group, els):
            assert c.centralizer_order == \
                _ref_centralizer_order(c.representative, els)
        nce = non_cuspidal_elliptic_classes(group, els, 14.0)
        assert sorted((c.representative.key(), c.order_primitive)
                      for c in nce) == _ref_non_cuspidal(els)

    def test_guard_boundary(self, picard_elements):
        # the images stay exact right up to the proven bound 2^62 and the
        # kernel raises just beyond it
        els = picard_elements[::7]
        conj = ConjugatorSet(PICARD.ring, els)
        t_max = _INT64_SAFE // conj._scale
        assert conj._scale * t_max <= _INT64_SAFE < conj._scale * (t_max + 1)

        def element(b):
            # determinant x^2 - (x - 1)(x + 1) = 1, largest coordinate b
            x = b - 1
            return GroupElement(GAUSSIAN, (x, 0), (x - 1, 0), (x + 1, 0), (x, 0))

        ts = [R_PIC, T21, element(t_max)]
        imgs = conj.raw_images(element_array(ts))
        assert imgs.shape == (len(ts), len(els), 8)
        for row, t in zip(imgs, ts):
            assert _up_to_sign(row, [t.conjugate_by(g) for g in els])
        with pytest.raises(ValueError, match="int64"):
            conj.raw_images(element_array([element(t_max + 1)]))

    def test_overflow_guard(self, picard_elements):
        conj = ConjugatorSet(PICARD.ring, picard_elements)
        huge = GroupElement(GAUSSIAN, (1, 0), (1 << 58, 0), (0, 0), (1, 0))
        with pytest.raises(ValueError, match="int64"):
            conj.raw_images(element_array([huge]))
        # a class list refuses conjugators whose maps would overflow
        with pytest.raises(ValueError, match="int64"):
            cuspidal_elliptic_classes(PICARD, picard_elements + [huge])


# -- the build path ------------------------------------------------------------

class TestBuildGroupData:
    @pytest.mark.parametrize("ring, loxodromic", [
        (Ring("sqrt-2", -2, 0), 32), (Ring("d-7", -2, 1), 19),
        (Ring("d-11", -3, 1), 32)], ids=lambda p: getattr(p, "name", None))
    def test_index_one_groups_build(self, ring, loxodromic):
        """Units +-1 only: no diagonal stabilizer element besides +-I, so
        no cuspidal elliptic class."""
        group = GroupDescriptor(ring.name, ring, (1, 0))
        assert group.index == 1
        gd = build_group_data(group, 6, 14.0)
        assert gd.cuspidal_elliptic == []
        assert len(gd.loxodromic) == loxodromic

    def test_one_axis_pass_and_one_conjugator_set(self, monkeypatch):
        calls = {"collect_axes": 0, "axis_key": 0, "ConjugatorSet": 0}
        collect_axes_fn = arithmetic_group.collect_axes
        axis_key_fn = arithmetic_group.axis_key

        def counted_collect_axes(*args):
            calls["collect_axes"] += 1
            return collect_axes_fn(*args)

        def counted_axis_key(T):
            calls["axis_key"] += 1
            return axis_key_fn(T)

        class CountedConjugatorSet(ConjugatorSet):
            def __init__(self, *args, **kwargs):
                calls["ConjugatorSet"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(arithmetic_group, "collect_axes",
                            counted_collect_axes)
        monkeypatch.setattr(arithmetic_group, "axis_key", counted_axis_key)
        monkeypatch.setattr(arithmetic_group, "ConjugatorSet",
                            CountedConjugatorSet)
        gd = build_group_data(PICARD, 6, 14.0)
        # one axis key per loxodromic and non-cuspidal elliptic element,
        # whatever its norm: the axes at the norm bound are cut from one pass
        kinds = [classify(g) for g in gd.elements]
        on_axes = sum(c.kind == "loxodromic"
                      or (c.kind == "elliptic" and not c.cuspidal)
                      for c in kinds)
        assert calls == {"collect_axes": 1, "axis_key": on_axes,
                         "ConjugatorSet": 1}

    @pytest.mark.parametrize("group,h", [(PICARD, 6), (EISENSTEIN_GROUP, 6),
                                         (PICARD, 8)])
    def test_equals_public_step_by_step_calls(self, group, h):
        # the public calls in order, as a traced build times them one by one
        els = enumerate_elements(group, h)
        steps = GroupData(
            group=group, height=h, norm_bound=14.0, elements=els,
            stabilizer=stabilizer_data(group),
            cuspidal_elliptic=cuspidal_elliptic_classes(group, els),
            loxodromic=primitive_loxodromic_classes(group, 14.0, h, els),
            non_cuspidal_elliptic=non_cuspidal_elliptic_classes(
                group, els, 14.0))
        assert build_group_data(group, h, 14.0) == steps

    @pytest.mark.parametrize("fixture", ["picard_elements", "eisenstein_elements"])
    @pytest.mark.parametrize("norm_bound", [6.0, 14.0, 30.0])
    def test_bounded_axes_equal_a_pass_at_the_bound(self, fixture, norm_bound,
                                                    request):
        els = request.getfixturevalue(fixture)
        assert _bounded_axes(collect_axes(els, math.inf), norm_bound) \
            == collect_axes(els, norm_bound)
