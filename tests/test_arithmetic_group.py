"""Group enumeration, classification, and conjugacy-class reduction."""
import math

import pytest

from selberg3.arithmetic_group import (
    CacheFormatError,
    ConjugatorSet,
    EnumerationCapError,
    EISENSTEIN_GROUP,
    GroupElement,
    PICARD,
    _axis_families,
    axis_key,
    cached_enumerate,
    classify,
    collect_axes,
    cuspidal_elliptic_classes,
    element_array,
    enumerate_elements,
    find_conjugator,
    from_ints,
    get_group,
    identity,
    load_cache,
    non_cuspidal_elliptic_classes,
    primitive_loxodromic_classes,
    save_cache,
    stabilizer_data,
    trace_class_key,
)
from selberg3.rings import EISENSTEIN, GAUSSIAN


def gi(rows):
    return from_ints(GAUSSIAN, rows)


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


# -- cache ------------------------------------------------------------------

class TestCache:
    def test_roundtrip(self, tmp_path):
        els = enumerate_elements(PICARD, 2)
        path = tmp_path / "cache.txt"
        save_cache(str(path), PICARD, 2, els)
        assert load_cache(str(path), PICARD, 2) == els

    def test_header_version_mismatch(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("ring=gauss height=2 version=99\n")
        with pytest.raises(CacheFormatError):
            load_cache(str(path), PICARD, 2)

    def test_header_wrong_ring(self, tmp_path):
        els = enumerate_elements(PICARD, 1)
        path = tmp_path / "cache.txt"
        save_cache(str(path), PICARD, 1, els)
        with pytest.raises(CacheFormatError):
            load_cache(str(path), EISENSTEIN_GROUP, 1)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("ring=gauss height=1 version=1\n1 0 0\n")
        with pytest.raises(CacheFormatError):
            load_cache(str(path), PICARD, 1)

    def test_cached_enumerate_hits_cache(self, tmp_path):
        first = cached_enumerate(PICARD, 2, str(tmp_path))
        second = cached_enumerate(PICARD, 2, str(tmp_path))
        assert first == second == enumerate_elements(PICARD, 2)


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
        assert abs(c.epsilon - 1j) < 1e-12

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
        assert c.kind == "loxodromic" and c.hyperbolic
        lam = (3.0 + math.sqrt(5.0)) / 2.0   # larger root of x^2 - 3x + 1
        assert abs(c.a - lam) < 1e-12
        assert abs(c.norm - lam * lam) < 1e-12

    def test_minimal_picard_loxodromic_norm(self):
        t = gi((((0, 0), (0, 1)), ((0, 1), (0, -1))))   # trace -i
        c = classify(t)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert c.kind == "loxodromic" and not c.hyperbolic
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


# -- stabilizer -------------------------------------------------------------

class TestStabilizer:
    def test_picard_relations(self):
        st = stabilizer_data(PICARD)
        assert st.index == 2
        assert st.R * st.S == st.S * st.R
        assert st.E.power(2).is_identity()
        # E R E^-1 = R^-1 since eps^2 = -1
        assert st.E * st.R * st.E.inv() == st.R.inv()

    def test_eisenstein_relations(self):
        st = stabilizer_data(EISENSTEIN_GROUP)
        assert st.index == 3
        assert st.R * st.S == st.S * st.R
        assert st.E.power(3).is_identity()
        # E R E^-1 = S since eps^2 = omega
        assert st.E * st.R * st.E.inv() == st.S

    def test_commutator_lands_in_translations(self):
        for group in (PICARD, EISENSTEIN_GROUP):
            st = stabilizer_data(group)
            w = st.E.inv() * st.R.inv() * st.E * st.R
            assert w.c == (0, 0)
            assert group.ring.mul(w.a, w.a) == (1, 0)


# -- axes -------------------------------------------------------------------

class TestAxes:
    def test_axis_shared_with_inverse_and_commuting_torsion(self):
        t0 = gi((((0, 0), (0, 1)), ((0, 1), (0, -1))))
        assert axis_key(t0) == axis_key(t0.inv())
        assert axis_key(t0) == axis_key(t0.power(2))

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
            if cls.c0 == (0, 0):
                continue
            den = 1
            for coord in cls.p:
                den = den * coord.denominator // math.gcd(den, coord.denominator)
            num = (int(cls.p[0] * den), int(cls.p[1] * den))
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
            assert c.trace_key == trace_class_key(c.T0) == min(t, r.neg(t))

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
                base = c.T0.power(n)
                if c.E_T is None:
                    reps = [base]
                else:
                    reps = [base * c.E_T.power(v) for v in range(1, c.m + 1)]
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
        from selberg3.arithmetic_group import _zeta0_for
        t0 = gi((((0, 2), (-2, 1)), ((2, -1), (2, 1))))
        r0 = gi((((0, 0), (-1, 0)), ((1, 0), (1, 0))))
        assert t0 * r0 == r0 * t0
        c = classify(t0)
        assert abs(c.norm - (7.0 + 4.0 * math.sqrt(3.0))) < 1e-9
        zeta0, angle = _zeta0_for(t0, c.a, r0, 3)
        assert angle.denominator == 6
        assert math.gcd(angle.numerator, 6) == 1
        assert abs(zeta0 ** 6 - 1) < 1e-9
        assert abs(zeta0 ** 2 - 1) > 0.5 and abs(zeta0 ** 3 - 1) > 0.5


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


class TestConjugationKernel:
    @pytest.mark.parametrize("fixture", ["picard_elements", "eisenstein_elements"])
    def test_images_match_conjugate_by(self, fixture, request):
        els = request.getfixturevalue(fixture)
        ts = _sample_of_each_kind(els)
        kinds = {classify(t).kind for t in ts}
        assert kinds == {"identity", "parabolic", "elliptic", "loxodromic"}
        # an element far outside the ball exercises larger coordinates
        ring = els[0].ring
        ts.append(GroupElement(ring, (1, 0), (1 << 20, -(1 << 19)), (0, 0), (1, 0)))
        imgs = ConjugatorSet(ring, els).images(element_array(ts))
        assert imgs.shape == (len(ts), len(els), 8)
        for row, t in zip(imgs, ts):
            assert [tuple(v) for v in row.tolist()] == \
                [t.conjugate_by(g).key() for g in els]

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

    def test_find_conjugator_first_hit(self, picard_elements):
        conj = ConjugatorSet(PICARD.ring, picard_elements)
        for t in _sample_of_each_kind(picard_elements, per_kind=2):
            for g in picard_elements[::97]:
                target = t.conjugate_by(g)
                want = _ref_find_conjugator(t, target, picard_elements)
                assert find_conjugator(t, target, conj) == want
                assert find_conjugator(t, target, picard_elements) == want
        far = GroupElement(GAUSSIAN, (1, 0), (50, 0), (0, 0), (1, 0))
        assert find_conjugator(R_PIC, far, conj) is None

    def test_overflow_guard(self, picard_elements):
        conj = ConjugatorSet(PICARD.ring, picard_elements)
        huge = GroupElement(GAUSSIAN, (1, 0), (1 << 58, 0), (0, 0), (1, 0))
        with pytest.raises(ValueError, match="int64"):
            conj.images(element_array([huge]))
        with pytest.raises(ValueError, match="int64"):
            find_conjugator(huge, huge, conj)
