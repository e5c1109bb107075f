import dataclasses
import random
from fractions import Fraction

import pytest

from selberg3.rings import EISENSTEIN, GAUSSIAN, RINGS, Ring

# Z[sqrt(-2)]: u^2 = -2.  Its group is built only in the index-1 tests of
# tests/test_arithmetic_group.py; here it checks that the ring arithmetic
# follows from u^2 = u2_x + u2_y u alone, whatever the name.
SQRT_M2 = Ring("sqrt-2", -2, 0)
# the norm-Euclidean rings with units +-1 only; for u = (1 + sqrt(-7))/2 and
# (1 + sqrt(-11))/2, rounding a/b coordinatewise can miss N(r) < N(b)
INDEX_ONE = [SQRT_M2, Ring("d-7", -2, 1), Ring("d-11", -3, 1)]
RING_IDS = ["gauss", "eisenstein", "sqrt-2"]
RINGS_LIST = [GAUSSIAN, EISENSTEIN, SQRT_M2]
UNIT_COUNTS = {"gauss": 4, "eisenstein": 6, "sqrt-2": 2}


@pytest.fixture(params=RINGS_LIST, ids=RING_IDS)
def ring(request):
    return request.param


def _rand_elem(rng, span=50):
    return (rng.randint(-span, span), rng.randint(-span, span))


def test_embedding_is_a_ring_homomorphism(ring):
    rng = random.Random(7)
    for _ in range(300):
        a, b = _rand_elem(rng), _rand_elem(rng)
        za, zb = ring.to_complex(a), ring.to_complex(b)
        assert ring.to_complex(ring.mul(a, b)) == pytest.approx(za * zb, abs=1e-9)
        assert ring.to_complex(ring.add(a, b)) == pytest.approx(za + zb, abs=1e-12)
        assert ring.to_complex(ring.conj(a)) == pytest.approx(za.conjugate(), abs=1e-12)


def test_norm_is_element_times_conjugate(ring):
    rng = random.Random(11)
    for _ in range(200):
        a = _rand_elem(rng)
        assert ring.mul(a, ring.conj(a)) == (ring.norm(a), 0)
        assert ring.norm(a) >= 0
        assert ring.real2(a) == pytest.approx(2.0 * ring.to_complex(a).real, abs=1e-9)


def test_units_form_a_group(ring):
    units = ring.units
    assert len(units) == UNIT_COUNTS[ring.name]
    for u in units:
        assert ring.is_unit(u)
        for v in units:
            assert ring.mul(u, v) in units


def test_euclidean_division(ring):
    rng = random.Random(13)
    for _ in range(400):
        a = _rand_elem(rng)
        b = _rand_elem(rng, span=20)
        if b == (0, 0):
            continue
        q, r = ring.divmod_nearest(a, b)
        assert ring.add(ring.mul(q, b), r) == a
        assert ring.norm(r) < ring.norm(b)


@pytest.mark.parametrize("ring", RINGS_LIST + INDEX_ONE[1:], ids=lambda r: r.name)
def test_gcd_and_bezout(ring):
    rng = random.Random(17)
    for _ in range(200):
        a, b = _rand_elem(rng), _rand_elem(rng)
        if a == (0, 0) and b == (0, 0):
            continue
        g, s, t = ring.xgcd(a, b)
        assert ring.add(ring.mul(s, a), ring.mul(t, b)) == g
        assert ring.gcd(a, b) == g
        if g != (0, 0):
            assert ring.exact_div(a, g) is not None
            assert ring.exact_div(b, g) is not None


def test_gcd_of_coprime_elements_is_a_unit(ring):
    # 1 + u and u are coprime in each ring
    g = ring.gcd((1, 1), (0, 1))
    assert ring.is_unit(g)


def test_field_div_is_exact(ring):
    rng = random.Random(19)
    for _ in range(200):
        a = _rand_elem(rng)
        b = _rand_elem(rng, span=15)
        if b == (0, 0):
            continue
        q = ring.field_div(a, b)
        assert all(isinstance(c, Fraction) for c in q)
        assert ring.mul(q, b) == a


def test_elements_with_norm_le_matches_brute_force(ring):
    bound = 40
    got = ring.elements_with_norm_le(bound)
    box = range(-15, 16)
    want = sorted(
        (x, y)
        for x in box
        for y in box
        if (x, y) != (0, 0) and ring.norm((x, y)) <= bound
    )
    assert got == want
    assert len(got) == len(set(got))


def test_small_norm_counts():
    assert len(GAUSSIAN.elements_with_norm_le(1)) == 4
    assert len(GAUSSIAN.elements_with_norm_le(2)) == 8
    assert len(EISENSTEIN.elements_with_norm_le(1)) == 6
    assert len(EISENSTEIN.elements_with_norm_le(3)) == 12


def test_canonical_associate_is_orbit_invariant(ring):
    rng = random.Random(29)
    for _ in range(100):
        a = _rand_elem(rng, span=10)
        if a == (0, 0):
            continue
        reps = {ring.canonical_associate(ring.mul(u, a)) for u in ring.units}
        assert len(reps) == 1
        rep = reps.pop()
        assert ring.norm(rep) == ring.norm(a)


def _round_half_even(q: Fraction) -> int:
    """Reference rounding of an exact quotient: nearest integer, ties to even."""
    n, r = divmod(q.numerator, q.denominator)
    if 2 * r < q.denominator:
        return n
    if 2 * r > q.denominator:
        return n + 1
    return n if n % 2 == 0 else n + 1


def test_divmod_nearest_matches_fraction_rounding(ring):
    # the integer rounding must give the quotient of rounding the exact
    # Fraction quotient field_div(a, b) coordinate by coordinate
    ties = negative_ties = 0
    for ax in range(-7, 8):
        for ay in range(-7, 8):
            for bx in range(-4, 5):
                for by in range(-4, 5):
                    a, b = (ax, ay), (bx, by)
                    if b == (0, 0):
                        continue
                    exact = ring.field_div(a, b)
                    want = tuple(_round_half_even(c) for c in exact)
                    q, r = ring.divmod_nearest(a, b)
                    assert q == want, (a, b)
                    assert ring.add(ring.mul(q, b), r) == a
                    assert ring.norm(r) < ring.norm(b), (a, b)
                    for c in exact:
                        if c.denominator == 2:
                            ties += 1
                            negative_ties += c < 0
    # the grid reaches exact half ties on both sides of zero
    assert ties > 0 and negative_ties > 0


@pytest.mark.parametrize("ring", INDEX_ONE, ids=lambda r: r.name)
def test_index_one_rings_are_euclidean(ring):
    # a = (1, 1), b = (2, 0) on D = -7: a/b = (1/2, 1/2) rounds to 0, and
    # N(1 + u) = 4 = N(2); the grid holds many such exact ties
    assert ring.units == ((-1, 0), (1, 0))
    for ax in range(-7, 8):
        for ay in range(-7, 8):
            for bx in range(-4, 5):
                for by in range(-4, 5):
                    a, b = (ax, ay), (bx, by)
                    if b == (0, 0):
                        continue
                    q, r = ring.divmod_nearest(a, b)
                    assert ring.add(ring.mul(q, b), r) == a
                    assert ring.norm(r) < ring.norm(b), (a, b)


def test_round_half_even_tie():
    # divmod at an exact tie must still satisfy the Euclidean bound
    q, r = GAUSSIAN.divmod_nearest((1, 1), (2, 0))
    assert GAUSSIAN.add(GAUSSIAN.mul(q, (2, 0)), r) == (1, 1)
    assert GAUSSIAN.norm(r) < 4


def test_rings_registry():
    assert RINGS["gauss"] is GAUSSIAN
    assert RINGS["eisenstein"] is EISENSTEIN
    assert GAUSSIAN.field_disc == -4 and EISENSTEIN.field_disc == -3
    assert SQRT_M2.field_disc == -8
    assert [f.name for f in dataclasses.fields(Ring)] == ["name", "u2_x", "u2_y"]


def test_embedding_of_u(ring):
    u = ring.to_complex((0, 1))
    assert u * u == pytest.approx(ring.u2_x + ring.u2_y * u, abs=1e-12)
    assert u.imag > 0
    assert ring.covolume == u.imag
