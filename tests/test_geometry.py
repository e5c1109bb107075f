import math
import random

import numpy as np
import pytest

from selberg3.geometry import MoebiusMatrix, Point3, apply, delta, laplacian_fd


def _rand_matrix(rng):
    while True:
        ent = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        if abs(ent[0] * ent[3] - ent[1] * ent[2]) > 0.1:
            return MoebiusMatrix.make(*ent)


def _rand_point(rng):
    return Point3(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0.1, 4.0))


def test_point_validation():
    with pytest.raises(ValueError):
        Point3(0j, 0.0)
    with pytest.raises(ValueError):
        Point3(0j, -1.0)


def test_delta_known_value():
    assert delta(Point3(1j, 1.0), Point3(1j, 2.0)) == pytest.approx(5.0 / 4.0, abs=1e-15)
    p = Point3(0.3 + 0.4j, 0.7)
    assert delta(p, p) == pytest.approx(1.0, abs=1e-15)


def test_translation_and_inversion():
    p = Point3(1j, 1.0)
    t = MoebiusMatrix.make(1, 1, 0, 1)
    q = apply(t, p)
    assert q.z == pytest.approx(1 + 1j, abs=1e-12)
    assert q.r == pytest.approx(1.0, abs=1e-12)
    s = MoebiusMatrix.make(0, -1, 1, 0)
    q = apply(s, p)
    assert q.z == pytest.approx(0.5j, abs=1e-12)
    assert q.r == pytest.approx(0.5, abs=1e-12)


def test_delta_is_invariant_under_the_action():
    rng = random.Random(5)
    for _ in range(1000):
        m = _rand_matrix(rng)
        p, q = _rand_point(rng), _rand_point(rng)
        d0 = delta(p, q)
        d1 = delta(apply(m, p), apply(m, q))
        assert abs(d1 - d0) <= 1e-12 * max(1.0, abs(d0))
        assert d0 >= 1.0 - 1e-12
        assert delta(q, p) == pytest.approx(d0, rel=1e-14)


def test_action_is_a_homomorphism():
    rng = random.Random(9)
    for _ in range(200):
        m, n = _rand_matrix(rng), _rand_matrix(rng)
        p = _rand_point(rng)
        mn = MoebiusMatrix.make(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                                m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)
        lhs = apply(mn, p)
        rhs = apply(m, apply(n, p))
        assert lhs.z == pytest.approx(rhs.z, abs=1e-10)
        assert lhs.r == pytest.approx(rhs.r, abs=1e-10)


def test_sign_canonicalization():
    # both signs normalize to the same stored matrix
    m = MoebiusMatrix.make(2, 1, 1, 1)
    assert MoebiusMatrix.make(-2, -1, -1, -1) == m


def test_laplacian_eigenfunction():
    # r^(1+s) has eigenvalue 1-s^2; at s=2 the value at r is -3 r^3
    p = Point3(0.2 + 0.1j, 1.3)
    val = laplacian_fd(lambda q: q.r ** 3.0, p, h=1e-3)
    assert val == pytest.approx(-3.0 * 1.3 ** 3, rel=1e-5)


def test_laplacian_annihilates_harmonic_r():
    # r itself: -r^2 * 0 + r * 1 = r
    p = Point3(0j, 0.9)
    val = laplacian_fd(lambda q: q.r, p, h=1e-4)
    assert val == pytest.approx(0.9, rel=1e-6)


def test_laplacian_stencil_guard():
    with pytest.raises(ValueError):
        laplacian_fd(lambda q: q.r, Point3(0j, 1e-4), h=1e-3)
