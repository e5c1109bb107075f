"""Acceptance gate: every advertised guarantee, one pass/fail line each.

Run with -v to see the per-criterion verdict lines; each test prints its
measured figure next to the stated tolerance.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from selberg3.arithmetic_group import (EISENSTEIN_GROUP, PICARD,
                                       build_group_data, classify,
                                       enumerate_elements)
from selberg3.eisenstein import eigen_check
from selberg3.geometry import MoebiusMatrix, Point3, apply, delta
from selberg3.lattice_lfn import (SQUARE_LATTICE, Lattice, LatticeCharacter,
                                  L_value_direct, L_value_kronecker)
from selberg3.representation import find_character, singular_spaces, trivial_rep
from selberg3.trace_formula import (cosh_integral, cosh_integral_quad,
                                    cuspidal_identity_check, geometric_side)
from selberg3.transform import g_from_h, resolvent_pair
from selberg3.zeta import (_euler_factors, build_zeta_class_data,
                           central_difference_check, meromorphy_order,
                           meromorphy_report, topological_divisor)

OMEGA = cmath.exp(2j * math.pi / 3)
HEX_SHIFTED = Lattice(complex(0.5, math.sqrt(3.0) / 2.0))  # tau = 1 + omega


def verdict(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_kronecker_dual_path():
    pairs = [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)),
             (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))]
    worst = 0.0
    slowest = 0.0
    for lat in (SQUARE_LATTICE, HEX_SHIFTED):
        for u, v in pairs:
            start = time.monotonic()
            psi = LatticeCharacter(u, v)
            est = L_value_direct(lat, psi, x_max=1e6)
            closed = L_value_kronecker(lat, psi)
            elapsed = time.monotonic() - start
            worst = max(worst, abs(est.value - closed))
            slowest = max(slowest, elapsed)
    verdict(1, "kronecker-dual-path", worst <= 5e-3 and slowest < 60.0,
            f"max discrepancy {worst:.2e} <= 5e-3, slowest pair "
            f"{slowest:.1f}s < 60s")


def test_criterion_2_cuspidal_identity(picard_data, eisenstein_data):
    cases = [
        (picard_data, trivial_rep(PICARD.ring), "picard trivial"),
        (picard_data, find_character(PICARD, (1, 1), -1, -1, 1),
         "picard sign"),
        (eisenstein_data, trivial_rep(EISENSTEIN_GROUP.ring),
         "eisenstein trivial"),
        (eisenstein_data, find_character(EISENSTEIN_GROUP, (1, 2),
                                         OMEGA, OMEGA, 1),
         "eisenstein cube"),
    ]
    all_zero = True
    slowest = 0.0
    for gdata, chi, label in cases:
        start = time.monotonic()
        sing = singular_spaces(chi, gdata.stabilizer)
        residual = cuspidal_identity_check(
            gdata.cuspidal_elliptic, chi, sing.k_infinity, sing.l_infinity,
            gdata.group.index)
        slowest = max(slowest, time.monotonic() - start)
        all_zero = all_zero and residual.is_zero
    verdict(2, "cuspidal-identity", all_zero and slowest < 10.0,
            f"exact residual 0 in 4/4 cases, slowest {slowest:.2f}s < 10s")


def test_criterion_3_zeta_log_derivative_oracle():
    start = time.monotonic()
    gdata = build_group_data(PICARD, height=12, norm_bound=30.0)
    data = build_zeta_class_data(gdata.loxodromic, trivial_rep(PICARD.ring))
    worst = 0.0
    for s in (2.0, 2.5):
        check = central_difference_check(s, data, step=1e-4)
        worst = max(worst, check.relative_error)
    elapsed = time.monotonic() - start
    verdict(3, "zeta-log-derivative", worst <= 1e-6 and elapsed < 120.0,
            f"max relative error {worst:.2e} <= 1e-6 at norm bound 30, "
            f"{elapsed:.0f}s < 120s")


def test_criterion_4_integral_identity():
    start = time.monotonic()
    worst = 0.0
    for s in (1.5, 2.0, 3.0):
        for t in (math.pi / 2.0, 2.0 * math.pi / 3.0, math.pi):
            worst = max(worst, abs(cosh_integral(s, t)
                                   - cosh_integral_quad(s, t)))
    elapsed = time.monotonic() - start
    verdict(4, "cosh-integral-identity", worst <= 1e-8 and elapsed < 5.0,
            f"max |series - quadrature| {worst:.2e} <= 1e-8 over 9 pairs, "
            f"{elapsed:.2f}s < 5s")


def test_criterion_5_resolvent_transform_pair():
    start = time.monotonic()
    s, big = 2.0, 3.0
    triple = resolvent_pair(s, big)
    worst = 0.0
    for x in (0.0, 0.5, 1.0, 2.0, 5.0):
        closed = (math.exp(-s * abs(x)) / (2.0 * s)
                  - math.exp(-big * abs(x)) / (2.0 * big))
        worst = max(worst, abs(g_from_h(triple.h, x) - closed))
    elapsed = time.monotonic() - start
    verdict(5, "resolvent-transform-pair", worst <= 1e-6 and elapsed < 5.0,
            f"max |quadrature - closed form| {worst:.2e} <= 1e-6, "
            f"{elapsed:.2f}s < 5s")


EXPECTED_RESIDUES = {
    (1, 1, 1): ["1", "1", "1", "1", "1", "1"],
    (1, 0, 1): ["0", "0", "0", "0", "0", "0"],
    (1, 1, 2): ["1", "1", "1", "1", "1", "1"],
    (2, 1, 1): ["1", "0", "1", "0", "1", "0"],
    (2, 0, 1): ["0", "1", "0", "1", "0", "1"],
    (2, 1, 2): ["1", "1", "1", "1", "1", "1"],
    (3, 1, 1): ["2/3", "2/3", "-1/3", "2/3", "2/3", "-1/3"],
    (3, 0, 1): ["1/6", "1/6", "2/3", "1/6", "1/6", "2/3"],
    (3, 1, 2): ["5/6", "5/6", "1/3", "5/6", "5/6", "1/3"],
}


def test_criterion_6_divisor_tables():
    start = time.monotonic()
    exact = True
    for (index, k, l), expected in EXPECTED_RESIDUES.items():
        records = topological_divisor(index, k, l, float(k % 2), depth=6)
        got = [rec.residue for rec in records[1:]]
        exact = exact and got == [Fraction(e) for e in expected]
        exact = exact and records[0].residue == Fraction(int(k % 2) - k, 2)
    picard_order = meromorphy_order(topological_divisor(2, 1, 1, 1.0))
    report = meromorphy_report(topological_divisor(3, 1, 1, 1.0),
                               documented_order=6)
    contrast = (report.computed == 3 and report.documented == 6
                and report.matches is False and bool(report.note))
    elapsed = time.monotonic() - start
    verdict(6, "divisor-tables",
            exact and picard_order == 1 and contrast and elapsed < 5.0,
            f"9/9 rational tables exact, picard order {picard_order} == 1, "
            f"eisenstein computed {report.computed} vs documented "
            f"{report.documented} reported side by side, {elapsed:.2f}s")


def test_criterion_7_eisenstein_eigenfunction():
    start = time.monotonic()
    residual = eigen_check(Point3(complex(0.3, 0.2), 1.1), 2.0,
                           trivial_rep(PICARD.ring), [1.0], PICARD,
                           height=8, fd_step=1e-3)
    elapsed = time.monotonic() - start
    verdict(7, "eisenstein-eigenfunction",
            residual <= 1e-3 and elapsed < 60.0,
            f"relative residual {residual:.2e} <= 1e-3, "
            f"{elapsed:.1f}s < 60s")


def test_criterion_8_log_A_cancellation(picard_data, eisenstein_data,
                                        triple):
    start = time.monotonic()
    worst = 0.0
    for gdata in (picard_data, eisenstein_data):
        chi = trivial_rep(gdata.group.ring)
        sing = singular_spaces(chi, gdata.stabilizer)
        rep = geometric_side(triple, gdata, chi, A=5.0, norm_bound=14.0)
        target = triple.g(0.0) * sing.k_infinity
        worst = max(worst, abs(rep.logA_coefficient - target))
        assert rep.expected_logA_coefficient == pytest.approx(target,
                                                              abs=1e-15)
    elapsed = time.monotonic() - start
    verdict(8, "log-A-cancellation", worst <= 1e-9 and elapsed < 120.0,
            f"max |coefficient - g(0) k_inf| {worst:.2e} <= 1e-9 for both "
            f"groups, {elapsed:.1f}s < 120s")


def _rand_matrix(rng):
    while True:
        ent = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
               for _ in range(4)]
        if abs(ent[0] * ent[3] - ent[1] * ent[2]) > 0.1:
            return MoebiusMatrix.make(*ent)


def _rand_point(rng):
    return Point3(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                  rng.uniform(0.1, 4.0))


def test_criterion_9_property_suites(picard_data, eisenstein_data):
    # (a) point-pair invariant under the Moebius action
    rng = random.Random(20260825)
    delta_worst = 0.0
    for _ in range(1000):
        m = _rand_matrix(rng)
        p, q = _rand_point(rng), _rand_point(rng)
        d0 = delta(p, q)
        d1 = delta(apply(m, p), apply(m, q))
        delta_worst = max(delta_worst, abs(d1 - d0) / max(1.0, abs(d0)))
    delta_ok = delta_worst <= 1e-12

    # (b) classification invariance under every height-2 conjugation
    classify_ok = True
    for group in (PICARD, EISENSTEIN_GROUP):
        elements = enumerate_elements(group, 2)
        for t in elements:
            base = classify(t)
            for g in elements:
                c = classify(t.conjugate_by(g))
                if (c.kind != base.kind or c.order != base.order
                        or c.cuspidal != base.cuspidal):
                    classify_ok = False

    # (c) strict factor-modulus bound in the convergence half-plane
    factor_ok = True
    for gdata in (picard_data, eisenstein_data):
        data = build_zeta_class_data(gdata.loxodromic,
                                     trivial_rep(gdata.group.ring))
        for s in (1.000001, 2.0):
            x, _ = _euler_factors(complex(s), data, 6)
            factor_ok = factor_ok and bool(np.all(np.abs(x) < 1.0))

    # (d) c = 1 selection, exhaustively over one torsion period per class
    selection_ok = True
    torsion_seen = 0
    for gdata in (picard_data, eisenstein_data):
        data = build_zeta_class_data(gdata.loxodromic,
                                     trivial_rep(gdata.group.ring))
        for zcd in data:
            if zcd.m == 1:
                continue
            torsion_seen += 1
            m, zeta0 = zcd.m, zcd.cls.zeta0
            for tp, r in zip(zcd.t_prime_eigen, zcd.residues):
                count = 0
                for l in range(2 * m):
                    for k in range(2 * m):
                        exact = (l - k - r) % m == 0
                        numeric = abs(tp * zeta0 ** (2 * (l - k)) - 1.0) < 1e-9
                        selection_ok = selection_ok and (exact == numeric)
                        count += exact
                selection_ok = selection_ok and count == 4 * m
    selection_ok = selection_ok and torsion_seen >= 2

    verdict(9, "property-suites",
            delta_ok and classify_ok and factor_ok and selection_ok,
            f"delta invariance worst {delta_worst:.1e} <= 1e-12 over 10^3 "
            f"triples; classification exact under all height-2 conjugators; "
            f"factor modulus < 1 strict; c = 1 selection exact over "
            f"{torsion_seen} torsion classes")
