"""Lattice sums, the kappa constant, and the two L-value routes."""
import cmath
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from selberg3.lattice_lfn import (
    HEX_LATTICE,
    LADDER_RUNGS,
    KappaFit,
    LValueEstimate,
    Lattice,
    LatticeCharacter,
    SQUARE_LATTICE,
    TRIVIAL_CHARACTER,
    L_value_direct,
    L_value_kronecker,
    bernoulli_B2,
    kappa_lattice,
    ladder_sums,
    siegel_g,
)

HEX_SHIFTED = Lattice(complex(0.5, math.sqrt(3.0) / 2.0))  # tau = 1 + omega

# Closed forms from the Dedekind zeta factorization of the norm-form
# Dirichlet series: 4 zeta(s) beta(s) for Z[i], 6 zeta(s) L(s, chi_-3)
# for Z[omega].  kappa = gamma + L'(1)/L(1) in both cases.
KAPPA_SQUARE = 0.822825249679
KAPPA_HEX = 0.945497280872


def brute_Z(x, lat, psi):
    """Independent double loop over m + n tau; no row bounds, no vectorization."""
    r = int(math.sqrt(x) / min(lat.area, 1.0)) + 2
    total = 0.0 + 0.0j
    for m in range(-r, r + 1):
        for n in range(-r, r + 1):
            if m == 0 and n == 0:
                continue
            q = abs(m + n * lat.tau) ** 2
            if q <= x + 1e-9:
                total += psi(m, n) / q
    return total


# -- per-cutoff reference: one sweep of the lattice rows per cutoff ---------

def reference_row_bounds(lat, x, n):
    c, b, _ = lat.norm_form()
    disc = (b * n) ** 2 - 4.0 * c * (n * n - x)
    if disc < 0:
        return 1, 0
    sq = math.sqrt(disc)
    lo = math.ceil((-b * n - sq) / (2.0 * c) - 1e-12)
    hi = math.floor((-b * n + sq) / (2.0 * c) + 1e-12)
    return lo, hi


def reference_rows(x, lat):
    """Rows (n, m, |m tau + n|^2) of one cutoff's own sweep, ascending n."""
    c, b, exact = lat.norm_form()
    n_max = int(math.floor(math.sqrt(x) * abs(lat.tau) / lat.area + 1))
    for n in range(-n_max, n_max + 1):
        lo, hi = reference_row_bounds(lat, x, n)
        if lo > hi:
            continue
        m = np.arange(lo, hi + 1, dtype=np.int64)
        if exact:
            q = c * m * m + b * m * n + n * n
            keep = (q <= x) & (q > 0)
        else:
            q = c * m.astype(float) ** 2 + b * m.astype(float) * n + float(n * n)
            keep = (q <= x) & (q > 1e-15)
        if n == 0:
            keep &= m != 0
        yield n, m[keep], q[keep].astype(float)


def reference_Z(x, lat, psi):
    """Z(x) by its own sweep: the summation order ladder_sums must keep."""
    u, v = float(psi.u), float(psi.v)
    total = 0.0 + 0.0j
    for n, m, q in reference_rows(x, lat):
        phase = np.exp(2j * np.pi * (v * m)) * np.exp(2j * np.pi * (u * n))
        total += complex(np.sum(phase / q))
    return total


def reference_Z_single_exp(x, lat, psi):
    """Z(x) with one exp per point, psi = exp(2 pi i (v m + u n)); it and
    the per-axis product differ by round-off only."""
    u, v = float(psi.u), float(psi.v)
    total = 0.0 + 0.0j
    for n, m, q in reference_rows(x, lat):
        total += complex(np.sum(np.exp(2j * np.pi * (v * m + u * n)) / q))
    return total


def reference_ladder(x_max):
    """Cutoffs x_max 10^(-j/16), j = 0..16, descending."""
    return [x_max * 10.0 ** (-j / LADDER_RUNGS) for j in range(LADDER_RUNGS + 1)]


@functools.lru_cache(maxsize=None)
def reference_ladder_sums(lat, uv, x_max):
    psi = LatticeCharacter(*uv)
    return [reference_Z(x, lat, psi) for x in reference_ladder(x_max)]


def partial_sum_Z(x, lat, psi):
    """Z(x) at one cutoff."""
    return ladder_sums([x], lat, psi)[0]


def reference_L(vals, x_max):
    mean = sum(vals) / len(vals)
    spread = max(abs(z - mean) for z in vals)
    error = max(spread / math.sqrt(len(vals)), 4.0 / math.sqrt(x_max))
    return LValueEstimate(value=mean, error=error)


def reference_kappa(lat, x_max):
    """The kappa fit, its cutoffs ascending, on the reference sums."""
    xs = np.array(reference_ladder(x_max)[::-1])
    zs = np.array([z.real for z in reference_ladder_sums(lat, (0, 0), x_max)[::-1]])
    logs = np.log(xs)
    exact_slope = math.pi / lat.area
    kappa = float(np.mean(zs / exact_slope - logs))
    a = np.vstack([logs, np.ones_like(logs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, zs, rcond=None)
    band = float(np.max(np.abs(zs - exact_slope * (logs + kappa))))
    return KappaFit(kappa=kappa, slope=float(slope), error_band=band,
                    checkpoints=tuple(float(x) for x in xs))


class TestNormForms:
    def test_supported_generators_are_exact(self):
        for tau, expect in [(1j, (1, 0)), (2j, (4, 0)),
                            (complex(-0.5, math.sqrt(3.0) / 2.0), (1, -1)),
                            (complex(0.5, math.sqrt(3.0) / 2.0), (1, 1))]:
            c, b, exact = Lattice(tau).norm_form()
            assert exact
            assert (c, b) == expect

    def test_generic_tau_inexact(self):
        c, b, exact = Lattice(complex(0.3, 1.7)).norm_form()
        assert not exact
        assert math.isclose(c, 0.3 ** 2 + 1.7 ** 2)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            Lattice(-1j)


class TestPartialSums:
    def test_unit_norm_points_square(self):
        # four units of Z[i], each contributing 1
        assert partial_sum_Z(1.0, SQUARE_LATTICE, TRIVIAL_CHARACTER) == pytest.approx(4.0)

    def test_unit_norm_points_square_signed(self):
        psi = LatticeCharacter(Fraction(1, 2), Fraction(1, 2))
        z = partial_sum_Z(1.0, SQUARE_LATTICE, psi)
        assert z == pytest.approx(-4.0)

    def test_unit_norm_points_hex(self):
        assert partial_sum_Z(1.0, HEX_LATTICE, TRIVIAL_CHARACTER) == pytest.approx(6.0)

    # tau = 2i has an asymmetric norm form m^2 + 4n^2, so the brute-force
    # comparison there pins down which coordinate each phase multiplies
    @pytest.mark.parametrize("lat", [SQUARE_LATTICE, HEX_LATTICE, HEX_SHIFTED, Lattice(2j)])
    @pytest.mark.parametrize("uv", [(0, 0), (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(2, 3))])
    def test_matches_brute_force(self, lat, uv):
        psi = LatticeCharacter(*uv)
        fast = partial_sum_Z(300.0, lat, psi)
        slow = brute_Z(300.0, lat, psi)
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))

    def test_brute_force_at_larger_cutoff(self):
        fast = partial_sum_Z(1e4, SQUARE_LATTICE, TRIVIAL_CHARACTER)
        slow = brute_Z(1e4, SQUARE_LATTICE, TRIVIAL_CHARACTER)
        assert abs(fast - slow) <= 1e-10 * abs(slow)

    def test_nonpositive_cutoff_rejected(self):
        with pytest.raises(ValueError):
            partial_sum_Z(0.0, SQUARE_LATTICE, TRIVIAL_CHARACTER)

    def test_difference_law(self):
        # Z(4x) - Z(x) = (pi/area) log 4 + O(x^(-1/2))
        for x in (1e4, 1e5):
            diff = (partial_sum_Z(4 * x, SQUARE_LATTICE, TRIVIAL_CHARACTER)
                    - partial_sum_Z(x, SQUARE_LATTICE, TRIVIAL_CHARACTER)).real
            assert abs(diff - math.pi * math.log(4.0)) <= x ** -0.5


LADDER_LATTICES = [SQUARE_LATTICE, HEX_LATTICE, HEX_SHIFTED, Lattice(2j),
                   Lattice(complex(0.3, 1.1))]  # the last has a float norm form
LADDER_CHARACTERS = [(0, 0), (Fraction(1, 3), Fraction(2, 3)), (0.25, 0.1)]


@pytest.mark.parametrize("x_max", [1e3, 2e5])
@pytest.mark.parametrize("uv", LADDER_CHARACTERS)
@pytest.mark.parametrize("lat", LADDER_LATTICES, ids=lambda lat: repr(lat.tau))
class TestLadderSums:
    """One sweep for the whole ladder gives the per-cutoff sums bit for bit."""

    def test_each_cutoff_bit_identical(self, lat, uv, x_max):
        psi = LatticeCharacter(*uv)
        xs = reference_ladder(x_max)
        ref = reference_ladder_sums(lat, uv, x_max)
        assert ladder_sums(xs, lat, psi) == ref
        assert ladder_sums(xs[::-1], lat, psi) == ref[::-1]
        assert [partial_sum_Z(x, lat, psi) for x in xs[::4]] == ref[::4]

    def test_fit_and_L_value_repr_identical(self, lat, uv, x_max):
        psi = LatticeCharacter(*uv)
        if psi.is_trivial:
            assert repr(kappa_lattice(lat, x_max)) == repr(reference_kappa(lat, x_max))
        else:
            want = reference_L(reference_ladder_sums(lat, uv, x_max), x_max)
            assert repr(L_value_direct(lat, psi, x_max)) == repr(want)


@pytest.mark.parametrize("x_max", [1e3, 2e5])
@pytest.mark.parametrize("uv", [(Fraction(1, 3), Fraction(2, 3)), (0.25, 0.1),
                                (Fraction(1, 2), Fraction(1, 2))])
@pytest.mark.parametrize("lat", LADDER_LATTICES, ids=lambda lat: repr(lat.tau))
def test_per_axis_phases_within_round_off_of_one_exp(lat, uv, x_max):
    psi = LatticeCharacter(*uv)
    xs = reference_ladder(x_max)[::8]
    for x, z in zip(xs, ladder_sums(xs, lat, psi)):
        assert abs(z - reference_Z_single_exp(x, lat, psi)) <= 1e-13 * max(1.0, abs(z))


@pytest.mark.parametrize("uv", LADDER_CHARACTERS)
@pytest.mark.parametrize("lat, xs", [
    (SQUARE_LATTICE, [0.5]),                   # below the shortest vector
    (SQUARE_LATTICE, [0.99, 50.0]),
    (SQUARE_LATTICE, [5.0, 5.0, 2.0, 5.0]),    # duplicates
    (SQUARE_LATTICE, [1.0, 2.0, 4.0]),         # at norms of Z[i]
    (HEX_LATTICE, [1.0, 3.0]),                 # at norms of Z[omega]
    (HEX_LATTICE, [50.0]),
    (HEX_SHIFTED, [10.0, 3.0, 30.0, 1.0]),     # unsorted
    (Lattice(complex(0.3, 1.1)), [40.0, 0.2, 7.0]),
], ids=str)
def test_edge_cutoffs_bit_identical(lat, xs, uv):
    psi = LatticeCharacter(*uv)
    got = ladder_sums(xs, lat, psi)
    assert got == [reference_Z(x, lat, psi) for x in xs]
    # the shortest vectors of every lattice listed have norm 1
    assert all(z == 0j for x, z in zip(xs, got) if x < 1.0)


def test_sweep_memory_is_bounded():
    psi = LatticeCharacter(Fraction(1, 3), Fraction(1, 4))
    tracemalloc.start()
    try:
        L_value_direct(HEX_SHIFTED, psi, x_max=1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


class TestKappa:
    def test_slope_matches_residue_square(self):
        fit = kappa_lattice(SQUARE_LATTICE, x_max=1e5)
        assert abs(fit.slope - math.pi) <= 0.01 * math.pi

    def test_slope_matches_residue_hex(self):
        fit = kappa_lattice(HEX_LATTICE, x_max=1e5)
        target = math.pi / HEX_LATTICE.area
        assert abs(fit.slope - target) <= 0.01 * target

    def test_slope_scales_with_covolume(self):
        ratio = (kappa_lattice(SQUARE_LATTICE, x_max=1e5).slope
                 / kappa_lattice(Lattice(2j), x_max=1e5).slope)
        assert abs(ratio - 2.0) <= 0.05

    def test_kappa_stable_under_cutoff_change(self):
        k1 = kappa_lattice(SQUARE_LATTICE, x_max=1e5).kappa
        k4 = kappa_lattice(SQUARE_LATTICE, x_max=4e5).kappa
        assert abs(k1 - k4) <= 1e-3

    def test_kappa_against_closed_form(self):
        assert abs(kappa_lattice(SQUARE_LATTICE, x_max=2e5).kappa - KAPPA_SQUARE) <= 5e-4
        assert abs(kappa_lattice(HEX_LATTICE, x_max=2e5).kappa - KAPPA_HEX) <= 5e-4

    def test_float_protocol(self):
        fit = kappa_lattice(SQUARE_LATTICE, x_max=1e4)
        assert float(fit) == fit.kappa

    def test_tiny_cutoff_rejected(self):
        with pytest.raises(ValueError):
            kappa_lattice(SQUARE_LATTICE, x_max=100.0)

    def test_cache_keys_on_value_not_spelling(self):
        kappa_lattice.cache_clear()
        fits = [kappa_lattice(SQUARE_LATTICE), kappa_lattice(SQUARE_LATTICE, 1e5),
                kappa_lattice(SQUARE_LATTICE, x_max=1e5),
                kappa_lattice(SQUARE_LATTICE, 100000)]
        assert kappa_lattice.cache_info().misses == 1
        assert all(fit is fits[0] for fit in fits)


class TestCharacters:
    def test_reduction_mod_one(self):
        psi = LatticeCharacter(Fraction(3, 2), Fraction(-1, 4))
        assert psi.reduced() == (Fraction(1, 2), Fraction(3, 4))

    def test_trivial_detection(self):
        assert TRIVIAL_CHARACTER.is_trivial
        assert LatticeCharacter(1, -2).is_trivial
        assert not LatticeCharacter(Fraction(1, 2), 0).is_trivial

    def test_conjugate_inverts_values(self):
        psi = LatticeCharacter(Fraction(1, 3), Fraction(5, 7))
        for m, n in [(1, 0), (2, -3), (-5, 4)]:
            assert cmath.isclose(psi.conjugate()(m, n), psi(m, n).conjugate())


class TestLValues:
    def test_anchor_value_square_half_half(self):
        # sum of (-1)^(m+n)/|mi+n|^2 = -pi log 2 classically
        psi = LatticeCharacter(Fraction(1, 2), Fraction(1, 2))
        anchor = -math.pi * math.log(2.0)
        assert abs(L_value_kronecker(SQUARE_LATTICE, psi) - anchor) <= 1e-9
        est = L_value_direct(SQUARE_LATTICE, psi, x_max=2e5)
        assert abs(est.value - anchor) <= est.error

    @pytest.mark.parametrize("lat", [SQUARE_LATTICE, HEX_SHIFTED])
    @pytest.mark.parametrize("uv", [
        (Fraction(1, 2), 0), (0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), 0),
        (Fraction(1, 6), Fraction(5, 6)),
    ])
    def test_dual_routes_agree(self, lat, uv):
        psi = LatticeCharacter(*uv)
        est = L_value_direct(lat, psi, x_max=2e5)
        closed = L_value_kronecker(lat, psi)
        assert abs(est.value - closed) <= est.error
        assert abs(est.value - closed) <= 2e-3
        assert abs(est.value.imag) <= est.error

    def test_conjugate_character_conjugates_L(self):
        psi = LatticeCharacter(Fraction(1, 3), Fraction(1, 4))
        a = L_value_direct(SQUARE_LATTICE, psi, x_max=1e5).value
        b = L_value_direct(SQUARE_LATTICE, psi.conjugate(), x_max=1e5).value
        assert abs(a.conjugate() - b) <= 1e-10

    def test_parameter_periodicity(self):
        base = LatticeCharacter(Fraction(1, 3), Fraction(2, 3))
        shifted = LatticeCharacter(Fraction(4, 3), Fraction(-1, 3))
        a = L_value_kronecker(SQUARE_LATTICE, base)
        b = L_value_kronecker(SQUARE_LATTICE, shifted)
        assert abs(a - b) <= 1e-12
        za = partial_sum_Z(500.0, SQUARE_LATTICE, base)
        zb = partial_sum_Z(500.0, SQUARE_LATTICE, shifted)
        assert abs(za - zb) <= 1e-10

    def test_norm_form_computed_once_per_sweep(self, monkeypatch):
        calls = []
        norm_form = Lattice.norm_form

        def counted(lat):
            calls.append(lat)
            return norm_form(lat)

        monkeypatch.setattr(Lattice, "norm_form", counted)
        L_value_direct(SQUARE_LATTICE, LatticeCharacter(Fraction(1, 2), 0),
                       x_max=1e5)
        assert calls == [SQUARE_LATTICE]

    def test_trivial_character_rejected(self):
        with pytest.raises(ValueError):
            L_value_direct(SQUARE_LATTICE, TRIVIAL_CHARACTER)
        with pytest.raises(ValueError):
            L_value_kronecker(SQUARE_LATTICE, LatticeCharacter(2, -1))


class TestSiegel:
    def test_bernoulli_values(self):
        assert bernoulli_B2(0.0) == pytest.approx(1.0 / 6.0)
        assert bernoulli_B2(0.5) == pytest.approx(-1.0 / 12.0)
        assert bernoulli_B2(1.0) == pytest.approx(1.0 / 6.0)

    def test_modulus_invariant_under_integer_shifts(self):
        tau = complex(0.5, math.sqrt(3.0) / 2.0)
        base = abs(siegel_g(0.25, 1.0 / 3.0, tau).value)
        for da, db in [(1, 0), (0, 1), (-2, 3)]:
            shifted = abs(siegel_g(0.25 + da, 1.0 / 3.0 + db, tau).value)
            assert abs(shifted - base) <= 1e-10 * base

    def test_truncation_bound_is_honest(self):
        coarse = siegel_g(0.25, 0.1, 1j, tol=1e-4)
        fine = siegel_g(0.25, 0.1, 1j, tol=1e-18)
        assert fine.terms >= coarse.terms
        assert fine.truncation_bound <= coarse.truncation_bound
        assert abs(coarse.value - fine.value) <= coarse.truncation_bound + 1e-15

    def test_integral_parameters_rejected(self):
        with pytest.raises(ValueError):
            siegel_g(1.0, -2.0, 1j)
        with pytest.raises(ValueError):
            siegel_g(0.5, 0.5, -1j)

    def test_complex_protocol(self):
        g = siegel_g(0.5, 0.5, 1j)
        assert complex(g) == g.value
