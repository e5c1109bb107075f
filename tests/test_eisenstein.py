"""Eisenstein series: coset enumeration, truncation tails, eigenvalue check."""

import math

import numpy as np
import pytest

from selberg3.arithmetic_group import (EISENSTEIN_GROUP, PICARD,
                                       enumerate_elements, identity,
                                       stabilizer_data)
from selberg3.eisenstein import (EisensteinSample, _bottom_row_key,
                                 coset_representatives, eigen_check,
                                 eisenstein_series, raw_orbit_normalized_sum,
                                 series_term)
from selberg3.geometry import Point3, laplacian_fd
from selberg3.representation import (find_character, singular_spaces,
                                     trivial_rep)

P0 = Point3(0.3 + 0.2j, 1.1)
TRIV_G = trivial_rep(PICARD.ring)
TRIV_E = trivial_rep(EISENSTEIN_GROUP.ring)
ONE = np.array([1.0])


class TestCosetRepresentatives:
    def test_counts_height_one(self):
        # identity coset + one canonical unit c with every small d
        assert len(coset_representatives(PICARD, 1)) == 6
        assert len(coset_representatives(EISENSTEIN_GROUP, 1)) == 8

    def test_unit_determinant_and_bound(self):
        for group in (PICARD, EISENSTEIN_GROUP):
            ring = group.ring
            for M in coset_representatives(group, 5):
                ad = ring.mul(M.a, M.d)
                bc = ring.mul(M.b, M.c)
                assert ring.sub(ad, bc) == (1, 0)
                assert ring.norm(M.c) <= 5 and ring.norm(M.d) <= 5

    def test_keys_distinct(self):
        for group in (PICARD, EISENSTEIN_GROUP):
            reps = coset_representatives(group, 6)
            keys = [_bottom_row_key(group, M.c, M.d) for M in reps]
            assert len(keys) == len(set(keys))

    def test_deterministic(self):
        a = coset_representatives(PICARD, 4)
        b = coset_representatives(PICARD, 4)
        assert [M.key() for M in a] == [M.key() for M in b]

    def test_identity_coset_present(self):
        reps = coset_representatives(PICARD, 3)
        assert identity(PICARD.ring) in reps

    def test_raw_bottom_rows_covered(self):
        # every bottom row seen in the raw enumeration appears as a coset key
        reps = {_bottom_row_key(PICARD, M.c, M.d)
                for M in coset_representatives(PICARD, 3)}
        for M in enumerate_elements(PICARD, 3):
            assert _bottom_row_key(PICARD, M.c, M.d) in reps

    def test_low_height_rejected(self):
        with pytest.raises(ValueError, match="height"):
            coset_representatives(PICARD, 0)


class TestSeries:
    def test_identity_coset_term(self):
        t = series_term(identity(PICARD.ring), P0, 2.0, TRIV_G, ONE)
        assert abs(t[0] - P0.r ** 3) < 1e-14

    def test_dominant_term_present(self):
        smp = eisenstein_series(P0, 2.0, TRIV_G, ONE, PICARD, 4)
        assert smp.value[0].real > P0.r ** 3
        assert math.isfinite(smp.tail_estimate)

    def test_two_heights_within_tail(self):
        a = eisenstein_series(P0, 2.0, TRIV_G, ONE, PICARD, 8)
        b = eisenstein_series(P0, 2.0, TRIV_G, ONE, PICARD, 16)
        assert np.abs(a.value - b.value).max() <= a.tail_estimate
        assert b.tail_estimate < a.tail_estimate

    def test_two_heights_hex(self):
        a = eisenstein_series(P0, 2.0, TRIV_E, ONE, EISENSTEIN_GROUP, 8)
        b = eisenstein_series(P0, 2.0, TRIV_E, ONE, EISENSTEIN_GROUP, 16)
        assert np.abs(a.value - b.value).max() <= a.tail_estimate

    def test_translation_invariance(self):
        # exact for the full series; truncations agree within both tails
        a = eisenstein_series(P0, 2.0, TRIV_G, ONE, PICARD, 16)
        b = eisenstein_series(Point3(P0.z + 1.0, P0.r), 2.0, TRIV_G, ONE,
                              PICARD, 16)
        assert np.abs(a.value - b.value).max() <= (a.tail_estimate
                                                   + b.tail_estimate)

    def test_cauchy_in_height(self):
        # tail drops like height^(1 - Re s); successive gaps shrink
        samples = [eisenstein_series(P0, 2.5, TRIV_G, ONE, PICARD, h)
                   for h in (6, 12, 24)]
        d1 = np.abs(samples[0].value - samples[1].value).max()
        d2 = np.abs(samples[1].value - samples[2].value).max()
        assert d2 < d1
        ratio = samples[1].tail_estimate / samples[0].tail_estimate
        assert abs(ratio - 2.0 ** (1 - 2.5)) < 1e-12

    def test_raw_sum_matches_dedup(self):
        for group, chi in ((PICARD, TRIV_G), (EISENSTEIN_GROUP, TRIV_E)):
            raw = raw_orbit_normalized_sum(group, P0, 2.5, chi, ONE, 3)
            seen = {}
            for M in enumerate_elements(group, 3):
                seen.setdefault(_bottom_row_key(group, M.c, M.d), M)
            ded = sum(series_term(M, P0, 2.5, chi, ONE)
                      for M in seen.values())
            assert np.abs(raw - ded).max() < 1e-12

    def test_complex_s(self):
        smp = eisenstein_series(P0, 2.0 + 1.5j, TRIV_G, ONE, PICARD, 6)
        assert smp.value.shape == (1,)
        assert math.isfinite(abs(smp.value[0]))

    def test_vector_valued_singular(self, s3_table_rep):
        sing = singular_spaces(s3_table_rep, stabilizer_data(PICARD))
        assert sing.k_infinity == 1
        v = sing.V_infinity[:, 0]
        a = eisenstein_series(P0, 2.0, s3_table_rep, v, PICARD, 6)
        b = eisenstein_series(P0, 2.0, s3_table_rep, v, PICARD, 12)
        assert np.abs(a.value - b.value).max() <= a.tail_estimate
        # dominant term is r^{1+s} v
        lead = (P0.r ** 3) * v
        assert np.abs(a.value - lead).max() < a.value[np.argmax(np.abs(v))].real

    def test_rejects_nonsingular_vector(self):
        sign = find_character(PICARD, (1, 1), on_R=-1, on_S=-1, on_E=1)
        with pytest.raises(ValueError, match="singular"):
            eisenstein_series(P0, 2.0, sign, ONE, PICARD, 4)

    def test_rejects_nonsingular_component(self, s3_table_rep):
        # generic vector has a component outside the fixed line
        with pytest.raises(ValueError, match="singular"):
            eisenstein_series(P0, 2.0, s3_table_rep, np.array([1.0, 1.0]), PICARD, 4)

    def test_rejects_small_re_s(self):
        with pytest.raises(ValueError, match="Re"):
            eisenstein_series(P0, 1.0, TRIV_G, ONE, PICARD, 4)

    def test_rejects_insufficient_height(self):
        with pytest.raises(ValueError, match="height"):
            eisenstein_series(P0, 2.0, TRIV_G, ONE, PICARD, 0)

    def test_sample_fields(self):
        smp = eisenstein_series(P0, 2.0, TRIV_G, ONE, PICARD, 4)
        assert isinstance(smp, EisensteinSample)
        assert smp.point == P0 and smp.height == 4 and smp.s == 2.0


class TestEigenCheck:
    def test_single_term_fd_order(self):
        # r^{1+s} alone: residual is pure second-order stencil error
        s = 2.0
        f = lambda Q: Q.r ** (1.0 + s)
        lap = laplacian_fd(f, P0, 1e-3)
        rel = abs(lap - (1 - s * s) * f(P0)) / abs(f(P0))
        assert rel < 1e-4

    def test_truncated_sum_is_exact_eigenfunction(self):
        res = eigen_check(P0, 2.0, TRIV_G, ONE, PICARD, 8, 1e-3)
        assert res <= 1e-3

    def test_residual_fd_limited_at_all_heights(self):
        # the coset cutoff is P-independent, so truncation never enters the
        # residual; it stays at stencil-error scale however deep the sum goes
        for h in (2, 6, 10):
            res = eigen_check(P0, 2.0, TRIV_G, ONE, PICARD, h, 1e-3)
            assert res < 1e-4

    def test_residual_scales_with_fd_step(self):
        coarse = eigen_check(P0, 2.0, TRIV_G, ONE, PICARD, 6, 4e-3)
        fine = eigen_check(P0, 2.0, TRIV_G, ONE, PICARD, 6, 1e-3)
        assert fine < coarse

    def test_hex_group(self):
        res = eigen_check(P0, 2.0, TRIV_E, ONE, EISENSTEIN_GROUP, 8, 1e-3)
        assert res <= 1e-3

    def test_vector_valued(self, s3_table_rep):
        v = singular_spaces(s3_table_rep, stabilizer_data(PICARD)).V_infinity[:, 0]
        res = eigen_check(P0, 2.0, s3_table_rep, v, PICARD, 6, 1e-3)
        assert res <= 1e-3

    def test_stencil_leaves_space(self):
        with pytest.raises(ValueError, match="stencil"):
            eigen_check(Point3(0.0, 5e-4), 2.0, TRIV_G, ONE, PICARD, 2, 1e-3)
