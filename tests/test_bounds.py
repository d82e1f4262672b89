"""Normal-approximation benchmark: limit properties and frozen values."""

import numpy as np
import pytest
from scipy.stats import norm

from tbmpsk.bounds import (
    _q_inv,
    awgn_capacity,
    awgn_dispersion,
    db_to_linear,
    linear_to_db,
    min_snr_for_rate,
    normal_approx_rate,
    tbm_rate,
)
from tbmpsk.ring_code import TensorShape

# frozen: computed once at n=3200, eps=1e-2, snr=0 dB
RATE_3200 = 0.9504380819331502


class TestNormalApprox:
    def test_frozen_value(self):
        assert abs(normal_approx_rate(3200, 1e-2, 1.0) - RATE_3200) < 1e-9

    def test_capacity_limit(self):
        # penalty terms vanish as n grows
        snr = db_to_linear(5.0)
        c = awgn_capacity(snr)
        r = normal_approx_rate(10**9, 1e-2, snr)
        assert r < c
        assert c - r < 1e-3

    def test_half_error_degeneracy(self):
        # Qinv(1/2) = 0 leaves capacity plus the log term only
        n, snr = 500, 2.0
        want = awgn_capacity(snr) + np.log2(n) / (2 * n)
        assert abs(normal_approx_rate(n, 0.5, snr) - want) < 1e-12

    def test_monotone_in_snr(self):
        rates = [normal_approx_rate(3200, 1e-2, s) for s in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_monotone_in_blocklength(self):
        rates = [normal_approx_rate(n, 1e-2, 1.0) for n in (100, 1000, 10000)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_dispersion_endpoints(self):
        assert awgn_dispersion(0.0) == 0.0
        # snr -> inf: V -> log2(e)^2
        assert abs(awgn_dispersion(1e9) - np.log2(np.e) ** 2) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            normal_approx_rate(0, 1e-2, 1.0)
        with pytest.raises(ValueError):
            normal_approx_rate(100, 0.0, 1.0)
        with pytest.raises(ValueError):
            normal_approx_rate(100, 1e-2, -1.0)

    @pytest.mark.parametrize("snr", [np.inf, float("nan")])
    def test_rejects_non_finite_snr(self, snr):
        with pytest.raises(ValueError):
            normal_approx_rate(100, 1e-2, snr)

    def test_q_inv_matches_normal_isf(self):
        # each is within 9e-16 relative of the exact quantile on [1e-6, 0.5]
        # (checked against 40-digit arithmetic), so they differ by up to 5 ulp
        for eps in np.concatenate([np.geomspace(1e-6, 0.5, 1000), [1e-4, 0.01, 0.05, 0.1]]):
            want = float(norm.isf(eps))
            assert abs(_q_inv(float(eps)) - want) <= 1e-15 * abs(want)


class TestMinSnr:
    def test_round_trip(self):
        for rate in (0.026875, 0.625, 2.0):
            snr = min_snr_for_rate(3200, 1e-2, rate)
            assert abs(normal_approx_rate(3200, 1e-2, snr) - rate) < 1e-5

    def test_unreachable_rate_raises(self):
        with pytest.raises(RuntimeError):
            min_snr_for_rate(3200, 1e-2, 40.0)

    @pytest.mark.parametrize("dims, m, eps, want", [
        # perfbench's sweep configurations
        ((4, 2, 2), 4, 0.05, 1.0217485064380527),
        ((4, 4, 2), 4, 0.05, 0.6114066156937406),
        # the configurations of tests/replay_fixtures/sweep.csv
        ((4, 2, 2), 2, 0.1, 0.4324046886510216),
        ((4, 2, 2), 4, 0.1, 0.8519494800505724),
        ((2, 2), 2, 0.1, 1.0869674204524586),
        ((2, 2), 4, 0.1, 2.0832949873719455),
    ])
    def test_frozen_sweep_bounds(self, dims, m, eps, want):
        # frozen when the tail inverse came from scipy.stats.norm.isf
        sh = TensorShape(dims, m)
        assert min_snr_for_rate(sh.blocklength, eps, tbm_rate(sh, 1)) == want

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            min_snr_for_rate(3200, 1e-2, 0.0)

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError):
            min_snr_for_rate(3200, 1e-2, float("nan"))


class TestTbmRate:
    def test_cases_4x2x2(self):
        sh = TensorShape((4, 2, 2), 4)
        assert tbm_rate(sh, 3) == 0.75
        assert tbm_rate(sh, 1) == 0.625

    def test_blocklength_3200_case1(self):
        sh = TensorShape((10, 20, 16), 4)
        assert tbm_rate(sh, 1) == (43 / 3200) * 2

    def test_case2_exceeds_case3(self):
        sh = TensorShape((5, 4, 3), 4)
        assert tbm_rate(sh, 2) > tbm_rate(sh, 3) > tbm_rate(sh, 1)


class TestDbConversion:
    def test_round_trip(self):
        for db in (-10.0, 0.0, 3.0, 17.5):
            assert abs(linear_to_db(db_to_linear(db)) - db) < 1e-12

    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            linear_to_db(float("nan"))

    def test_ends_of_the_float_range(self):
        assert db_to_linear(4000.0) == np.inf
        assert db_to_linear(-4000.0) == 0.0
