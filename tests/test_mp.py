import math

import numpy as np
import pytest

from gaitmp import (
    DataError,
    TimeSeries,
    brute_force_mp,
    distance_profile,
    matrix_profile_self,
    sliding_dot_product,
)
from gaitmp.mp import NO_NEIGHBOR
from oracle import znorm_distance, znormalize


def naive_sliding_dot(query, series):
    m = len(query)
    return np.array([np.dot(query, series[i : i + m]) for i in range(len(series) - m + 1)])


def naive_distance_profile(query, series):
    m = len(query)
    return np.array([znorm_distance(query, series[i : i + m]) for i in range(len(series) - m + 1)])


class TestZnormalize:
    def test_moments(self):
        rng = np.random.default_rng(0)
        z = znormalize(rng.normal(3.0, 5.0, size=128))
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-12

    def test_constant_maps_to_zeros(self):
        assert np.array_equal(znormalize(np.full(16, 4.2)), np.zeros(16))

    def test_near_constant_under_eps(self):
        x = 7.0 + np.linspace(0, 1e-10, 32)
        assert np.array_equal(znormalize(x), np.zeros(32))

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64)
        np.testing.assert_allclose(znormalize(3.5 * x - 2.0), znormalize(x), atol=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            znormalize(np.array([1.0, np.nan, 3.0]))


class TestZnormDistance:
    def test_identical_windows(self):
        x = np.sin(np.arange(20.0))
        assert znorm_distance(x, x) == 0.0

    def test_scaled_copy_is_zero(self):
        x = np.sin(np.arange(20.0))
        assert znorm_distance(x, 10.0 * x + 3.0) < 1e-12

    def test_negated_window_hits_upper_bound(self):
        # zn(-a) = -zn(a) and |zn(a)| = sqrt(m), so d(a, -a) = 2*sqrt(m).
        rng = np.random.default_rng(2)
        a = rng.normal(size=16)
        assert abs(znorm_distance(a, -a) - 8.0) < 1e-12

    def test_degenerate_pairs(self):
        flat = np.ones(9)
        wavy = np.sin(np.arange(9.0))
        assert znorm_distance(flat, 2 * flat) == 0.0
        assert abs(znorm_distance(flat, wavy) - 3.0) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            znorm_distance(np.arange(5.0), np.arange(6.0))

    def test_too_short(self):
        with pytest.raises(ValueError):
            znorm_distance(np.array([1.0, 2.0]), np.array([3.0, 4.0]))


class TestSlidingDotProduct:
    @pytest.mark.parametrize("n,m", [(10, 3), (64, 17), (1500, 40)])
    def test_matches_naive(self, n, m):
        rng = np.random.default_rng(n + m)
        q, t = rng.normal(size=m), rng.normal(size=n)
        np.testing.assert_allclose(sliding_dot_product(q, t), naive_sliding_dot(q, t), atol=1e-9)

    def test_full_length_query_is_single_dot(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=30)
        out = sliding_dot_product(t, t)
        assert out.shape == (1,)
        assert abs(out[0] - np.dot(t, t)) < 1e-9

    def test_long_series_matches_naive(self):
        rng = np.random.default_rng(4)
        q, t = rng.normal(size=25), rng.normal(size=2000)
        np.testing.assert_allclose(sliding_dot_product(q, t), naive_sliding_dot(q, t), atol=1e-9)

    def test_query_longer_than_series(self):
        with pytest.raises(ValueError):
            sliding_dot_product(np.arange(5.0), np.arange(3.0))


class TestDistanceProfile:
    def test_matches_naive(self):
        rng = np.random.default_rng(5)
        t = rng.normal(size=50)
        q = t[11:18].copy()
        np.testing.assert_allclose(distance_profile(q, t), naive_distance_profile(q, t), atol=1e-9)

    def test_self_match_is_zero(self):
        rng = np.random.default_rng(6)
        t = rng.normal(size=80)
        prof = distance_profile(t[20:30].copy(), t)
        # the correlation formula carries ~1e-7 noise at exact matches;
        # near-duplicates are recomputed from z-normalized windows
        assert prof[20] == 0.0
        assert prof.shape == (71,)

    def test_constant_series_degenerate(self):
        q = np.sin(np.arange(9.0))
        prof = distance_profile(q, np.full(40, 2.5))
        np.testing.assert_allclose(prof, 3.0, atol=1e-12)

    def test_constant_query_on_constant_series(self):
        prof = distance_profile(np.full(9, 1.0), np.full(40, 7.0))
        np.testing.assert_allclose(prof, 0.0)

    def test_long_series_matches_naive(self):
        rng = np.random.default_rng(7)
        t = rng.normal(size=1400)
        q = t[300:320].copy()
        np.testing.assert_allclose(distance_profile(q, t), naive_distance_profile(q, t), atol=1e-9)

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            distance_profile(np.array([1.0, np.nan, 3.0]), np.arange(10.0))

    @pytest.mark.parametrize("level", [0.37, 9.81, 123.0, -4.37])
    @pytest.mark.parametrize("m", [25, 53, 100])
    def test_rest_between_motion_matches_definition(self, level, m):
        # a sensor at rest between two stretches of motion: the running sums
        # cancel over the rest, whose windows must still read as constant
        rng = np.random.default_rng(16)
        t = np.concatenate([rng.normal(size=300), np.full(400, level), rng.normal(size=300)])
        # from motion, across the start of the rest, and at rest
        for q in (t[100 : 100 + m], t[300 - m // 2 : 300 - m // 2 + m], np.full(m, level)):
            np.testing.assert_allclose(
                distance_profile(q, t), naive_distance_profile(q, t), rtol=0, atol=1e-9
            )


class TestMatrixProfileSelf:
    def test_profile_length(self):
        rng = np.random.default_rng(8)
        res = matrix_profile_self(rng.normal(size=100), m=10)
        assert res.profile.shape == (91,)
        assert res.indices.shape == (91,)
        assert res.exclusion == 5

    @pytest.mark.parametrize("seed,n,m", [(0, 120, 8), (1, 200, 16), (2, 333, 25), (3, 97, 11)])
    def test_matches_brute_force(self, seed, n, m):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=n)
        fast = matrix_profile_self(t, m)
        slow = brute_force_mp(t, m)
        np.testing.assert_allclose(fast.profile, slow.profile, atol=1e-9)
        np.testing.assert_array_equal(fast.indices, slow.indices)

    def test_nearer_of_two_planted_near_duplicates_wins(self):
        # both copies sit at the noise floor of the correlation formula,
        # which ranks them either way
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=120)
            w = x[10:18].copy()
            x[50:58] = w + 2e-8 * rng.normal(size=8)
            x[90:98] = w + 1e-8 * rng.normal(size=8)
            fast = matrix_profile_self(x, 8)
            slow = brute_force_mp(x, 8)
            assert fast.indices[10] == slow.indices[10]
            assert abs(fast.profile[10] - slow.profile[10]) <= 1e-12

    @pytest.mark.parametrize("level", [0.0, 9.81])
    def test_long_constant_tail_matches_brute_force(self, level):
        # a sensor at rest: every pair of tail windows is an exact match, and
        # at a nonzero level the running sums leave the tail's rolling stdev
        # far above eps
        rng = np.random.default_rng(14)
        t = np.concatenate([rng.normal(size=300), np.full(2700, level)])
        fast = matrix_profile_self(t, 40)
        slow = brute_force_mp(t, 40)
        np.testing.assert_allclose(fast.profile, slow.profile, atol=1e-9)
        np.testing.assert_array_equal(fast.indices, slow.indices)

    @pytest.mark.parametrize("exclusion", [None, 10, 30])
    def test_rests_between_bursts_match_brute_force(self, exclusion):
        # runs of constant windows at several levels, all at one distance from
        # a row: the first admissible one, before the row's band or past it,
        # is its nearest
        rng = np.random.default_rng(3)
        t = np.concatenate([np.full(30, 9.81), rng.normal(size=25), np.zeros(12),
                            rng.normal(size=20), np.full(40, 9.81)])
        fast = matrix_profile_self(t, 8, exclusion)
        slow = brute_force_mp(t, 8, exclusion)
        np.testing.assert_allclose(fast.profile, slow.profile, atol=1e-9)
        np.testing.assert_array_equal(fast.indices, slow.indices)

    @pytest.mark.parametrize("level, second", [(100.0, 100.0), (0.0, 1000.0)])
    def test_quiet_at_a_level_matches_brute_force(self, level, second):
        # stdev 1e-3 against the level, where raw-value dot products cancel;
        # the second half of the series moves to the second level
        t = level + 1e-3 * np.random.default_rng(0).normal(size=120)
        t[60:] += second - level
        fast = matrix_profile_self(t, 3)
        slow = brute_force_mp(t, 3)
        np.testing.assert_allclose(fast.profile, slow.profile, atol=1e-9)
        np.testing.assert_array_equal(fast.indices, slow.indices)

    def test_periodic_series_profile_near_zero(self):
        t = np.sin(2 * np.pi * np.arange(160) / 8.0)
        res = matrix_profile_self(t, m=16)
        finite = np.isfinite(res.profile)
        assert finite.all()
        assert res.profile.max() <= 1e-6

    def test_spike_is_discord(self):
        t = np.sin(2 * np.pi * np.arange(400) / 20.0)
        t[200:210] += 4.0
        res = matrix_profile_self(t, m=20)
        pos = int(np.argmax(res.profile))
        assert 180 <= pos <= 210
        assert res.profile[pos] > res.profile[:150].max()

    def test_exclusion_leaves_only_endpoint_pair(self):
        # n = 2m+1 with exclusion m: windows 0 and m+1 can only pair with
        # each other, every interior window has nothing admissible left.
        m = 10
        rng = np.random.default_rng(9)
        t = rng.normal(size=2 * m + 1)
        res = matrix_profile_self(t, m, exclusion=m)
        assert res.indices[0] == m + 1
        assert res.indices[-1] == 0
        assert np.isfinite(res.profile[0]) and np.isfinite(res.profile[-1])
        assert (res.indices[1:-1] == NO_NEIGHBOR).all()
        assert np.isinf(res.profile[1:-1]).all()

    def test_window_range_validation(self):
        with pytest.raises(ValueError):
            matrix_profile_self(np.arange(10.0), m=6)
        with pytest.raises(ValueError):
            matrix_profile_self(np.arange(10.0), m=2)

    @pytest.mark.parametrize("join", [matrix_profile_self, brute_force_mp])
    def test_negative_exclusion_rejected(self, join):
        # exclusion -1 would leave every window as its own neighbor at 0
        with pytest.raises(ValueError, match="exclusion"):
            join(np.sin(np.arange(40.0)), 8, exclusion=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("join", [matrix_profile_self, brute_force_mp])
    def test_rejects_non_finite(self, join, bad):
        t = np.sin(np.arange(40.0))
        t[17] = bad
        with pytest.raises(DataError):
            join(t, 8)

    def test_accepts_read_only_values(self):
        rng = np.random.default_rng(10)
        ts = TimeSeries(rng.normal(size=64), sample_rate_hz=100.0)
        res = matrix_profile_self(ts.values, m=8)
        assert res.profile.shape == (57,)


class TestContainers:
    def test_time_series_immutable(self):
        ts = TimeSeries(np.arange(5.0), sample_rate_hz=100.0)
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_time_series_rejects_nan(self):
        with pytest.raises(DataError):
            TimeSeries(np.array([1.0, np.nan]), sample_rate_hz=100.0)
