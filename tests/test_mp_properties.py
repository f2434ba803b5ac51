import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaitmp import brute_force_mp, matrix_profile_self, znorm_distance

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def window_pair(m):
    shape = hnp.array_shapes(min_dims=1, max_dims=1, min_side=m, max_side=m)
    arr = hnp.arrays(np.float64, shape, elements=finite_floats)
    return st.tuples(arr, arr)


@given(window_pair(12))
def test_distance_symmetry(pair):
    a, b = pair
    assert znorm_distance(a, b) == znorm_distance(b, a)


@given(window_pair(8))
def test_distance_range(pair):
    a, b = pair
    d = znorm_distance(a, b)
    assert 0.0 <= d <= 2.0 * math.sqrt(8) + 1e-9


@given(
    hnp.arrays(np.float64, 16, elements=finite_floats),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_distance_affine_invariance(a, scale, shift):
    # eps is absolute, so a window near it is constant on one side only; and
    # a spread tiny beside the values' magnitude is lost to rounding
    assume(scale * a.std() > 1e-5 * (scale * np.abs(a).max() + abs(shift) + 1.0))
    b = np.sin(np.arange(16.0))
    assert abs(znorm_distance(scale * a + shift, b) - znorm_distance(a, b)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=40, max_value=120),
    st.integers(min_value=3, max_value=16),
)
@example(seed=1159, n=76, m=3)  # near-duplicate windows at rows 34 and 73
def test_self_join_matches_brute_force(seed, n, m):
    if 2 * m > n:
        m = n // 2
    t = np.random.default_rng(seed).normal(size=n)
    fast = matrix_profile_self(t, m)
    slow = brute_force_mp(t, m)
    np.testing.assert_allclose(fast.profile, slow.profile, atol=1e-9)
    np.testing.assert_array_equal(fast.indices, slow.indices)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_profile_bounded_by_any_admissible_pair(seed):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=90)
    m = 9
    res = matrix_profile_self(t, m)
    i = int(rng.integers(0, res.profile.size))
    j = int(rng.integers(0, res.profile.size))
    if abs(i - j) <= res.exclusion:
        return
    d = znorm_distance(t[i : i + m], t[j : j + m])
    assert res.profile[i] <= d + 1e-9
