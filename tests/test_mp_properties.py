import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaitmp import brute_force_mp, matrix_profile_self
from gaitmp.mp import _moments, _nearest, _profile, _sums, sliding_dot_product
from oracle import znorm_distance

# the length a long History chunk adds to its draw
LONG = 1024

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


def quiet_series(seed, n, quiet):
    """N(0, 1) noise of length n when ``quiet`` is None; otherwise, for
    quiet = (level, log10 of the stdev, second level or None), noise of that
    stdev at the level, its second half moved to the second level if any."""
    noise = np.random.default_rng(seed).normal(size=n)
    if quiet is None:
        return noise
    level, log_sd, second = quiet
    t = level + 10.0**log_sd * noise
    if second is not None:
        t[n // 2 :] += second - level
    return t


# quiet data at one level, or at two, where running sums of the raw values
# cancel and pick wrong neighbours
quiet_levels = st.tuples(
    st.floats(min_value=-1000.0, max_value=1000.0),
    st.floats(min_value=-4.0, max_value=0.0),
    st.one_of(st.none(), st.floats(min_value=-1000.0, max_value=1000.0)),
)


@pytest.mark.deep
@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=40, max_value=120),
    st.integers(min_value=3, max_value=16),
    st.one_of(st.none(), quiet_levels),
)
@example(seed=1159, n=76, m=3, quiet=None)  # near-duplicate windows at rows 34 and 73
@example(seed=0, n=120, m=3, quiet=(100.0, -3.0, None))
@example(seed=0, n=120, m=3, quiet=(0.0, -3.0, 1000.0))
def test_self_join_matches_brute_force(seed, n, m, quiet):
    if 2 * m > n:
        m = n // 2
    t = quiet_series(seed, n, quiet)
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


def draw_chunks(rng, kinds, query, level, nudge):
    """History chunks, each at least as long as ``query``, of the listed
    kinds: gait-scale noise, noise longer than LONG, a constant at
    ``level``, noise scaled by 1e-9 around ``level`` (varying, with a stdev
    under DEFAULT_EPS, whose digits the running sums lose), noise with one
    reading repeated once, noise holding a copy of the query nudged by
    ``nudge``, and two kinds that append two
    chunks: a split, whose constant runs at ``level`` are each shorter than
    the query but together at least as long, so the only constant windows
    straddle the boundary, and a copy of the query nudged by ``nudge``
    across the boundary."""
    m = query.size
    chunks = []
    for kind in kinds:
        n = int(rng.integers(m, 3 * m + 20))
        noise = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0), n)
        if kind == "long":
            noise = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0), LONG + n)
        elif kind == "constant":
            noise = np.full(n, level)
        elif kind == "stutter":
            p = int(rng.integers(1, n))
            noise[p] = noise[p - 1]
        elif kind == "copy":
            p = int(rng.integers(n - m + 1))
            noise[p : p + m] = query + nudge * rng.normal(size=m)
        elif kind == "quiet":
            noise = level + 1e-9 * noise
        elif kind in ("split", "across"):
            a = int(rng.integers(1, m))
            if kind == "split":
                head, tail = np.full(a, level), np.full(int(rng.integers(m - a, m)), level)
            else:
                copy = query + nudge * rng.normal(size=m)
                head, tail = copy[:a], copy[a:]
            chunks.append(np.concatenate([noise, head]))
            noise = np.concatenate([tail, rng.normal(0.0, 1.0, n)])
        chunks.append(noise)
    return chunks


@pytest.mark.deep
@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 40),
    kinds=st.lists(
        st.sampled_from(["noise", "long", "constant", "quiet", "stutter", "copy", "split", "across"]),
        min_size=1,
        max_size=4,
    ),
    constant_query=st.booleans(),
    level=st.floats(0.5, 20.0) | st.floats(-20.0, -0.5),
    nudge=st.sampled_from([0.0, 1e-7, 1e-3, 0.1]),
)
# a valid constant window, every varying one at rho < 1/2: the floor applies
@example(seed=0, m=30, kinds=["noise", "constant"], constant_query=False, level=2.5, nudge=0.0)
# constant windows only across a chunk boundary, every valid one at rho < 1/2:
# the floor must not apply
@example(seed=0, m=30, kinds=["split"], constant_query=False, level=9.81, nudge=0.0)
# a constant chunk at 9.81 after 1,000 readings of noise, whose running sums
# cancel and read it as varying: only the repeated values tell
@example(seed=12, m=30, kinds=["long", "constant"], constant_query=False, level=9.81, nudge=0.0)
# a quiet chunk at 7.93, whose windows' sums cancel to rounding noise that
# reads as a stdev over DEFAULT_EPS
@example(seed=6, m=23, kinds=["quiet"], constant_query=False, level=7.93, nudge=0.0)
# History repeats a value, but no window is constant
@example(seed=0, m=10, kinds=["noise", "stutter"], constant_query=False, level=1.0, nudge=0.0)
# varying windows with a stdev under DEFAULT_EPS count as constant
@example(seed=1, m=10, kinds=["quiet", "noise"], constant_query=False, level=0.5, nudge=0.0)
# a constant query over History without a repeated value
@example(seed=0, m=5, kinds=["noise"], constant_query=True, level=1.0, nudge=0.0)
# the best window straddles a chunk boundary and is not a near-duplicate
@example(seed=0, m=10, kinds=["noise", "across"], constant_query=False, level=1.0, nudge=0.1)
# near-duplicate bests: at m = 3, d = 1.9e-3 lies inside the band only as it
# scales with sqrt(m), and the fast distance is 1.2e-9 off; at m = 25, a copy
# nudged by 1e-7 whose fast distance is 2e-6 off
@example(seed=2, m=3, kinds=["long", "copy"], constant_query=False, level=1.0, nudge=1e-3)
@example(seed=0, m=25, kinds=["long", "copy"], constant_query=False, level=1.0, nudge=1e-7)
def test_growth_finish_matches_the_masked_profile(seed, m, kinds, constant_query, level, nudge):
    rng = np.random.default_rng(seed)
    query = np.full(m, level) if constant_query else rng.normal(0.0, 1.0, m)
    chunks = draw_chunks(rng, kinds, query, level, nudge)
    series = np.concatenate(chunks)
    lengths = np.array([c.size for c in chunks])
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(series.size)
    sums = _sums(series)
    qt = sliding_dot_product(query, series)
    mu_q, sd_q = float(query.mean()), float(query.std())
    d = _profile(qt, query, mu_q, sd_q, series, *_moments(series, sums, m))
    want = float(d[room[: d.size] >= m].min())
    got = _nearest(qt, query, mu_q, sd_q, series, sums, room)
    assert got == pytest.approx(want, rel=0, abs=1e-9)
    # a naive hop's call: no room, every window counts
    got = _nearest(qt, query, mu_q, sd_q, series, sums)
    assert got == pytest.approx(float(d.min()), rel=0, abs=1e-9)


def test_a_quiet_stretch_at_a_level_falls_back_where_its_sums_cancel():
    # 30 readings at -44.3 with a stdev of 4.8e-6: every window's
    # m*S2 - S1^2 is rounding noise a little over m * n * 2^-52 times the
    # sum of squares, which the S1^2 term of _rounding_floor covers. Ranked
    # from that noise, the row came out 3.8e-3 off the profile
    rng = np.random.default_rng(3)
    series = -44.3 + 4.8e-6 * rng.normal(size=30)
    query = rng.normal(size=21)
    qt = sliding_dot_product(query, series)
    mu_q, sd_q = float(query.mean()), float(query.std())
    sums = _sums(series)
    want = float(_profile(qt, query, mu_q, sd_q, series, *_moments(series, sums, 21)).min())
    assert _nearest(qt, query, mu_q, sd_q, series, sums) == pytest.approx(want, rel=0, abs=1e-9)
