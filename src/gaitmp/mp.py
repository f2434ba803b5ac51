"""Exact matrix profile math on z-normalized Euclidean distances.

Every fast path here turns dot products and window moments into distances
in one kernel, _fast_distances, which holds the degenerate conventions.
Window moments come from one helper pair: _sums takes running sums of the
values and their squares, plus, when the series repeats a value, a running
count of value changes; _moments turns them into each window's mean and
stdev. A window with no change of value gets a stdev of exactly 0, where the
sums alone cancel and can read a constant stretch at a nonzero level as
varying. A caller whose series does not change (History) caches _sums.

Near-duplicates are recomputed by definition in _exact_distances, because
sqrt(2m(1-rho)) cancels as rho -> 1. The band is 1 - rho <= NEAR_DUPLICATE**2,
i.e. d <= NEAR_DUPLICATE * sqrt(2m), so it covers the same correlations at
every m. Single-query distance profiles (distance_profile: after MASS, a
sliding dot product plus window moments, though the product is the direct
one, not MASS's FFT convolution) finish in _profile. The detectors'
score rows, a naive hop and a step-gated growth row alike, want only the
profile's smallest entry and finish in _nearest: it ranks the windows by
their correlation with the query straight from the running sums (the window
sums S1 and S2 in one subtraction, as SCAMP ranks by Pearson correlation
from co-moments), with an optional mask of windows that straddle a History
chunk boundary. A window with no change of value is ranked there as
constant; the row falls back to _profile over _moments for a constant
query, a window the sums cannot tell from constant, or a near-duplicate
best. Self-join rows run in STOMP order (dot products updated row to row) and
finish in _finish_row. A brute-force double loop over the plain definition
(brute_force_mp) shares no code with any of them and is kept as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

# Stdev at or below this counts as a constant (degenerate) window.
DEFAULT_EPS = 1e-8
# Index sentinel for "no valid neighbor"; the matching profile value is +inf.
NO_NEIGHBOR = -1
# Fast distances of a query of length m at or under NEAR_DUPLICATE * sqrt(2m)
# (1 - rho <= NEAR_DUPLICATE**2), or within NEAR_DUPLICATE of a join row's
# minimum, are recomputed from z-normalized windows (see _fast_distances):
# sqrt(2m(1-rho)) cancels as rho -> 1, and low-variance windows magnify the
# rounding of the dot products and moments. A fixed cut on d would cover a
# narrower band of rho as m shrinks.
NEAR_DUPLICATE = 1e-3


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar signal."""

    values: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("time series must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(values)):
            raise DataError("time series contains non-finite samples")
        if not (self.sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be positive")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass
class MatrixProfileResult:
    """Nearest-neighbor distance per subsequence plus the neighbor offsets.

    ``indices`` holds NO_NEIGHBOR (and ``profile`` +inf) where the exclusion
    zone leaves a position with no admissible neighbor.
    """

    profile: np.ndarray
    indices: np.ndarray
    m: int
    exclusion: int

    def __post_init__(self):
        self.profile = np.asarray(self.profile, dtype=np.float64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.profile.shape != self.indices.shape:
            raise ValueError("profile and indices must have equal length")


def _values(series) -> np.ndarray:
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D sequence of samples")
    return arr


def sliding_dot_product(query, series) -> np.ndarray:
    """Dot product of ``query`` against every same-length window of ``series``.

    out[i] = sum_k query[k] * series[i+k], by the direct product
    (np.correlate).
    """
    q = np.asarray(query, dtype=np.float64)
    t = _values(series)
    if q.ndim != 1 or q.size < 1:
        raise ValueError("query must be a non-empty 1-D sequence")
    if q.size > t.size:
        raise ValueError("query longer than series")
    return np.correlate(t, q, mode="valid")


def _sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Zero-prefixed running sums of x (row 0) and of x*x (row 1), and, only
    when x repeats a value, changes[i]: how many p in 1..i have x[p] != x[p-1]."""
    sums = np.zeros((2, x.size + 1))
    sums[0, 1:] = x
    np.multiply(x, x, out=sums[1, 1:])
    # np.cumsum's arithmetic, without its per-call wrapper
    np.add.accumulate(sums, axis=1, out=sums)
    steps = x[1:] != x[:-1]
    if np.count_nonzero(steps) == steps.size:
        return sums, None
    changes = np.zeros(x.size, dtype=np.int64)
    np.cumsum(steps, out=changes[1:])
    return sums, changes


def _moments(sums, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and stdev of every window of length m of the series _sums saw.
    A window with no change of value gets stdev exactly 0, where the running
    sums, cancelling, can leave one far above DEFAULT_EPS."""
    s, changes = sums
    k = s.shape[1] - m
    window = s[:, m:] - s[:, :k]
    window /= m
    mean, var = window
    var -= mean * mean
    sd = np.sqrt(np.maximum(var, 0.0, out=var), out=var)
    if changes is not None:
        sd[changes[m - 1 :] == changes[:k]] = 0.0
    return mean, sd


def _fast_distances(
    qt: np.ndarray, m: int, mu_q: float, sd_q: float, mean: np.ndarray, sd: np.ndarray
) -> np.ndarray:
    """Distances of a query of length m to every window, from the dot products
    qt, the query's mean and stdev and the windows'.

    Degenerate convention, as brute_force_mp's: a query or window whose stdev is
    at or under DEFAULT_EPS z-normalizes to zeros, so two constant ones are at
    0 and a constant one is at sqrt(m) from any other. Callers recompute
    near-duplicates of a varying query by definition (_exact_distances), by
    one of two rules: a distance profile every entry at or under
    _band(m) (_profile), a self-join row every candidate within
    NEAR_DUPLICATE of its minimum (_finish_row), so that its index is the
    definition's first smallest.
    """
    flat = sd <= DEFAULT_EPS
    if sd_q <= DEFAULT_EPS:
        return np.where(flat, 0.0, math.sqrt(m))
    rho = (qt - m * mu_q * mean) / (m * sd_q * np.where(flat, np.inf, sd))
    d = np.sqrt(2.0 * m * (1.0 - np.clip(rho, -1.0, 1.0)))
    d[flat] = math.sqrt(m)
    return d


def _band(m: int) -> float:
    """Distances of a query of length m at or under this are near-duplicates:
    1 - rho <= NEAR_DUPLICATE**2."""
    return NEAR_DUPLICATE * math.sqrt(2.0 * m)


def _exact_distances(query: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Distances by definition from ``query`` to each row of ``windows``, each
    z-normalized with its own two-pass mean and stdev (zeros when constant)."""
    rows = np.vstack((query, windows))
    sd = rows.std(axis=1, keepdims=True)
    z = (rows - rows.mean(axis=1, keepdims=True)) / np.where(sd > DEFAULT_EPS, sd, np.inf)
    diff = z[1:] - z[0]
    return np.sqrt(np.add.reduce(diff * diff, axis=1))


def _profile(
    qt: np.ndarray,
    query: np.ndarray,
    mu_q: float,
    sd_q: float,
    series: np.ndarray,
    mean: np.ndarray,
    sd: np.ndarray,
) -> np.ndarray:
    """Distances of ``query`` to every window of ``series`` from _fast_distances,
    every entry at or under _band(m) recomputed by definition. For a
    constant query the convention is already exact, and nothing is."""
    m = query.size
    d = _fast_distances(qt, m, mu_q, sd_q, mean, sd)
    band = _band(m)
    if sd_q > DEFAULT_EPS and d.min() <= band:
        near = np.flatnonzero(d <= band)
        d[near] = _exact_distances(query, sliding_window_view(series, m)[near])
    return d


def distance_profile(query, series) -> np.ndarray:
    """z-normalized distance of ``query`` to every window of ``series``."""
    q = np.asarray(query, dtype=np.float64)
    t = _values(series)
    if q.ndim != 1 or q.size < 3:
        raise ValueError("query must be 1-D with at least 3 samples")
    if q.size > t.size:
        raise ValueError("query longer than series")
    if not np.all(np.isfinite(q)) or not np.all(np.isfinite(t)):
        raise DataError("non-finite values in distance profile input")
    mean, sd = _moments(_sums(t), q.size)
    return _profile(sliding_dot_product(q, t), q, float(q.mean()), float(q.std()), t, mean, sd)


def _rounding_floor(n: int, sumsq: float) -> float:
    """A bound, per unit of m, on the rounding of m*S2 - S1^2 for a window of
    length m taken from running sums over n readings whose squares sum to
    ``sumsq``. Each running sum is off by up to about n * 2^-52 times the
    sum of what it adds up, so a window's S2 by 2n * 2^-52 * sumsq and its
    S1 by 2n * 2^-52 * sum|x|, and with |S1| <= m * max|x| and
    max|x| * sum|x| <= sqrt(n) * sumsq, m*S2 - S1^2 by m times this."""
    return n * 2.0**-52 * sumsq * (2.0 + 4.0 * math.sqrt(n))


def _nearest(
    qt: np.ndarray,
    query: np.ndarray,
    mu_q: float,
    sd_q: float,
    series: np.ndarray,
    sums,
    room: np.ndarray | None = None,
) -> float:
    """Smallest of _profile's distances, from the running sums _sums took of
    ``series``, usually without building any distance or window moment.

    With ``room``, window j counts only when room[j] >= m (it lies inside one
    History chunk); room may run past the last window. Window j has sums S1
    and S2 of its values and their squares, and m * stdev = sqrt(m*S2 - S1^2),
    so (qt - mu_q*S1) / sqrt(m*S2 - S1^2) is rho * sd_q, and the nearest
    window is its argmax. A window with no change of value is constant: it
    gets an inf divisor and rank 0, and sits by convention at sqrt(m), i.e. at
    rho 1/2. Any other window that may count as constant would need its
    moments, so _profile finishes the row when some window's m*S2 - S1^2 lies
    within _rounding_floor of 0, when the query is constant, and when the
    best is at or under _band(m). In the first case the row takes the
    query's dot products and moments afresh, as distance_profile does, so
    that it returns distance_profile's entry.
    """
    m = query.size
    s, changes = sums
    k = s.shape[1] - m
    if sd_q > DEFAULT_EPS:
        s1, s2 = s[:, m:] - s[:, :k]
        # in place: s2 becomes (m * stdev)^2, then s1 the rank, of each window
        s2 *= m
        s2 -= s1 * s1
        flat = None if changes is None else changes[m - 1 :] == changes[:k]
        if flat is not None:
            s2[flat] = np.inf
        # a window whose m*S2 - S1^2 lies near 0 may count as constant: its
        # stdev may be at or under DEFAULT_EPS (with a margin of 2), or its
        # digits lost to the running sums' rounding (_rounding_floor)
        floor = _rounding_floor(s.shape[1] - 1, float(s[1, -1]))
        if s2.min() > max((2.0 * m * DEFAULT_EPS) ** 2, m * floor):
            s1 *= -mu_q
            s1 += qt
            s1 /= np.sqrt(s2, out=s2)
            j = int(s1.argmax())
            if room is not None and room[j] < m:
                # the best window straddles a chunk boundary; the mask is
                # built only on the rare rows that need it
                s1[room[:k] < m] = -np.inf
                j = int(s1.argmax())
            rho = float(s1[j]) / sd_q
            if rho < 0.5 and flat is not None:
                if (flat if room is None else flat[room[:k] >= m]).any():
                    rho = 0.5
            best = math.sqrt(2.0 * m * (1.0 - min(max(rho, -1.0), 1.0)))
            if best > _band(m):
                return best
        else:
            # that window's moments are rounding noise, which magnifies any
            # rounding difference in the query's dot products and moments
            qt = sliding_dot_product(query, series)
            mu_q, sd_q = float(query.mean()), float(query.std())
    d = _profile(qt, query, mu_q, sd_q, series, *_moments(sums, m))
    if room is not None:
        d[room[:k] < m] = np.inf
    return float(d.min())


def _table_index(c: int, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """For a series of c readings, the flat index, into _window_block's
    running sums (2 x c + 2), of where each window at lengths lo..c ends,
    and those lengths as a column. A window that leaves the series ends its
    S1 where it starts (a sum of 0) and its S2 at the inf in the last column."""
    m = np.arange(lo, c + 1)[:, None]
    j = np.arange(c)
    inside = j <= c - m
    ends = np.stack((np.where(inside, j + m, j), np.where(inside, c + 2 + j + m, 2 * c + 3)))
    return ends, m.astype(np.float64)


def _window_block(x: np.ndarray, index, block: np.ndarray, least: np.ndarray) -> None:
    """Write into ``block`` (2 x rows x x.size) the sum S1 and 1 / sqrt(m*S2 - S1^2)
    of every window of x at the lengths of ``index`` (_table_index), from
    running sums of x alone, 0 where a window leaves x or has no positive
    m*S2 - S1^2, and the rows past the longest length; and the least
    m*S2 - S1^2 of each length's windows into ``least``."""
    ends, m = index
    c, rows = x.size, m.size
    block[:, rows:] = 0.0
    sums = np.zeros((2, c + 2))
    sums[0, 1 : c + 1] = x
    np.multiply(x, x, out=sums[1, 1 : c + 1])
    np.add.accumulate(sums, axis=1, out=sums)
    sums[1, -1] = np.inf
    s1, s2 = np.subtract(sums.take(ends), sums[:, None, :c], out=block[:, :rows])
    # inf where the window leaves x
    div = s2 * m
    div -= s1 * s1
    np.min(div, axis=1, out=least[:rows])
    if not least[:rows].min() > 0.0:
        div[div <= 0.0] = np.inf
    np.divide(1.0, np.sqrt(div, out=div), out=s2)


def _nearest_from_table(
    qt: np.ndarray, mu_q: float, sd_q: float, m: int, s1: np.ndarray, inv: np.ndarray, out: np.ndarray
) -> float | None:
    """Smallest distance of a varying query of length m from its dot
    products qt and every window's S1 and 1 / sqrt(m*S2 - S1^2) (inv, 0 for
    a window that does not count), using ``out`` as scratch. Window j ranks
    (qt - mu_q*S1) * inv, its rho * sd_q. None when no counted window ranks
    over 0 or the best is at or under _band(m): _nearest finishes those."""
    rank = np.multiply(s1, -mu_q, out=out)
    rank += qt
    rank *= inv
    rho = float(rank.max()) / sd_q
    if rho > 0.0:
        best = math.sqrt(2.0 * m * (1.0 - min(rho, 1.0)))
        if best > _band(m):
            return best
    return None


def _check_self_join_args(n: int, m: int, exclusion: int | None) -> int:
    """Validate a self-join's arguments; return the exclusion radius,
    ceil(m/2) by default."""
    if m < 3 or 2 * m > n:
        raise ValueError(f"subsequence length m={m} out of range for n={n} (need 3 <= m <= n/2)")
    if exclusion is None:
        return (m + 1) // 2
    if exclusion < 0:
        raise ValueError("exclusion must be non-negative")
    return exclusion


def _min_with_sentinel(d: np.ndarray) -> tuple[float, int]:
    j = int(np.argmin(d))
    if np.isinf(d[j]):
        return np.inf, NO_NEIGHBOR
    return float(d[j]), j


def _finish_row(d: np.ndarray, i: int, windows: np.ndarray, sd: np.ndarray) -> tuple[float, int]:
    """Nearest neighbor of join row i from its fast distances d, the exclusion
    zone already at +inf. The fast path is exact for a constant query window;
    otherwise the candidates within NEAR_DUPLICATE of the fast minimum are
    recomputed by definition, and the first smallest wins."""
    best, j = _min_with_sentinel(d)
    if j == NO_NEIGHBOR or sd[i] <= DEFAULT_EPS:
        return best, j
    near = np.flatnonzero(d <= best + NEAR_DUPLICATE)
    if best + NEAR_DUPLICATE >= math.sqrt(windows.shape[1]):
        # constant windows (fast distance sqrt(m)) may be candidates; they
        # all z-normalize to zeros, so only the first of them can win
        flat = sd[near] <= DEFAULT_EPS
        flat[np.argmax(flat)] = False
        near = near[~flat]
    exact = _exact_distances(windows[i], windows[near])
    k = int(np.argmin(exact))
    return float(exact[k]), int(near[k])


def matrix_profile_self(series, m: int, exclusion: int | None = None) -> MatrixProfileResult:
    """Exact self-join matrix profile, computed in STOMP order.

    Neighbors closer than ``exclusion`` positions (default ceil(m/2)) are
    trivial matches and ignored.
    """
    t = _values(series)
    n = t.size
    exclusion = _check_self_join_args(n, m, exclusion)

    num_windows = n - m + 1
    mu, sd = _moments(_sums(t), m)
    qt_first = sliding_dot_product(t[:m], t)
    qt = qt_first.copy()
    head = t[: num_windows - 1]
    tail = t[m:]
    windows = sliding_window_view(t, m)

    profile = np.empty(num_windows)
    indices = np.empty(num_windows, dtype=np.int64)
    for i in range(num_windows):
        if i > 0:
            qt[1:] = qt[:-1] - head * t[i - 1] + tail * t[i + m - 1]
            qt[0] = qt_first[i]
        d = _fast_distances(qt, m, mu[i], sd[i], mu, sd)
        lo = max(0, i - exclusion)
        hi = min(num_windows, i + exclusion + 1)
        d[lo:hi] = np.inf
        profile[i], indices[i] = _finish_row(d, i, windows, sd)
    return MatrixProfileResult(profile, indices, m, exclusion)


def brute_force_mp(series, m: int, exclusion: int | None = None) -> MatrixProfileResult:
    """Self-join by the plain definition: z-normalize every window, take the
    pairwise Euclidean minimum. No incremental state shared between rows;
    serves as the oracle for matrix_profile_self.
    """
    t = _values(series)
    n = t.size
    exclusion = _check_self_join_args(n, m, exclusion)

    windows = np.lib.stride_tricks.sliding_window_view(t, m)
    mu = windows.mean(axis=1)
    sd = windows.std(axis=1)
    safe_sd = np.where(sd <= DEFAULT_EPS, 1.0, sd)
    z = (windows - mu[:, None]) / safe_sd[:, None]
    z[sd <= DEFAULT_EPS] = 0.0

    num_windows = n - m + 1
    profile = np.empty(num_windows)
    indices = np.empty(num_windows, dtype=np.int64)
    for i in range(num_windows):
        d = np.linalg.norm(z - z[i], axis=1)
        lo = max(0, i - exclusion)
        hi = min(num_windows, i + exclusion + 1)
        d[lo:hi] = np.inf
        profile[i], indices[i] = _min_with_sentinel(d)
    return MatrixProfileResult(profile, indices, m, exclusion)
