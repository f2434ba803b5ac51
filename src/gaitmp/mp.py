"""Exact matrix profile math on z-normalized Euclidean distances.

Batch self-joins run in STOMP order (incremental dot-product updates row to
row, two-pass window moments); single-query distance profiles use the MASS
scheme (sliding dot product plus running window statistics). Both then
recompute near-duplicate distances from z-normalized windows, where the fast
formula loses precision: a join row recomputes every candidate within
NEAR_DUPLICATE of its minimum, a distance profile every entry up to
NEAR_DUPLICATE. A brute-force double loop over the plain definition is kept
alongside as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

# Stdev at or below this counts as a constant (degenerate) window.
DEFAULT_EPS = 1e-8
# Below this series length the direct dot product beats the FFT route.
FFT_CUTOFF = 1024
# Index sentinel for "no valid neighbor"; the matching profile value is +inf.
NO_NEIGHBOR = -1
# Fast distances this close to a join row's minimum, and fast distance-profile
# entries up to it, are recomputed from z-normalized windows: sqrt(2m(1-rho))
# cancels as rho -> 1, and low-variance windows magnify the rounding of the
# dot products and moments. A constant query is left to the fast path, whose
# degenerate convention is exact for it.
NEAR_DUPLICATE = 1e-3
# Windows per batch when the joins take two-pass window moments.
MOMENT_BATCH = 4096


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

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def duration_s(self) -> float:
        return self.n / self.sample_rate_hz


@dataclass(frozen=True)
class Subsequence:
    """Window of ``length`` samples starting at ``start`` of an owning series."""

    start: int
    length: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.length < 3:
            raise ValueError("subsequence length must be at least 3")

    @property
    def end(self) -> int:
        return self.start + self.length

    def extract(self, series) -> np.ndarray:
        values = _values(series)
        if self.end > values.size:
            raise ValueError("subsequence exceeds series length")
        return values[self.start : self.end]


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
    if isinstance(series, TimeSeries):
        return series.values
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D sequence of samples")
    return arr


def znormalize(x, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Shift to mean 0 and scale to stdev 1; constant input maps to zeros."""
    if not (eps > 0):
        raise ValueError("eps must be positive")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise DataError("cannot z-normalize non-finite values")
    sd = arr.std()
    if sd <= eps:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / sd


def znorm_distance(a, b, eps: float = DEFAULT_EPS) -> float:
    """Euclidean distance between the z-normalized windows, in [0, 2*sqrt(m)]."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError("windows must have equal length")
    if av.ndim != 1 or av.size < 3:
        raise ValueError("windows must be 1-D with at least 3 samples")
    return float(np.linalg.norm(znormalize(av, eps) - znormalize(bv, eps)))


def sliding_dot_product(query, series, method: str = "auto") -> np.ndarray:
    """Dot product of ``query`` against every same-length window of ``series``.

    out[i] = sum_k query[k] * series[i+k]. Uses the direct product below
    FFT_CUTOFF series samples and an FFT convolution above; both paths agree
    to float rounding.
    """
    q = np.asarray(query, dtype=np.float64)
    t = _values(series)
    if q.ndim != 1 or q.size < 1:
        raise ValueError("query must be a non-empty 1-D sequence")
    m, n = q.size, t.size
    if m > n:
        raise ValueError("query longer than series")
    if method == "auto":
        method = "fft" if n >= FFT_CUTOFF else "direct"
    if method == "direct":
        return np.correlate(t, q, mode="valid")
    if method != "fft":
        raise ValueError(f"unknown method {method!r}")
    k = 1 << int(n).bit_length()
    cross = np.fft.rfft(t, k) * np.conj(np.fft.rfft(q, k))
    return np.fft.irfft(cross, k)[: n - m + 1]


def _rolling_mean_std(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    c1 = np.cumsum(x)
    c2 = np.cumsum(x * x)
    s1 = c1[m - 1 :].copy()
    s1[1:] -= c1[: -m]
    s2 = c2[m - 1 :].copy()
    s2[1:] -= c2[: -m]
    mean = s1 / m
    var = np.maximum(s2 / m - mean * mean, 0.0)
    return mean, np.sqrt(var)


def _window_mean_std(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass mean and stdev of every window, as brute_force_mp takes them.

    The running sums of _rolling_mean_std cancel: a constant window of a long
    series can come out with a stdev far above eps, which the fast formula
    turns into arbitrary distances. The joins are O(n^2), so the O(n*m) cost
    of measuring each window directly is small beside them.
    """
    windows = sliding_window_view(x, m)
    mean = np.empty(windows.shape[0])
    sd = np.empty(windows.shape[0])
    for s in range(0, windows.shape[0], MOMENT_BATCH):
        part = windows[s : s + MOMENT_BATCH]
        mean[s : s + MOMENT_BATCH] = part.mean(axis=1)
        sd[s : s + MOMENT_BATCH] = part.std(axis=1)
    return mean, sd


def _pair_distances(
    qt: np.ndarray,
    mu_q: float,
    sd_q: float,
    mu_t: np.ndarray,
    sd_t: np.ndarray,
    m: int,
    eps: float,
) -> np.ndarray:
    """Distances of one query window against all series windows, from dots.

    Degenerate convention: both windows constant -> 0, exactly one -> sqrt(m).
    """
    q_const = sd_q <= eps
    t_const = sd_t <= eps
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = (qt - m * mu_q * mu_t) / (m * sd_q * sd_t)
    d = np.sqrt(2.0 * m * (1.0 - np.clip(rho, -1.0, 1.0)))
    if q_const:
        return np.where(t_const, 0.0, math.sqrt(m))
    return np.where(t_const, math.sqrt(m), d)


def distance_profile(query, series, eps: float = DEFAULT_EPS, method: str = "auto") -> np.ndarray:
    """z-normalized distance of ``query`` to every window of ``series`` (MASS)."""
    q = np.asarray(query, dtype=np.float64)
    t = _values(series)
    if q.ndim != 1 or q.size < 3:
        raise ValueError("query must be 1-D with at least 3 samples")
    if q.size > t.size:
        raise ValueError("query longer than series")
    if not np.all(np.isfinite(q)) or not np.all(np.isfinite(t)):
        raise DataError("non-finite values in distance profile input")
    m = q.size
    qt = sliding_dot_product(q, t, method)
    mu_t, sd_t = _rolling_mean_std(t, m)
    mu_q, sd_q = float(q.mean()), float(q.std())
    d = _pair_distances(qt, mu_q, sd_q, mu_t, sd_t, m, eps)
    if sd_q > eps and d.min() <= NEAR_DUPLICATE:
        near = np.flatnonzero(d <= NEAR_DUPLICATE)
        windows = sliding_window_view(t, m)[near]
        divisor = _divisor(windows.std(axis=1), eps)
        d[near] = _exact_distances((q - mu_q) / sd_q, windows, windows.mean(axis=1), divisor)
    return d


def _divisor(sd: np.ndarray, eps: float) -> np.ndarray:
    """sd, and inf for constant windows so that they z-normalize to zeros."""
    return np.where(sd > eps, sd, np.inf)


def _exact_distances(
    zq: np.ndarray, windows: np.ndarray, mean: np.ndarray, divisor: np.ndarray
) -> np.ndarray:
    """Distances by definition from the z-normalized query zq to each row of
    windows, given the rows' means and _divisor."""
    diff = (windows - mean[:, None]) / divisor[:, None] - zq
    return np.sqrt(np.add.reduce(diff * diff, axis=1))


def _check_self_join_args(n: int, m: int) -> None:
    if m < 3 or 2 * m > n:
        raise ValueError(f"subsequence length m={m} out of range for n={n} (need 3 <= m <= n/2)")


def _min_with_sentinel(d: np.ndarray) -> tuple[float, int]:
    j = int(np.argmin(d))
    if np.isinf(d[j]):
        return np.inf, NO_NEIGHBOR
    return float(d[j]), j


def _finish_row(
    d: np.ndarray,
    zq: np.ndarray,
    query_const: bool,
    windows: np.ndarray,
    mean: np.ndarray,
    divisor: np.ndarray,
) -> tuple[float, int]:
    """Nearest neighbor of one join row from its fast distances d. The fast
    path is exact for a constant query; otherwise the candidates within
    NEAR_DUPLICATE of the fast minimum are recomputed by definition, and the
    first smallest wins."""
    best, j = _min_with_sentinel(d)
    if j == NO_NEIGHBOR or query_const:
        return best, j
    near = np.flatnonzero(d <= best + NEAR_DUPLICATE)
    if best + NEAR_DUPLICATE >= math.sqrt(zq.size):
        # constant windows (fast distance sqrt(m)) may be candidates; they
        # all z-normalize to zeros, so only the first of them can win
        flat = divisor[near] == np.inf
        flat[np.argmax(flat)] = False
        near = near[~flat]
    exact = _exact_distances(zq, windows[near], mean[near], divisor[near])
    k = int(np.argmin(exact))
    return float(exact[k]), int(near[k])


def matrix_profile_self(
    series,
    m: int,
    exclusion: int | None = None,
    eps: float = DEFAULT_EPS,
    method: str = "auto",
) -> MatrixProfileResult:
    """Exact self-join matrix profile, computed in STOMP order.

    Neighbors closer than ``exclusion`` positions (default ceil(m/2)) are
    trivial matches and ignored.
    """
    t = _values(series)
    n = t.size
    _check_self_join_args(n, m)
    if exclusion is None:
        exclusion = (m + 1) // 2
    if exclusion < 0:
        raise ValueError("exclusion must be non-negative")

    num_windows = n - m + 1
    mu, sd = _window_mean_std(t, m)
    divisor = _divisor(sd, eps)
    qt_first = sliding_dot_product(t[:m], t, method)
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
        d = _pair_distances(qt, mu[i], sd[i], mu, sd, m, eps)
        lo = max(0, i - exclusion)
        hi = min(num_windows, i + exclusion + 1)
        d[lo:hi] = np.inf
        zq = (windows[i] - mu[i]) / divisor[i]
        profile[i], indices[i] = _finish_row(d, zq, sd[i] <= eps, windows, mu, divisor)
    return MatrixProfileResult(profile, indices, m, exclusion)


def matrix_profile_ab(
    query_series,
    reference_series,
    m: int,
    eps: float = DEFAULT_EPS,
    method: str = "auto",
) -> MatrixProfileResult:
    """Join of every query window against every reference window (no exclusion)."""
    q = _values(query_series)
    r = _values(reference_series)
    if m < 3:
        raise ValueError("subsequence length must be at least 3")
    if m > q.size or m > r.size:
        raise ValueError("subsequence length exceeds a series length")

    num_windows = q.size - m + 1
    mu_q, sd_q = _window_mean_std(q, m)
    mu_r, sd_r = _window_mean_std(r, m)
    divisor_q = _divisor(sd_q, eps)
    divisor_r = _divisor(sd_r, eps)
    windows = sliding_window_view(r, m)
    profile = np.empty(num_windows)
    indices = np.empty(num_windows, dtype=np.int64)
    for i in range(num_windows):
        win = q[i : i + m]
        qt = sliding_dot_product(win, r, method)
        d = _pair_distances(qt, mu_q[i], sd_q[i], mu_r, sd_r, m, eps)
        zq = (win - mu_q[i]) / divisor_q[i]
        profile[i], indices[i] = _finish_row(d, zq, sd_q[i] <= eps, windows, mu_r, divisor_r)
    return MatrixProfileResult(profile, indices, m, exclusion=0)


def brute_force_mp(
    series,
    m: int,
    exclusion: int | None = None,
    eps: float = DEFAULT_EPS,
) -> MatrixProfileResult:
    """Self-join by the plain definition: z-normalize every window, take the
    pairwise Euclidean minimum. No incremental state shared between rows;
    serves as the oracle for matrix_profile_self.
    """
    t = _values(series)
    n = t.size
    _check_self_join_args(n, m)
    if exclusion is None:
        exclusion = (m + 1) // 2

    windows = np.lib.stride_tricks.sliding_window_view(t, m)
    mu = windows.mean(axis=1)
    sd = windows.std(axis=1)
    safe_sd = np.where(sd <= eps, 1.0, sd)
    z = (windows - mu[:, None]) / safe_sd[:, None]
    z[sd <= eps] = 0.0

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


def discord(result: MatrixProfileResult) -> tuple[int, float]:
    """Position and value of the largest finite profile entry (ties: smallest index)."""
    finite = np.isfinite(result.profile)
    if not finite.any():
        raise ValueError("no discord: profile has no finite entries")
    masked = np.where(finite, result.profile, -np.inf)
    i = int(np.argmax(masked))
    return i, float(result.profile[i])


def motif(result: MatrixProfileResult) -> tuple[int, int, float]:
    """Closest pair: argmin position, its neighbor, and their distance."""
    finite = np.isfinite(result.profile)
    if not finite.any():
        raise ValueError("no motif: profile has no finite entries")
    i = int(np.argmin(result.profile))
    return i, int(result.indices[i]), float(result.profile[i])
