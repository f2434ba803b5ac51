"""Reference implementations by the plain definition, the oracles for the
fast and streaming paths of gaitmp.

- Distances, for gaitmp.mp: z-normalize each window on its own, then take
  the Euclidean distance.
- The envelope, for signal.StreamingEnvelope: the centred max of |x| over
  each window, truncated at the edges.
- Step segments, for steps.StepDetector's feed and flush: the runs above
  the threshold, widened, merged and filtered over the whole envelope.
"""

import numpy as np

from gaitmp.errors import DataError
from gaitmp.mp import DEFAULT_EPS


def znormalize(x) -> np.ndarray:
    """Shift to mean 0 and scale to stdev 1; constant input maps to zeros."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise DataError("cannot z-normalize non-finite values")
    sd = arr.std()
    if sd <= DEFAULT_EPS:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / sd


def znorm_distance(a, b) -> float:
    """Euclidean distance between the z-normalized windows, in [0, 2*sqrt(m)]."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError("windows must have equal length")
    if av.ndim != 1 or av.size < 3:
        raise ValueError("windows must be 1-D with at least 3 samples")
    return float(np.linalg.norm(znormalize(av) - znormalize(bv)))


def envelope_by_definition(x, w: int) -> np.ndarray:
    """Centred running max of |x| over w samples, truncated at the edges:
    position i covers [i - (w-1)//2, i + w//2]."""
    if w < 1:
        raise ValueError("window must be at least 1 sample")
    a = np.abs(np.asarray(x, dtype=np.float64))
    left, right = (w - 1) // 2, w // 2
    return np.array([a[max(0, i - left) : i + right + 1].max() for i in range(a.size)])


def segments_by_definition(det, env) -> list[tuple[int, int]]:
    """The [start, end) steps of a complete envelope at det's threshold.

    Each run of samples above det.threshold is widened by det.onset on the
    left and det.release on the right, clamped to the envelope; runs whose
    widened extents overlap merge, and merged runs shorter than
    det.min_step are dropped.
    """
    x = np.asarray(env, dtype=np.float64)
    n = x.size
    above = x > det.threshold
    raw = []
    rise = -1
    in_run = False
    for i in range(n):
        if above[i] and not in_run:
            in_run = True
            rise = i
        elif not above[i] and in_run:
            in_run = False
            raw.append((max(0, rise - det.onset), min(n, i + det.release)))
    if in_run:
        raw.append((max(0, rise - det.onset), n))

    merged: list[list[int]] = []
    for s, e in raw:
        if merged and s < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(s, e) for s, e in merged if e - s >= det.min_step]
