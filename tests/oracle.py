"""Distances by the plain definition, the oracle for the fast paths in
gaitmp.mp: z-normalize each window on its own, then take the Euclidean
distance."""

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
