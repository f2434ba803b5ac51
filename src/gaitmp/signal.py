"""Sensor samples, their projection, and the max-amplitude envelope.

A SensorSample is one 6-dof IMU reading held as an immutable tuple; its
constructor checks every value, while Recording.iter_samples builds samples
from rows it has already checked a block at a time. Each sample is reduced to
one scalar per step of the pipeline: pick a source (accel or gyro) and a
channel (single axis or a vector norm). Step detection then runs on the
rectified running-max envelope of that scalar. StreamingEnvelope computes it
one reading at a time for steps.segment_series; the step-gated detector only
needs to know whether each envelope value is over the step threshold, and
reads that from its run of readings at or under the threshold instead.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DataError

SOURCES = ("accel", "gyro")
CHANNELS = ("x", "y", "z", "l1", "l2", "linf")

DEFAULT_ENVELOPE_MS = 100.0


class _SampleFields(NamedTuple):
    t: float
    accel: tuple[float, float, float]
    gyro: tuple[float, float, float]


class SensorSample(_SampleFields):
    """One IMU reading: time in seconds, accel in m/s^2, gyro in deg/s.

    The constructor converts accel and gyro to tuples of floats, keeps t as
    given, and raises ValueError unless both are 3-vectors and DataError on
    any non-finite value. tuple.__new__(SensorSample, (t, accel, gyro)) skips
    those checks, and so do the inherited _make and _replace; only code whose
    values are already checked, such as Recording.iter_samples, uses them.
    """

    __slots__ = ()

    def __new__(cls, t, accel, gyro):
        accel = tuple(map(float, accel))
        gyro = tuple(map(float, gyro))
        if len(accel) != 3 or len(gyro) != 3:
            raise ValueError("accel and gyro must be 3-vectors")
        if not all(map(math.isfinite, (t, *accel, *gyro))):
            raise DataError("sensor sample contains non-finite values")
        return tuple.__new__(cls, (t, accel, gyro))


@dataclass(frozen=True)
class SignalSelector:
    """Which scalar to extract from a sample, e.g. gyro:linf."""

    source: str = "gyro"
    channel: str = "linf"

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        # resolved once here, so that a projection looks up nothing per sample
        object.__setattr__(self, "_reduce", _reducer(self.source, self.channel))

    def __reduce__(self):
        return SignalSelector, (self.source, self.channel)

    @classmethod
    def parse(cls, text: str) -> "SignalSelector":
        """Build from the 'source:channel' shorthand used on the command line."""
        parts = text.lower().split(":")
        if len(parts) != 2:
            raise ValueError(f"selector must look like 'gyro:linf', got {text!r}")
        return cls(parts[0], parts[1])

    def __str__(self) -> str:
        return f"{self.source}:{self.channel}"


def _reducer(source: str, channel: str):
    """The function of a SensorSample that projects it on source:channel.
    l1 sums left to right, the order NumPy uses for three elements, so every
    reducer equals Recording.project bit for bit, and a NaN component gives
    NaN. linf takes the largest by comparisons, which cost less than a call
    of max."""
    f = 1 + SOURCES.index(source)  # accel and gyro are fields 1 and 2
    if channel in ("x", "y", "z"):
        k = "xyz".index(channel)
        return lambda s: s[f][k]

    def l1(s):
        x, y, z = s[f]
        return abs(x) + abs(y) + abs(z)

    def l2(s):
        x, y, z = s[f]
        return math.sqrt(x * x + y * y + z * z)

    def linf(s):
        x, y, z = s[f]
        x, y, z = abs(x), abs(y), abs(z)
        if x == x and y == y and z == z:  # no NaN, which compares false
            return (x if x >= z else z) if x >= y else (y if y >= z else z)
        return math.nan

    return {"l1": l1, "l2": l2, "linf": linf}[channel]


def project(sample: SensorSample, sel: SignalSelector) -> float:
    """Reduce one sample to a scalar."""
    return sel._reduce(sample)


def envelope_window_samples(window_ms: float, sample_rate_hz: float) -> int:
    if not (0 < window_ms < math.inf):
        raise ValueError("window_ms must be positive and finite")
    if not (0 < sample_rate_hz < math.inf):
        raise ValueError("sample_rate_hz must be positive and finite")
    return max(1, round(window_ms * sample_rate_hz / 1000.0))


@dataclass
class StreamingEnvelope:
    """Centered running max of |x| over window_samples readings.

    The value at position i is the largest |x[j]| for j in
    [i - (w-1)//2, i + w//2], truncated at both ends of the stream, so there
    is one value per reading and no phase lag. Position i needs w//2 future
    readings before it is final, so push(x_k) returns the value of position
    k - w//2, or None while that position does not exist yet, and flush()
    returns the right-truncated tail's values.

    The window maximum comes from a monotonic deque, held as two parallel
    deques of indices and |values|, whose values strictly decrease from
    front to back: a new value evicts every entry it is at least as large
    as, and the front leaves once it slides out of the window. Each reading
    enters and leaves the deque at most once, so a push costs O(1) amortised
    whatever the window width (Lemire, "Streaming maximum-minimum filter
    using no more than three comparisons per element", 2006).
    """

    window_samples: int
    _index: deque = field(default_factory=deque, repr=False)
    _value: deque = field(default_factory=deque, repr=False)
    _next_in: int = 0
    _next_out: int = 0

    def __post_init__(self):
        if self.window_samples < 1:
            raise ValueError("window_samples must be >= 1")

    def push(self, value: float) -> float | None:
        """Absorb one sample; return the envelope value it finalizes, if any."""
        if not math.isfinite(value):
            raise DataError("non-finite sample in envelope stream")
        k = self._next_in
        v = abs(float(value))
        index, values = self._index, self._value
        # evict every entry the new value covers
        while values and values[-1] <= v:
            values.pop()
            index.pop()
        index.append(k)
        values.append(v)
        self._next_in = k + 1
        # the window closing at k is [k - w + 1, k]; one index leaves per push
        w = self.window_samples
        if index[0] <= k - w:
            index.popleft()
            values.popleft()
        if k >= self._next_out + w // 2:
            self._next_out += 1
            return values[0]
        return None

    def flush(self) -> list[float]:
        """Finalize the trailing positions whose windows ran past the end."""
        out = []
        index, value = self._index, self._value
        while self._next_out < self._next_in:
            first = self._next_out - (self.window_samples - 1) // 2
            while index[0] < first:
                index.popleft()
                value.popleft()
            out.append(value[0])
            self._next_out += 1
        return out
