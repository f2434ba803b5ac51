"""A clock corrected for the speed of the machine at the moment of measuring.

The 2-core container this benchmark was tuned on changes speed by up to 2x
within a second and stays slow for tens of seconds at a time (another tenant
on the sibling hyperthread, as far as can be told). The process cannot see
this in its CPU time or in the kernel's steal counters: a pass simply takes
up to twice as long. So every measured stretch is split into pieces of about
PROBE_EVERY_S, a fixed pure-Python probe runs between pieces, and each piece
is scaled by PROBE_REF_S over the mean time of the two probes around it.
Times then read as seconds on a machine that runs the probe in PROBE_REF_S.
Probe time itself is never part of a measurement. On that machine, this cut
the pass-to-pass variation of a walk pass from 7-15% to about 3%.
"""

from __future__ import annotations

import time

import numpy as np

from tracing import PROBE_SPAN

PROBE_EVERY_S = 0.005
# Fastest probe time seen on the quiet machine (x86-64, Python 3.11.7).
PROBE_REF_S = 1.3e-4


def probe() -> float:
    """Seconds to run a fixed mix of interpreter work (dict, int, float).

    It allocates no object the cyclic garbage collector tracks, so it cannot
    trigger a collection of the workload's objects and time that instead.
    """
    table = dict.fromkeys(range(64), 0.0)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        table[i & 63] = i * 0.5
        acc += table[(i * 7) & 63]
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * PROBE_REF_S / ((before + after) / 2)


class PushLog:
    """Latency of every push in one pass, plus the pass's wall time, both
    corrected for machine speed as described above. In a traced pass each
    probe is a PROBE_SPAN span, which Tracer.summary leaves out of the time
    of the span that encloses it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latency_ns: list[int] = []
        self.scored: list[bool] = []
        self._ends: list[int] = []  # pushes recorded when each piece closed
        self._pieces: list[float] = []
        self._probes: list[float] = []

    def start(self) -> None:
        for _ in range(3):
            self._probes = [probe()]
        self._t = time.perf_counter()

    def record(self, latency_ns: int, scored: bool) -> None:
        self.latency_ns.append(latency_ns)
        self.scored.append(scored)
        if time.perf_counter() - self._t >= PROBE_EVERY_S:
            self._close()

    def stop(self) -> None:
        self._close()

    def _close(self) -> None:
        self._pieces.append(time.perf_counter() - self._t)
        self._ends.append(len(self.latency_ns))
        if self.tracer is None:
            self._probes.append(probe())
        else:
            k = self.tracer.begin(PROBE_SPAN)
            self._probes.append(probe())
            self.tracer.finish(k)
        self._t = time.perf_counter()

    def _factors(self) -> np.ndarray:
        p = np.asarray(self._probes)
        return PROBE_REF_S / ((p[1:] + p[:-1]) / 2)

    @property
    def raw_wall_s(self) -> float:
        return float(sum(self._pieces))

    @property
    def wall_s(self) -> float:
        return float(np.dot(self._pieces, self._factors()))

    def latency_us(self) -> np.ndarray:
        counts = np.diff(self._ends, prepend=0)
        return np.asarray(self.latency_ns) / 1e3 * np.repeat(self._factors(), counts)
