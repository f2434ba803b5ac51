"""Adaptive-threshold step segmentation over an amplitude envelope.

A step is a run of envelope samples above an adaptive threshold, widened by
an onset offset on the left and a release offset on the right, and clamped
to the stream. Runs whose widened extents overlap are merged; merged runs
shorter than a minimum duration are discarded as noise.

StepDetector segments a stream one envelope sample at a time (feed, then
flush at the end), and reports each step as a STARTED and an ENDED event
over the half-open range [start, end). An event's index counts the samples
fed since construction or the last flush, so a flush starts a new stream at
0. It defers each event until its outcome is settled, so the steps it
reports are exactly those of the definition above applied to the whole
stream: a STARTED event is held back until the step is guaranteed to survive
the duration filter, and an ENDED event until no future rise can merge into
the step. Both may carry indices behind the current stream position.
skip_quiet stands in for a feed that can only count its sample: the caller
vouches that the sample is at or under the threshold, and it is counted only
while no step is open or pending. segment_series segments a whole series at
one threshold; `gaitmp segment` and StepGatedDetector.prime_history call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .signal import StreamingEnvelope

DEFAULT_THRESHOLD_FRACTION = 0.5
# the threshold before the first recompute_threshold: high enough that
# nothing counts as a step
INITIAL_THRESHOLD = 1e12
# the least threshold recompute_threshold sets, so an all-zero envelope
# does not read as one endless step
THRESHOLD_FLOOR = 1e-6
DEFAULT_ONSET_MS = 50.0
DEFAULT_RELEASE_MS = 50.0
DEFAULT_MIN_STEP_MS = 150.0

STARTED = "started"
ENDED = "ended"


@dataclass(frozen=True)
class StepEvent:
    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in (STARTED, ENDED):
            raise ValueError(f"unknown event kind {self.kind!r}")


class StepDetector:
    """Streaming threshold-crossing segmenter.

    The threshold starts at INITIAL_THRESHOLD so nothing is detected until
    recompute_threshold is given an envelope maximum; it then tracks a
    fraction of that maximum, clamped below by THRESHOLD_FLOOR.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION,
        onset_ms: float = DEFAULT_ONSET_MS,
        release_ms: float = DEFAULT_RELEASE_MS,
        min_step_ms: float = DEFAULT_MIN_STEP_MS,
    ):
        if not (sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be positive")
        if not (0 < threshold_fraction <= 1):
            raise ValueError("threshold_fraction must be in (0, 1]")
        offsets = {"onset_ms": onset_ms, "release_ms": release_ms, "min_step_ms": min_step_ms}
        if min(offsets.values()) < 0:
            raise ValueError("offsets and min duration must be non-negative")
        for name, ms in offsets.items():
            if not math.isfinite(ms):
                raise ValueError(f"{name} must be finite")
        self.threshold_fraction = threshold_fraction
        self.onset = round(onset_ms * sample_rate_hz / 1000.0)
        self.release = round(release_ms * sample_rate_hz / 1000.0)
        self.min_step = round(min_step_ms * sample_rate_hz / 1000.0)
        self.threshold = INITIAL_THRESHOLD
        self.reset_stream()

    def reset_stream(self) -> None:
        self._phase = "idle"  # idle | in_step | pending
        self._cur_start = 0
        self._started_emitted = False
        self._pend_end = 0
        self._next_index = 0

    # -- threshold ---------------------------------------------------------

    def recompute_threshold(self, env_max: float) -> float:
        """Set the threshold to a fraction of ``env_max``, the largest
        envelope value of the reference, but no lower than the floor."""
        self.threshold = max(self.threshold_fraction * env_max, THRESHOLD_FLOOR)
        return self.threshold

    # -- streaming ---------------------------------------------------------

    def _finalize_pending(self) -> list[StepEvent]:
        events = []
        if self._pend_end - self._cur_start >= self.min_step:
            if not self._started_emitted:
                events.append(StepEvent(STARTED, self._cur_start))
            events.append(StepEvent(ENDED, self._pend_end))
        self._phase = "idle"
        self._started_emitted = False
        return events

    def feed(self, envelope_sample: float) -> tuple[StepEvent, ...]:
        """Advance one envelope sample; may return 0..3 settled events. The
        sample's index is the count of samples fed since construction or the
        last flush."""
        index = self._next_index
        self._next_index = index + 1
        if self._phase == "idle" and envelope_sample <= self.threshold:
            # nothing is open and nothing starts
            return ()
        events: list[StepEvent] = []

        # Once the merge horizon is past, no future rise can attach to the
        # pending segment; settle it.
        if self._phase == "pending" and index >= self._pend_end + self.onset:
            events.extend(self._finalize_pending())

        above = envelope_sample > self.threshold
        if self._phase == "idle":
            if above:
                self._phase = "in_step"
                self._cur_start = max(0, index - self.onset)
                self._started_emitted = False
        elif self._phase == "in_step":
            if not above:
                self._phase = "pending"
                self._pend_end = index + self.release
        elif above:
            # still pending, so index - onset < pend_end (settled above
            # otherwise): the rise's widened extent overlaps; the step goes on
            self._phase = "in_step"

        # A segment survives the duration filter as soon as the samples seen
        # so far guarantee the minimum length, whatever happens next.
        if (
            self._phase == "in_step"
            and not self._started_emitted
            and index + 1 - self._cur_start >= self.min_step
        ):
            events.append(StepEvent(STARTED, self._cur_start))
            self._started_emitted = True
        return tuple(events)

    def skip_quiet(self) -> bool:
        """Count one envelope sample that the caller knows is at or under
        the threshold, without feeding it, if no step is open or pending:
        feed would only count it. Return whether it was counted."""
        if self._phase != "idle":
            return False
        self._next_index += 1
        return True

    def flush(self) -> tuple[StepEvent, ...]:
        """End of stream: settle whatever is still open and reset."""
        n = self._next_index
        events: list[StepEvent] = []
        if self._phase == "in_step":
            self._pend_end = n
            events.extend(self._finalize_pending())
        elif self._phase == "pending":
            self._pend_end = min(self._pend_end, n)
            events.extend(self._finalize_pending())
        self.reset_stream()
        return tuple(events)


def segment_series(values, envelope_window: int, detector: StepDetector):
    """The [start, end) steps of values, a 1-D float array, and the envelope
    a fresh StreamingEnvelope of envelope_window readings takes of it; detector
    is fed and flushed at the threshold the largest envelope value sets."""
    envelope = StreamingEnvelope(envelope_window)
    env = [v for v in map(envelope.push, values.tolist()) if v is not None] + envelope.flush()
    detector.recompute_threshold(max(env))
    events = [ev for v in env for ev in detector.feed(v)]
    # the events alternate STARTED, ENDED, one pair per step
    bounds = [ev.index for ev in (*events, *detector.flush())]
    return list(zip(bounds[::2], bounds[1::2])), env
