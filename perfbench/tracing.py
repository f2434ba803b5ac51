"""In-memory spans around calls into gaitmp, recorded from outside the package.

A span is (name, start_ns, end_ns, parent). `patched` swaps module functions,
methods and properties for traced versions for the length of a `with` block
and puts the original objects back on exit, so untraced passes run the
package's own code objects untouched.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

NO_PARENT = -1
PROBE_SPAN = "clock.probe"


class Tracer:
    """Append-only span store; spans nest by call order on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._open = [NO_PARENT]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        k = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self._open.append(k)
        self.start.append(time.perf_counter_ns())
        return k

    def finish(self, k: int) -> None:
        self.end[k] = time.perf_counter_ns()
        self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, counter: str | None = None):
        """fn traced as `name`; with `counter`, len(result) is added to it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(k)
            if counter is not None:
                self.count(counter, len(result))
            return result

        return traced

    def spans(self, name: str, iterable):
        """Yield from iterable, one span per item produced."""
        it = iter(iterable)
        while True:
            k = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                self.finish(k)
                return
            self.finish(k)
            yield item

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        A span's total leaves out its direct "clock.probe" children: probes
        belong to the measurement, not to the layer that happened to be open.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["parent"], dur)
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        nested = (a["name_id"] == self._ids.get(PROBE_SPAN, -1)) & (a["parent"] != NO_PARENT)
        probed = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        total = np.bincount(a["name_id"], weights=dur - probed, minlength=k)
        selfs = np.bincount(a["name_id"], weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]) / 1e9, float(selfs[i]) / 1e9)
            for i, name in enumerate(self.names)
        }


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another on one thread, so their
    durations never overlap and their sum is the covered part of the parent.
    """
    parent = np.asarray(parent)
    dur = np.asarray(dur, dtype=np.float64)
    child = parent != NO_PARENT
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def save_spans(tracers: list[Tracer], path) -> None:
    """Write every span of every tracer to one .npz, tagged by pass number."""
    names = sorted({n for t in tracers for n in t.names})
    index = {n: i for i, n in enumerate(names)}
    cols: dict[str, list[np.ndarray]] = {k: [] for k in ("pass", "name_id", "parent", "start", "end")}
    for p, t in enumerate(tracers):
        a = t.arrays()
        remap = np.array([index[n] for n in t.names], dtype=np.int32)
        cols["pass"].append(np.full(a["start"].size, p, dtype=np.int32))
        cols["name_id"].append(remap[a["name_id"]] if remap.size else a["name_id"])
        for key in ("parent", "start", "end"):
            cols[key].append(a[key])
    np.savez(path, names=np.array(names), **{k: np.concatenate(v) for k, v in cols.items()})


@contextlib.contextmanager
def patched(targets):
    """Install (owner, attribute, replacement) triples; restore on exit."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
