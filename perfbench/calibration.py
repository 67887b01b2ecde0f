"""Host-speed calibration: a fixed slice of work timed between cases.

The 2-core VMs this benchmark runs on drift in speed by 15-35% over tens
of seconds, the same way in wall and CPU time, and correlated across
consecutive processes, so no raw wall time repeats within a tenth. The
benchmark therefore times a short slice of fixed work (about 15 ms) before
the first case and after every case, and divides each case's time by the
mean of its two neighbouring slices. Multiplying by ``CAL_REF_S`` turns the
result back into seconds at the reference host speed.

The slice belongs to the benchmark, not the program: it runs no ``repro``
code, so no change to the program can move it. Its mix (dict and tuple
building, ``sorted``, ``math.prod`` and small NumPy ops) resembles the
interpreter-bound work of the mapper and the batch kernel, so it drifts
with the host the way they do. ``gc`` is off while it runs.
"""

from __future__ import annotations

import contextlib
import gc
import math
import time
from typing import List

import numpy as np

#: Seconds one slice takes on the reference host (median of 600 slices
#: on a 2-core x86-64 VM, Python 3.11, NumPy 2.4). Fixed: changing it
#: rescales every host-time metric.
CAL_REF_S = 0.0150

_ROUNDS = 110


def _work() -> float:
    acc = 0.0
    for r in range(_ROUNDS):
        table = {(i, r): (i * 2654435761 + r) % 1009 for i in range(160)}
        keys = sorted(table, key=table.__getitem__)
        acc += math.prod(table[k] % 7 + 1 for k in keys[:16]) % 1013
        acc += sum(tuple(table[k] for k in keys[::4])) % 97
        a = np.arange(48, dtype=np.int64) * (r + 1)
        acc += int(np.cumsum(a % 11).max()) + int(np.maximum(a, 7).sum() % 13)
        acc += int(np.prod(np.minimum(a[:6] % 5 + 1, 3)))
    for r in range(150):
        f = np.arange(64, dtype=np.float64) + r
        grid = np.cumprod(np.ones((8, 8)) * 1.01, axis=1)
        acc += float((f[:8, None] * grid).sum()) + float(np.maximum.accumulate(f).mean())
        acc += float(np.where(f > 30, f, 0).sum())
    return acc


def calibration_slice() -> float:
    """Run the slice once with ``gc`` off; return its wall seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Timeline:
    """Cuts a pass into segments, each followed by a calibration slice.

    ``cut()`` closes the running segment, runs a slice and opens the next
    segment. Segment ``i`` lies between slices ``i`` and ``i + 1``, which
    normalize it. Workloads cut at case boundaries once a segment is
    longer than ``every`` seconds, and inside a long case at the
    program's batch boundaries, so no segment spans much host drift.
    ``collect()`` runs ``gc.collect()`` between cases; like the slices,
    its time belongs to no segment. ``span`` (a context-manager factory)
    brackets slices and collections when tracing, so that they are not
    charged to the span they interrupt.
    """

    def __init__(self, every: float, span=contextlib.nullcontext) -> None:
        self.every = every
        self._span = span
        self.slices: List[float] = []
        self.segments: List[float] = []
        self._calibrate()

    def _calibrate(self) -> None:
        with self._span():
            self.slices.append(calibration_slice())
        self._mark = time.perf_counter()

    def cut(self) -> None:
        """Close the running segment and run a slice."""
        self.segments.append(time.perf_counter() - self._mark)
        self._calibrate()

    def cut_if_long(self) -> None:
        """Cut if the running segment is longer than ``every`` seconds."""
        if time.perf_counter() - self._mark > self.every:
            self.cut()

    def collect(self) -> None:
        """``gc.collect()``, left out of the running segment."""
        t0 = time.perf_counter()
        with self._span():
            gc.collect()
        self._mark += time.perf_counter() - t0

    @property
    def open_segment(self) -> int:
        """Index of the segment now running."""
        return len(self.segments)

    def scale(self, segment: int) -> float:
        """Factor taking raw seconds in ``segment`` to reference seconds."""
        mean = (self.slices[segment] + self.slices[segment + 1]) / 2
        return CAL_REF_S / mean

    def mean_scale(self, first: int, last: int) -> float:
        """Time-weighted scale of segments ``first`` .. ``last``."""
        raw = sum(self.segments[first:last + 1])
        if not raw:
            return self.scale(last)
        return sum(self.segments[i] * self.scale(i) for i in range(first, last + 1)) / raw

    def raw_s(self) -> float:
        """Raw seconds of all segments."""
        return sum(self.segments)

    def normalized_s(self) -> float:
        """Reference seconds of all segments."""
        return sum(s * self.scale(i) for i, s in enumerate(self.segments))
