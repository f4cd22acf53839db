"""Host-speed calibration for shared, noisy machines.

On a shared host the same request can take 1.5x longer for minutes at a
time because of other tenants, which swamps any regression bound.  The
benchmark therefore times a fixed calibration kernel -- benchmark code,
not program code, so no program change can move it -- between requests,
and reports each end-to-end time both raw and divided by the host's
speed at that moment:

    normalized = raw * REFERENCE_KERNEL_S / median(kernel times near the request)

Normalized times read in seconds of a host on which the kernel takes
``REFERENCE_KERNEL_S``; raw times stay in the run record.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

#: Kernel time on the reference host (2-vCPU Intel Xeon VM, numpy 2.4,
#: Python 3.11, quiet), so normalized times read in its seconds.
REFERENCE_KERNEL_S = 0.005
#: Calibration samples within this many seconds of a request's start or
#: end describe the host speed it ran at.
WINDOW_S = 2.0
#: Fewest samples one speed estimate uses.
MIN_SAMPLES = 5
#: Unrecorded kernel calls before the first sample.
WARMUP = 5
#: In-loop kernel time may differ from the pre-loop time by this share
#: before the run is flagged (the time metrics' regression bound).
DRIFT_BOUND = 0.25

_X = np.linspace(0.0, 3.0, 2048)


def kernel() -> float:
    """Small numpy array passes mixed with interpreted loops, like the
    program's hazard and analysis layers."""
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(150):
        y = np.exp(-_X * (1 + i % 5)) * np.cos(_X * i)
        acc += float(np.maximum(y, 0.0).sum())
        for j in range(40):
            table[j] = math.sqrt(j + i) * 0.5
        acc += sum(table.values())
    return acc


class SpeedTrack:
    """Kernel timings through a run, and the host speed near any moment."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []
        for _ in range(WARMUP):  # first calls pay numpy's lazy set-up
            kernel()

    def sample(self, repetitions: int = 3) -> None:
        for _ in range(repetitions):
            start = time.perf_counter()
            kernel()
            self.at.append(start)
            self.seconds.append(time.perf_counter() - start)

    def merge(self, at: list[float], seconds: list[float]) -> None:
        """Add samples another process took (``perf_counter`` is the
        system-wide monotonic clock, so the timelines line up)."""
        pairs = sorted(zip(self.at + list(at), self.seconds + list(seconds)))
        self.at = [a for a, _ in pairs]
        self.seconds = [s for _, s in pairs]

    def slowdown(self, start: float, end: float) -> float:
        """Kernel time near [start, end] relative to the reference host."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return statistics.median(self.seconds[lo:hi]) / REFERENCE_KERNEL_S

    def normalize(self, spans: list[tuple[float, float]]) -> list[float]:
        """Each (start, end) span's duration in reference-host seconds."""
        return [(end - start) / self.slowdown(start, end) for start, end in spans]

    def median_slowdown(self) -> float:
        return statistics.median(self.seconds) / REFERENCE_KERNEL_S

    def drift(self, loop_start: float) -> dict:
        """Median kernel time inside the timed loop relative to before it.

        Work the program leaves running between requests (a server
        syncing its journal, pool workers exiting) would slow the kernel
        and shrink every normalized time; a drift beyond ``DRIFT_BOUND``
        flags the run so its figures are not taken at face value.
        """
        split = bisect.bisect_left(self.at, loop_start)
        before, inside = self.seconds[:split], self.seconds[split:]
        if not before or not inside:
            return {"value": 0.0, "flagged": False}
        value = statistics.median(inside) / statistics.median(before) - 1.0
        return {"value": value, "flagged": abs(value) > DRIFT_BOUND}
