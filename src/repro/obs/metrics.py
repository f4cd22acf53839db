"""Counters, gauges, and histograms with snapshot/merge aggregation.

A :class:`MetricsRegistry` is the numeric half of the observability
layer (:mod:`repro.obs`): hot paths increment counters, set gauges, and
observe histogram samples; at the end of a run the registry is frozen
into a plain-JSON :meth:`~MetricsRegistry.snapshot` that lands in the
run manifest and ``--metrics-out``.

Snapshots are designed to *merge*: a worker process can run its own
registry, ship ``registry.snapshot()`` back over the process boundary
(it is a plain dict of plain types, so it pickles), and the parent folds
it in with :meth:`~MetricsRegistry.merge` -- counters add, gauges take
the latest write, histograms pool their samples.  Merging is associative
and commutative over counters and histograms, so the aggregate is
independent of worker scheduling.

Histograms are summary-only (count / total / min / max plus geometric
buckets), which keeps them mergeable without shipping raw samples and
keeps ``observe()`` O(#buckets) worst case.  All write paths are
guarded by a lock, so one registry can be shared across threads.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from repro.errors import ObservabilityError

#: Geometric histogram bucket upper bounds (seconds-flavored but unitless):
#: 1 µs .. ~100 s in half-decade steps, plus a catch-all +inf bucket.
DEFAULT_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (exp / 2.0) for exp in range(-12, 5)
)


@dataclass
class Histogram:
    """A mergeable summary of observed samples."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    bucket_bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS
    bucket_counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bucket_bounds) + 1)

    def observe(self, value: float, count: int = 1) -> None:
        """Add ``count`` samples of ``value`` (one call for a whole block)."""
        if not math.isfinite(value):
            raise ObservabilityError(f"histogram sample must be finite, got {value!r}")
        if count < 1:
            raise ObservabilityError(f"sample count must be positive, got {count!r}")
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bucket_bounds):
            if value <= bound:
                self.bucket_counts[i] += count
                return
        self.bucket_counts[-1] += count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
            "bucket_bounds": list(self.bucket_bounds),
            "bucket_counts": list(self.bucket_counts),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        hist = cls(
            count=int(payload["count"]),
            total=float(payload["total"]),
            min=math.inf if payload["min"] is None else float(payload["min"]),
            max=-math.inf if payload["max"] is None else float(payload["max"]),
            bucket_bounds=tuple(payload["bucket_bounds"]),
            bucket_counts=[int(c) for c in payload["bucket_counts"]],
        )
        return hist

    def merge(self, other: "Histogram") -> None:
        if tuple(other.bucket_bounds) != tuple(self.bucket_bounds):
            raise ObservabilityError(
                "cannot merge histograms with different bucket bounds"
            )
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c


class MetricsRegistry:
    """A process-local registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` (default 1) to the named counter."""
        if value < 0:
            raise ObservabilityError(f"counter {name!r} cannot decrease")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of a point-in-time quantity."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float, count: int = 1) -> None:
        """Add ``count`` samples of ``value`` to the named histogram."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value, count)

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-JSON, picklable view of every metric in the registry."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in self._histograms.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges take the incoming value (latest write wins),
        histogram summaries pool.  Merging worker snapshots in any order
        produces the same counters and histograms.
        """
        try:
            counters = snapshot["counters"]
            gauges = snapshot["gauges"]
            histograms = snapshot["histograms"]
        except (TypeError, KeyError) as exc:
            raise ObservabilityError(
                f"not a metrics snapshot: missing {exc}"
            ) from exc
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(gauges)
            for name, payload in histograms.items():
                incoming = Histogram.from_dict(payload)
                existing = self._histograms.get(name)
                if existing is None:
                    self._histograms[name] = incoming
                else:
                    existing.merge(incoming)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
