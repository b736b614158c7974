"""Metric primitives and the process-wide registry.

Three instrument kinds, mirroring the usual monitoring vocabulary:

* :class:`Counter` — monotonically increasing integer (rule firings,
  facts added, nulls introduced);
* :class:`Gauge` — last-written value (frontier size, store size);
* :class:`Histogram` — distribution of observations with exact
  count/sum/min/max and approximate p50/p95/p99 over a bounded
  reservoir (wall-time of a span, bindings per rule application).

The :class:`MetricsRegistry` hands out instruments keyed by name plus
optional labels (``registry.counter("chase.rule_firings", rule="r2")``),
snapshots everything to plain dicts (JSON-serialisable, used by the
CLI ``--profile`` flag and the bench trajectory), and merges snapshots
from other registries (used when worker registries are folded into a
session-level one).

Everything here is dependency-free and safe to import from hot paths;
instrument handles are plain objects whose ``inc``/``set``/``observe``
methods do a few dict/list operations.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Histograms keep at most this many samples for percentile estimation;
#: beyond it, samples are overwritten round-robin (count/sum/min/max
#: stay exact).
RESERVOIR_SIZE = 4096

#: Percentiles reported by every histogram snapshot.
PERCENTILES = (50, 95, 99)


def metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """Canonical string key for a (name, labels) pair:
    ``name{k1=v1,k2=v2}`` with labels sorted by key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count.

    Registries are shared across threads: the ``/metrics`` scrape
    thread (:class:`~repro.telemetry.exporters.MetricsHTTPServer`)
    snapshots one while the run that owns it keeps counting.  ``+=``
    on a Python int is read-modify-write, so the lock keeps ``inc``
    exact when more than one thread emits.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A last-write-wins numeric value."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """A distribution with exact totals and reservoir percentiles.

    ``observe`` updates five fields; the lock keeps count/sum/min/max
    exact under concurrent observers.  ``merge_from`` replays inline
    under the same lock (never via :meth:`observe`, which would
    deadlock on the non-reentrant lock).
    """

    __slots__ = ("count", "total", "min", "max", "_samples", "_cursor",
                 "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._cursor = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._observe(value)

    def _observe(self, value: float) -> None:
        """Unlocked core of :meth:`observe`; callers hold ``_lock``."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < RESERVOIR_SIZE:
            self._samples.append(value)
        else:
            # Round-robin overwrite: cheap, deterministic, and good
            # enough for the tail percentiles we report.
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % RESERVOIR_SIZE

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained samples.

        Well-defined on every input: an empty series yields ``0.0``, a
        single-sample series yields that sample for any ``p``, and
        ``p`` outside ``[0, 100]`` is clamped rather than raising —
        percentile queries are read paths and must never take the
        exporter down.
        """
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        p = max(0.0, min(100.0, p))
        rank = max(0, min(len(ordered) - 1,
                          int(round(p / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def extend(self, samples: Iterable[float]) -> None:
        with self._lock:
            for sample in samples:
                self._observe(sample)

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram in, keeping count/sum/min/max exact
        even when the other's reservoir already truncated (its min/max
        may live outside the retained samples), so merging is
        associative on every exact aggregate."""
        with other._lock:
            samples = list(other._samples)
            other_count = other.count
            other_total = other.total
            other_min = other.min
            other_max = other.max
        with self._lock:
            for sample in samples:
                self._observe(sample)
            # The sample replay above double-counts nothing but only
            # saw the retained reservoir: patch the exact aggregates.
            self.count += other_count - len(samples)
            self.total += other_total - sum(samples)
            if other_min is not None and (
                self.min is None or other_min < self.min
            ):
                self.min = other_min
            if other_max is not None and (
                self.max is None or other_max > self.max
            ):
                self.max = other_max

    def to_dict(self) -> Dict[str, float]:
        with self._lock:
            data: Dict[str, float] = {
                "count": self.count,
                "sum": self.total,
                "mean": self.mean,
                "min": self.min if self.min is not None else 0.0,
                "max": self.max if self.max is not None else 0.0,
            }
            ordered = sorted(self._samples)
        for p in PERCENTILES:
            if ordered:
                rank = max(0, min(len(ordered) - 1,
                                  int(round(p / 100.0 * (len(ordered) - 1)))))
                data[f"p{p}"] = ordered[rank]
            else:
                data[f"p{p}"] = 0.0
        return data


class MetricsRegistry:
    """Named instruments with label support, snapshot and merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on first use) ----------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter())
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge())
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(key, Histogram())
        return instrument

    # -- views ------------------------------------------------------------

    def counters(self, prefix: str = "") -> Dict[str, int]:
        return {
            key: counter.value
            for key, counter in sorted(self._counters.items())
            if key.startswith(prefix)
        }

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Everything as a plain JSON-serialisable dict."""
        return {
            "counters": {
                key: counter.value
                for key, counter in sorted(self._counters.items())
            },
            "gauges": {
                key: gauge.value
                for key, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                key: histogram.to_dict()
                for key, histogram in sorted(self._histograms.items())
            },
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one: counters add, gauges
        take the other's value, histogram samples are appended."""
        for key, counter in other._counters.items():
            self._raw_counter(key).inc(counter.value)
        for key, gauge in other._gauges.items():
            self._raw_gauge(key).set(gauge.value)
        for key, histogram in other._histograms.items():
            self._raw_histogram(key).merge_from(histogram)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- helpers -----------------------------------------------------------

    def _raw_counter(self, key: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(key, Counter())

    def _raw_gauge(self, key: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(key, Gauge())

    def _raw_histogram(self, key: str) -> Histogram:
        with self._lock:
            return self._histograms.setdefault(key, Histogram())

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, "
            f"{len(self._histograms)} histograms)"
        )


def format_snapshot(snapshot: Mapping[str, Any], indent: str = "  ") -> str:
    """Human-readable rendering of a registry snapshot (the CLI
    ``--profile`` report)."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for key, value in counters.items():
            lines.append(f"{indent}{key} = {value}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for key, value in gauges.items():
            lines.append(f"{indent}{key} = {value:g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for key, data in histograms.items():
            lines.append(
                f"{indent}{key}: n={data['count']} mean={data['mean']:.4g} "
                f"p50={data['p50']:.4g} p95={data['p95']:.4g} "
                f"p99={data['p99']:.4g} max={data['max']:.4g}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"
