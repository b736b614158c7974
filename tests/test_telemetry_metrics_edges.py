"""Histogram edge cases: percentile queries on empty/single-sample
series must be well-defined (read paths never raise), and registry
``merge`` must be associative on the exact aggregates even past
reservoir truncation."""

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import RESERVOIR_SIZE, Histogram


class TestPercentileEdgeCases:
    def test_empty_histogram_is_zero_for_any_p(self):
        histogram = Histogram()
        for p in (0, 50, 95, 99, 100, -10, 250):
            assert histogram.percentile(p) == 0.0

    def test_empty_histogram_snapshot_does_not_raise(self):
        registry = MetricsRegistry()
        registry.histogram("empty")
        data = registry.snapshot()["histograms"]["empty"]
        assert data["count"] == 0
        assert data["mean"] == 0.0
        assert data["p50"] == 0.0 and data["p99"] == 0.0
        assert data["min"] == 0.0 and data["max"] == 0.0

    def test_single_sample_is_every_percentile(self):
        histogram = Histogram()
        histogram.observe(42.0)
        for p in (0, 1, 50, 99, 100):
            assert histogram.percentile(p) == 42.0

    def test_out_of_range_p_is_clamped(self):
        histogram = Histogram()
        histogram.extend([1.0, 2.0, 3.0])
        assert histogram.percentile(-5) == 1.0
        assert histogram.percentile(1e9) == 3.0

    def test_two_samples_extremes(self):
        histogram = Histogram()
        histogram.extend([10.0, 20.0])
        assert histogram.percentile(0) == 10.0
        assert histogram.percentile(100) == 20.0


def exact(snapshot):
    """The exact (non-reservoir) part of a snapshot: counters, gauges,
    and per-histogram count/sum/min/max/mean."""
    return {
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": {
            key: {field: data[field]
                  for field in ("count", "sum", "min", "max", "mean")}
            for key, data in snapshot["histograms"].items()
        },
    }


def make_registries():
    a = MetricsRegistry()
    a.counter("c").inc(1)
    a.counter("only_a").inc(5)
    a.gauge("g").set(1)
    a.histogram("h").extend([1.0, 9.0])
    b = MetricsRegistry()
    b.counter("c").inc(2)
    b.gauge("g").set(2)
    b.histogram("h").extend([5.0])
    b.histogram("h2", rule="r").extend([2.0, 4.0])
    c = MetricsRegistry()
    c.counter("c").inc(4)
    c.histogram("h").extend([0.5, 100.0])
    return a, b, c


class TestMergeAssociativity:
    def test_left_and_right_grouping_agree(self):
        a1, b1, c1 = make_registries()
        b1.merge(c1)
        a1.merge(b1)  # a . (b . c)
        a2, b2, c2 = make_registries()
        a2.merge(b2)
        a2.merge(c2)  # (a . b) . c
        assert a1.snapshot() == a2.snapshot()

    def test_merged_aggregates_are_the_union(self):
        a, b, c = make_registries()
        a.merge(b)
        a.merge(c)
        snapshot = a.snapshot()
        assert snapshot["counters"]["c"] == 7
        assert snapshot["counters"]["only_a"] == 5
        assert snapshot["gauges"]["g"] == 2  # last write wins
        histogram = snapshot["histograms"]["h"]
        assert histogram["count"] == 5
        assert histogram["sum"] == pytest.approx(115.5)
        assert histogram["min"] == 0.5 and histogram["max"] == 100.0

    def test_merge_into_empty_is_identity(self):
        a, _, _ = make_registries()
        empty = MetricsRegistry()
        empty.merge(a)
        assert empty.snapshot() == a.snapshot()

    def test_associative_past_reservoir_truncation(self):
        """The donor's min/max may no longer be in its reservoir; the
        merge must still carry them (and the exact count/sum)."""

        def overfull():
            registry = MetricsRegistry()
            histogram = registry.histogram("big")
            histogram.observe(0.25)  # the true min, soon overwritten
            for _ in range(RESERVOIR_SIZE + 10):
                histogram.observe(1.0)
            histogram.observe(999.0)  # true max, lands in-reservoir
            return registry

        def single():
            registry = MetricsRegistry()
            registry.histogram("big").observe(2.0)
            return registry

        left = single()
        left.merge(overfull())
        grouped = single()
        middle = MetricsRegistry()
        middle.merge(overfull())
        grouped.merge(middle)
        for merged in (left, grouped):
            data = merged.snapshot()["histograms"]["big"]
            assert data["count"] == RESERVOIR_SIZE + 13
            assert data["min"] == 0.25
            assert data["max"] == 999.0
            assert data["sum"] == pytest.approx(
                0.25 + (RESERVOIR_SIZE + 10) + 999.0 + 2.0
            )
        assert exact(left.snapshot()) == exact(grouped.snapshot())

    def test_histogram_merge_from_empty_donor(self):
        histogram = Histogram()
        histogram.observe(3.0)
        histogram.merge_from(Histogram())
        assert histogram.count == 1
        assert histogram.min == 3.0 and histogram.max == 3.0

    def test_empty_histogram_merge_from_full_donor(self):
        donor = Histogram()
        donor.extend([1.0, 2.0])
        histogram = Histogram()
        histogram.merge_from(donor)
        assert histogram.count == 2
        assert histogram.total == pytest.approx(3.0)
        assert histogram.min == 1.0 and histogram.max == 2.0


class TestThreadSafety:
    """Concurrent instrument updates must lose nothing: registries and
    the event log are shared across threads, because the ``/metrics``
    scrape thread (``ThreadingHTTPServer`` in ``telemetry/exporters.py``)
    snapshots them while the run keeps emitting."""

    THREADS = 8
    PER_THREAD = 2_000

    def _hammer(self, worker):
        import threading

        errors = []

        def guarded(index):
            try:
                worker(index)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

    def test_counter_increments_are_exact(self):
        registry = MetricsRegistry()

        def worker(index):
            counter = registry.counter("hammered")
            for _ in range(self.PER_THREAD):
                counter.inc()

        self._hammer(worker)
        total = self.THREADS * self.PER_THREAD
        assert registry.counter("hammered").value == total

    def test_gauge_inc_dec_balances_to_zero(self):
        registry = MetricsRegistry()

        def worker(index):
            gauge = registry.gauge("inflight")
            for _ in range(self.PER_THREAD):
                gauge.inc()
                gauge.dec()

        self._hammer(worker)
        assert registry.gauge("inflight").value == 0

    def test_histogram_aggregates_are_exact(self):
        registry = MetricsRegistry()

        def worker(index):
            histogram = registry.histogram("latency")
            base = index * self.PER_THREAD
            for offset in range(self.PER_THREAD):
                histogram.observe(float(base + offset))

        self._hammer(worker)
        histogram = registry.histogram("latency")
        total = self.THREADS * self.PER_THREAD
        assert histogram.count == total
        assert histogram.min == 0.0
        assert histogram.max == float(total - 1)
        assert histogram.total == float(total * (total - 1) // 2)

    def test_histogram_merge_from_races_with_observe(self):
        registry = MetricsRegistry()
        source = Histogram()
        source.extend([1.0, 2.0, 3.0])

        def worker(index):
            histogram = registry.histogram("merged")
            if index % 2 == 0:
                for _ in range(self.PER_THREAD):
                    histogram.observe(5.0)
            else:
                for _ in range(50):
                    histogram.merge_from(source)

        self._hammer(worker)
        histogram = registry.histogram("merged")
        even = (self.THREADS // 2) * self.PER_THREAD
        odd = (self.THREADS - self.THREADS // 2) * 50 * 3
        assert histogram.count == even + odd
        assert histogram.min == 1.0
        assert histogram.max == 5.0

    def test_event_log_sequence_is_gap_free(self):
        from repro.telemetry.events import EventLog

        log = EventLog(path=None)
        per_thread = 500

        def worker(index):
            for offset in range(per_thread):
                log.emit("hammer", worker=index, offset=offset)

        self._hammer(worker)
        events = log.tail()
        total = self.THREADS * per_thread
        assert len(events) <= total  # ring buffer may truncate
        sequences = [event["seq"] for event in events]
        assert len(set(sequences)) == len(sequences), "duplicate seq"
        assert max(sequences) == total, "lost emissions"
