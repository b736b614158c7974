"""Telemetry subsystem tests: registry instruments, span trees, sinks,
instrumented chase/cycle runs, and the disabled-mode fast path."""

import json

import pytest

from repro import telemetry
from repro.telemetry import (
    JSONLFileSink,
    MetricsRegistry,
    RingBufferSink,
    Tracer,
    format_snapshot,
    metric_key,
    profile_block,
    profiled,
)
from repro.vadalog import Program
from repro.vadalog.terms import Constant, LabelledNull


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry off and empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


TRANSITIVE = """
edge(a, b). edge(b, c). edge(c, d).
@label("base").
path(X, Y) :- edge(X, Y).
@label("step").
path(X, Z) :- path(X, Y), edge(Y, Z).
@label("mint").
manager(X, M) :- edge(X, _).
"""


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        assert registry.snapshot()["counters"]["hits"] == 5

    def test_labelled_counters_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("firings", rule="r1").inc(2)
        registry.counter("firings", rule="r2").inc(3)
        counters = registry.snapshot()["counters"]
        assert counters["firings{rule=r1}"] == 2
        assert counters["firings{rule=r2}"] == 3

    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"
        assert metric_key("m", {}) == "m"

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("size").set(10)
        registry.gauge("size").set(3)
        assert registry.snapshot()["gauges"]["size"] == 3

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_ns")
        for value in range(1, 101):
            histogram.observe(float(value))
        data = registry.snapshot()["histograms"]["latency_ns"]
        assert data["count"] == 100
        assert data["min"] == 1.0 and data["max"] == 100.0
        assert data["mean"] == pytest.approx(50.5)
        assert 49 <= data["p50"] <= 52
        assert 94 <= data["p95"] <= 97
        assert 98 <= data["p99"] <= 100

    def test_histogram_reservoir_keeps_exact_totals(self):
        from repro.telemetry.metrics import RESERVOIR_SIZE

        registry = MetricsRegistry()
        histogram = registry.histogram("big")
        n = RESERVOIR_SIZE + 500
        for value in range(n):
            histogram.observe(1.0)
        data = histogram.to_dict()
        assert data["count"] == n
        assert data["sum"] == pytest.approx(float(n))

    def test_merge_adds_counters_and_samples(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c").inc(1)
        right.counter("c").inc(2)
        right.counter("only_right").inc(7)
        left.histogram("h").observe(1.0)
        right.histogram("h").observe(3.0)
        left.merge(right)
        snapshot = left.snapshot()
        assert snapshot["counters"]["c"] == 3
        assert snapshot["counters"]["only_right"] == 7
        assert snapshot["histograms"]["h"]["count"] == 2
        assert snapshot["histograms"]["h"]["sum"] == pytest.approx(4.0)

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        registry.reset()
        assert len(registry) == 0

    def test_format_snapshot_mentions_metrics(self):
        registry = MetricsRegistry()
        registry.counter("chase.rule_firings", rule="r2").inc(9)
        registry.histogram("chase.run_ns").observe(1234.0)
        text = format_snapshot(registry.snapshot())
        assert "chase.rule_firings{rule=r2} = 9" in text
        assert "chase.run_ns" in text


class TestTracer:
    def test_span_nesting_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = {s["name"]: s for s in tracer.spans()}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None
        # children finish before parents, so durations nest
        assert (spans["outer"]["duration_ns"]
                >= spans["inner"]["duration_ns"])

    def test_span_attributes(self):
        tracer = Tracer()
        with tracer.span("work", kind="test") as span:
            span.set(result=42)
        (record,) = tracer.spans("work")
        assert record["attributes"] == {"kind": "test", "result": 42}

    def test_exception_marks_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (record,) = tracer.spans("boom")
        assert record["attributes"]["error"] == "ValueError"

    def test_ring_buffer_capacity(self):
        sink = RingBufferSink(capacity=3)
        tracer = Tracer(sinks=[sink])
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(sink) == 3
        assert [s["name"] for s in sink.spans()] == ["s2", "s3", "s4"]

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JSONLFileSink(str(path))])
        with tracer.span("a", step=1):
            with tracer.span("b"):
                pass
        tracer.close()
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["b", "a"]
        assert records[0]["parent_id"] == records[1]["span_id"]
        assert all(r["duration_ns"] >= 0 for r in records)

    def test_jsonl_sink_writes_a_term_as_its_text(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JSONLFileSink(str(path))])
        with tracer.span("a", value=Constant("x"), number=Constant(2),
                         terms=[Constant(1), LabelledNull(4)], pair=(1, 2),
                         other=object):
            pass
        tracer.close()
        (record,) = [json.loads(line)
                     for line in path.read_text().splitlines()]
        attributes = record["attributes"]
        assert attributes["value"] == '"x"'
        assert attributes["number"] == "2"
        assert attributes["terms"] == ["1", "⊥4"]
        assert attributes["pair"] == [1, 2]
        assert attributes["other"] == str(object)


class TestProfilingHooks:
    def test_profiled_decorator_records_histogram(self):
        telemetry.enable()

        @profiled("work.unit")
        def unit():
            return 7

        assert unit() == 7
        data = telemetry.snapshot()["histograms"]["work.unit_ns"]
        assert data["count"] == 1
        assert data["sum"] > 0

    def test_profiled_disabled_records_nothing(self):
        @profiled("work.off")
        def unit():
            return 7

        assert unit() == 7
        assert telemetry.snapshot()["histograms"] == {}

    def test_profile_block(self):
        telemetry.enable()
        with profile_block("block", phase="x"):
            pass
        assert "block_ns{phase=x}" in telemetry.snapshot()["histograms"]


class TestInstrumentedChase:
    def test_chase_run_records_required_metrics(self):
        telemetry.enable()
        result = Program.parse(TRANSITIVE).run()
        stats = result.stats
        assert stats["rounds"] >= 2
        counters = stats["telemetry"]["counters"]
        histograms = stats["telemetry"]["histograms"]
        # per-rule firing counts
        assert counters["chase.rule_firings{rule=base}"] == 3
        assert counters["chase.rule_firings{rule=step}"] >= 1
        # nulls introduced + iteration count
        assert counters["chase.nulls_introduced"] == 3
        assert counters["chase.iterations"] == stats["rounds"]
        # at least three timing histograms, all populated
        timing = [k for k in histograms if k.endswith("_ns")]
        assert len(timing) >= 3
        assert all(histograms[k]["count"] > 0 for k in timing)

    def test_chase_spans_form_a_tree(self):
        telemetry.enable()
        Program.parse(TRANSITIVE).run()
        spans = telemetry.tracer().spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["chase.run"]) == 1
        run_id = by_name["chase.run"][0]["span_id"]
        assert all(s["parent_id"] == run_id
                   for s in by_name["chase.stratum"])
        stratum_ids = {s["span_id"] for s in by_name["chase.stratum"]}
        assert all(s["parent_id"] in stratum_ids
                   for s in by_name["chase.round"])

    def test_run_metrics_merge_into_global_registry(self):
        telemetry.enable()
        Program.parse(TRANSITIVE).run()
        Program.parse(TRANSITIVE).run()
        counters = telemetry.snapshot()["counters"]
        assert counters["chase.runs"] == 2
        assert counters["chase.rule_firings{rule=base}"] == 6
        # store-level instruments record globally too
        assert counters["store.adds"] > 0

    def test_provenance_stats_by_rule(self):
        telemetry.enable()
        result = Program.parse(TRANSITIVE).run()
        stats = result.provenance.stats()
        assert stats["derivations"] == len(result.provenance)
        assert stats["by_rule"]["base"] == 3
        counters = telemetry.snapshot()["counters"]
        assert counters["provenance.derivations{rule=base}"] == 3


class TestDisabledFastPath:
    def test_no_spans_and_no_metrics_recorded(self):
        result = Program.parse(TRANSITIVE).run()
        assert telemetry.tracer().spans() == []
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}
        # ChaseResult carries no telemetry section
        assert "telemetry" not in result.stats
        # ...but the basic stats are always there
        assert result.stats["nulls_introduced"] == 3

    def test_disabled_run_equals_enabled_run(self):
        plain = Program.parse(TRANSITIVE).run()
        telemetry.enable()
        observed = Program.parse(TRANSITIVE).run()
        assert (set(map(str, plain.facts()))
                == set(map(str, observed.facts())))
        assert plain.rounds == observed.rounds

    def test_span_helper_returns_null_span(self):
        from repro.telemetry.tracing import _NullSpan

        span = telemetry.span("anything")
        assert isinstance(span, _NullSpan)
        with span as inner:
            inner.set(ignored=True)  # no-op, no error


class TestEnableDisable:
    def test_enable_with_trace_path_writes_jsonl(self, tmp_path):
        path = tmp_path / "chase.jsonl"
        telemetry.enable(trace_path=str(path))
        Program.parse(TRANSITIVE).run()
        telemetry.disable()
        records = [json.loads(line)
                   for line in path.read_text().strip().splitlines()]
        assert any(r["name"] == "chase.run" for r in records)

    def test_reset_drops_recorded_state(self):
        telemetry.enable()
        Program.parse(TRANSITIVE).run()
        assert telemetry.snapshot()["counters"]
        telemetry.reset()
        assert telemetry.snapshot()["counters"] == {}
        assert telemetry.tracer().spans() == []
