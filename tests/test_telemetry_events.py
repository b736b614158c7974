"""Unified event stream tests: the EventLog envelope and summary fold,
file replay (the on-disk stream must tell the same story the live log
folded), the instrumented emitters (chase derivations, anonymization
decisions, framework lifecycle) and the CLI export flags."""

import json
from collections import namedtuple

import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.data import generate_dataset
from repro.framework import VadaSA
from repro.telemetry import EventLog, EventSpanSink
from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    fold,
    new_summary,
    read_events,
    replay,
)
from repro.vadalog import Program
from repro.vadalog.terms import Constant, LabelledNull


@pytest.fixture(autouse=True)
def clean_telemetry():
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


class TestEventLog:
    def test_envelope_fields(self):
        log = EventLog(clock=lambda: 12.5)
        event = log.emit("decision", kind="suppress", row=3)
        assert event == {
            "v": EVENT_SCHEMA_VERSION,
            "seq": 1,
            "ts": 12.5,
            "type": "decision",
            "payload": {"kind": "suppress", "row": 3},
        }
        assert len(log) == 1

    def test_sequence_increments(self):
        log = EventLog()
        seqs = [log.emit("lifecycle", stage="s")["seq"] for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_payload_normalized_to_json_scalars(self):
        log = EventLog()
        null = LabelledNull(7)
        event = log.emit("decision", kind="suppress", new=null,
                         derived=(null, 1), nested={"v": null})
        payload = event["payload"]
        assert payload["new"] == str(null)
        assert payload["derived"] == [str(null), 1]
        assert payload["nested"] == {"v": str(null)}
        # The whole envelope survives a JSON round-trip unchanged.
        assert json.loads(json.dumps(event)) == event

    def test_constant_payload_renders_as_its_text(self):
        log = EventLog()
        point = namedtuple("point", "x y")
        event = log.emit("decision", kind="keep", value=Constant("zip"),
                         derived=(Constant(3), LabelledNull(2)),
                         pair=point(Constant(1.5), 4))
        payload = event["payload"]
        assert payload["value"] == '"zip"'
        assert payload["derived"] == ["3", "⊥2"]
        assert payload["pair"] == ["1.5", 4]
        assert json.loads(json.dumps(event)) == event

    def test_summary_counts_by_type_and_kind(self):
        log = EventLog()
        log.emit("decision", kind="suppress", method="suppression")
        log.emit("decision", kind="suppress", method="suppression")
        log.emit("decision", kind="derive", rule="step")
        log.emit("lifecycle", stage="share")
        summary = log.summary()
        assert summary["events"] == 4
        assert summary["by_type"] == {"decision": 3, "lifecycle": 1}
        assert summary["decisions"]["by_kind"] == {
            "suppress": 2, "derive": 1,
        }
        assert summary["decisions"]["by_rule"] == {
            "suppression": 2, "step": 1,
        }
        assert summary["lifecycle"] == {"share": 1}

    def test_summary_is_a_copy(self):
        log = EventLog()
        log.emit("lifecycle", stage="assess")
        summary = log.summary()
        summary["lifecycle"]["assess"] = 99
        assert log.summary()["lifecycle"]["assess"] == 1

    def test_metrics_event_last_snapshot_wins(self):
        log = EventLog()
        log.emit_metrics({"counters": {"a": 1}})
        log.emit_metrics({"counters": {"a": 5, "b": 2}})
        assert log.summary()["counters"] == {"a": 5, "b": 2}

    def test_tail_bounded_and_filterable(self):
        log = EventLog(keep=3)
        for i in range(5):
            log.emit("decision", kind="derive", i=i)
        log.emit("lifecycle", stage="share")
        tail = log.tail()
        assert len(tail) == 3
        assert [e["seq"] for e in tail] == [4, 5, 6]
        assert [e["type"] for e in log.tail("lifecycle")] == ["lifecycle"]
        # Summary still covers everything, not just the tail.
        assert log.summary()["events"] == 6

    def test_emit_after_close_is_noop(self):
        log = EventLog()
        log.emit("lifecycle", stage="assess")
        log.close()
        assert log.emit("lifecycle", stage="share") is None
        assert log.summary()["events"] == 1
        log.close()  # idempotent

    def test_span_sink_forwards(self):
        log = EventLog()
        EventSpanSink(log).emit({"name": "chase.run", "elapsed_ns": 10})
        summary = log.summary()
        assert summary["spans"] == {
            "total": 1, "by_name": {"chase.run": 1},
        }


class TestFold:
    def test_fold_matches_incremental_summary(self):
        log = EventLog()
        events = [
            log.emit("decision", kind="recode", method="recoding"),
            log.emit("span", name="cycle.iteration"),
            log.emit("metrics", counters={"x": 1}),
        ]
        folded = new_summary()
        for event in events:
            fold(folded, event)
        assert folded == log.summary()

    def test_unknown_type_counted_not_crashed(self):
        summary = fold(new_summary(), {"type": "future-thing",
                                       "payload": {}})
        assert summary["by_type"] == {"future-thing": 1}
        assert summary["events"] == 1

    def test_retired_plan_fallback_events_fold_as_unknown_type(self):
        # Streams written before the chase had one execution path may
        # carry plan_fallback events; they fold like any unknown type.
        summary = fold(new_summary(), {"type": "plan_fallback",
                                       "payload": {"rule": "r"}})
        assert summary["by_type"] == {"plan_fallback": 1}
        assert "plan_fallbacks" not in summary


class TestBatchMaskEvents:
    # Mutual recursion keeps both rules in one stratum, so e(2, 0)
    # arrives as a *delta* fact; the delta plan's pushed-down division
    # then raises mid-join, but the join on f filters X=2 out of every
    # complete body match, so the batch executor masks that row.
    MASK_PROGRAM = (
        'f(1). e(1, 1). seed(2).\n@label("div").\n'
        'out(Q) :- e(X, Y), Q = X / Y, f(X).\n'
        'e(X, 0) :- out(Q), seed(X).\n@output("out").\n'
    )

    def test_batch_mask_events_replay_from_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry.enable(events_path=str(path))
        log = telemetry.events()
        Program.parse(self.MASK_PROGRAM).run(preflight=False)
        telemetry.disable()
        summary = replay(str(path))
        assert summary == log.summary()
        assert summary["by_type"]["batch_mask"] >= 1

    def test_no_mask_no_event(self):
        telemetry.enable(events=True)
        Program.parse(TRANSITIVE).run()
        log = telemetry.events()
        assert log.tail("batch_mask") == []
        assert "batch_mask" not in log.summary()["by_type"]


class TestFileReplay:
    def write_some(self, path):
        log = EventLog(path=str(path))
        log.emit("decision", kind="suppress", method="suppression",
                 row=0, attribute="ZIP")
        log.emit("span", name="cycle.run", elapsed_ns=123)
        log.emit("lifecycle", stage="anonymize", iterations=2)
        log.emit_metrics({"counters": {"cycle.runs": 1}})
        log.close()
        return log

    def test_replay_equals_live_summary(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = self.write_some(path)
        assert replay(str(path)) == log.summary()

    def test_read_events_validates_envelope(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"no_type": 1}\n')
        with pytest.raises(ValueError, match="not an event envelope"):
            list(read_events(str(path)))

    def test_read_events_rejects_garbage_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            list(read_events(str(path)))

    def test_read_events_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(
            {"v": 999, "seq": 1, "ts": 0, "type": "span", "payload": {}}
        ) + "\n")
        with pytest.raises(ValueError, match="schema version 999"):
            list(read_events(str(path)))

    def test_replay_detects_sequence_gap(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self.write_some(path)
        lines = path.read_text().splitlines()
        del lines[1]  # drop seq 2: a truncated/corrupted stream
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="sequence gap"):
            replay(str(path))
        # Non-strict replay still folds what is there.
        assert replay(str(path), strict_sequence=False)["events"] == 3

    def test_replay_detects_truncated_head(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self.write_some(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match="sequence gap"):
            replay(str(path))

    def test_replay_allows_appended_sessions(self, tmp_path):
        """The file is opened in append mode, so two runs may share it;
        a seq restarting at 1 is a new session, not a gap."""
        path = tmp_path / "events.jsonl"
        self.write_some(path)
        second = EventLog(path=str(path))
        second.emit("lifecycle", stage="share")
        second.close()
        summary = replay(str(path))
        assert summary["events"] == 5
        assert summary["lifecycle"] == {"anonymize": 1, "share": 1}


class TestInstrumentedEmitters:
    def test_chase_emits_derive_and_invent_null_events(self):
        telemetry.enable(events=True)
        Program.parse(TRANSITIVE).run()
        log = telemetry.events()
        derives = [e for e in log.tail("decision")
                   if e["payload"]["kind"] == "derive"]
        assert derives, "chase produced no derive events"
        sample = derives[0]["payload"]
        assert {"rule", "stratum", "round", "facts"} <= set(sample)
        assert {d["payload"]["rule"] for d in derives} >= {"base", "step"}
        mints = [e for e in log.tail("decision")
                 if e["payload"]["kind"] == "invent_null"]
        assert mints and mints[0]["payload"]["rule"] == "mint"
        assert mints[0]["payload"]["nulls"] >= 1

    def test_cycle_emits_suppress_decisions(self):
        telemetry.enable(events=True)
        db = generate_dataset("R6A4U", seed=20210323, scale=25)
        vada = VadaSA()
        vada.register(db)
        vada.anonymize(db.name, measure="k-anonymity", k=2)
        log = telemetry.events()
        suppressions = [e for e in log.tail("decision")
                        if e["payload"]["kind"] == "suppress"]
        assert suppressions, "anonymization produced no suppress events"
        payload = suppressions[0]["payload"]
        assert payload["db"] == db.name
        assert isinstance(payload["row"], int)
        assert payload["attribute"] in db.schema.attributes
        assert payload["method"] and payload["measure"]
        assert "reason" in payload
        stages = log.summary()["lifecycle"]
        assert stages.get("anonymize") == 1

    def test_full_exchange_replays_identically(self, tmp_path):
        """Acceptance criterion: the event JSONL of a full VadaSA
        exchange replays into a summary identical to the live one."""
        path = tmp_path / "events.jsonl"
        telemetry.enable(events_path=str(path))
        log = telemetry.events()
        db = generate_dataset("R6A4U", seed=20210323, scale=25)
        vada = VadaSA()
        vada.register(db)
        vada.assess(db.name, measure="k-anonymity", k=2)
        vada.share(db.name, measure="k-anonymity", k=2)
        telemetry.disable()  # appends the final metrics snapshot
        live = log.summary()
        assert replay(str(path)) == live
        assert live["lifecycle"] == {"assess": 1, "anonymize": 1,
                                     "share": 1}
        assert live["decisions"]["by_kind"].get("suppress", 0) > 0
        assert live["counters"].get("cycle.runs", 0) > 0
        assert live["spans"]["total"] > 0

    def test_disable_detaches_event_log(self):
        telemetry.enable(events=True)
        log = telemetry.events()
        assert log is not None
        telemetry.disable()
        assert telemetry.events() is None
        # The tracer no longer carries the sink for the closed log.
        sinks = [s for s in telemetry.tracer().sinks
                 if isinstance(s, EventSpanSink)]
        assert not sinks

    def test_disabled_run_emits_nothing(self):
        log = EventLog()
        telemetry.state.events = log  # dormant: enabled stays False
        try:
            Program.parse(TRANSITIVE).run()
        finally:
            telemetry.state.events = None
        assert len(log) == 0


class TestCliExportFlags:
    def generate(self, tmp_path):
        out = tmp_path / "data.csv"
        cli_main(["generate", "R6A4U", "-o", str(out), "--scale", "20",
                  "--seed", "20210323"])
        return out

    def test_events_prom_and_rule_profile_flags(self, tmp_path, capsys):
        out = self.generate(tmp_path)
        events_path = tmp_path / "events.jsonl"
        prom_path = tmp_path / "metrics.prom"
        exit_code = cli_main([
            "--events-out", str(events_path),
            "--prom-out", str(prom_path),
            "--rule-profile",
            "anonymize", str(out), "--measure", "k-anonymity",
            "--k", "2", "-o", str(tmp_path / "anon.csv"),
        ])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "rule cost profile" in captured.err
        assert f"events written to {events_path}" in captured.err
        assert f"metrics written to {prom_path}" in captured.err
        summary = replay(str(events_path))
        assert summary["decisions"]["total"] > 0
        text = prom_path.read_text()
        assert telemetry.validate_prometheus_text(text) > 0

    def test_events_out_unwritable_path_is_reported(self, tmp_path,
                                                    capsys):
        out = self.generate(tmp_path)
        exit_code = cli_main([
            "--events-out", str(tmp_path / "nope" / "events.jsonl"),
            "assess", str(out), "--measure", "k-anonymity", "--k", "2",
        ])
        assert exit_code == 2
        assert "cannot open telemetry output" in capsys.readouterr().err
