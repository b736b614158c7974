"""Confidentiality audit ledger tests: RiskVerdict, CellKey parsing,
event folding, live-fold == file-replay identity, multi-iteration
last-action-wins semantics, why/why_not explanations, the provenance
join with the declarative risk programs, the console renderers, the
``repro audit`` / ``repro events`` CLIs, the sdc.* metric family and
the /audit HTTP endpoint."""

import json
import urllib.request

import pytest

from repro import telemetry
from repro.audit import (
    ACTIONS,
    AuditLedger,
    CellKey,
    DecisionRecord,
    render_summary,
    render_timeline,
    render_why,
)
from repro.cli import main as cli_main
from repro.data import generate_dataset
from repro.framework import VadaSA
from repro.risk.base import RiskReport, RiskVerdict
from repro.telemetry import EventLog, MetricsHTTPServer
from repro.vadalog import Program
from repro.vadalog.atoms import Atom
from repro.vadalog_programs import K_ANONYMITY, TUPLE_BUILD


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def run_cycle(tmp_path, scale=25, k=3, **kwargs):
    """A full anonymization cycle with events + a live ledger."""
    events_path = tmp_path / "events.jsonl"
    telemetry.enable(events_path=str(events_path))
    live = AuditLedger().attach(telemetry.state.events)
    db = generate_dataset("R25A4W", seed=20210323, scale=scale)
    vada = VadaSA()
    vada.register(db)
    result = vada.anonymize(db.name, measure="k-anonymity", k=k, **kwargs)
    telemetry.disable()
    return events_path, live, result, vada, db


class TestRiskVerdict:
    def test_risky_comparison(self):
        verdict = RiskVerdict("k-anonymity", 3, 1.0, 0.5,
                              detail="group of 1 < k=3")
        assert verdict.risky
        assert verdict.comparison() == "1 > T=0.5"
        assert "row 3" in verdict.explain()
        assert "group of 1 < k=3" in verdict.explain()

    def test_safe_comparison_uses_lte(self):
        verdict = RiskVerdict("k-anonymity", 0, 0.0, 0.5)
        assert not verdict.risky
        assert verdict.comparison() == "0 <= T=0.5"

    def test_to_dict_is_json_safe(self):
        verdict = RiskVerdict("suda", 1, 0.31, 0.2,
                              parameters={"max_order": 3})
        doc = json.loads(json.dumps(verdict.to_dict()))
        assert doc["risky"] is True
        assert doc["parameters"] == {"max_order": 3}

    def test_report_verdicts(self):
        report = RiskReport("k-anonymity", [0.0, 1.0], ["Age"],
                            detail=["safe", "unique"].__getitem__)
        verdicts = report.verdicts(0.5)
        assert [v.risky for v in verdicts] == [False, True]
        assert verdicts[1].detail == "unique"
        assert report.mean_score() == 0.5
        assert report.verdict(1, 0.5).row == 1


class TestCellKey:
    def test_parse_row_only(self):
        key = CellKey.parse("17")
        assert (key.db, key.row, key.attribute) == (None, 17, None)

    def test_parse_row_attribute(self):
        key = CellKey.parse("17:Age")
        assert (key.db, key.row, key.attribute) == (None, 17, "Age")

    def test_parse_full(self):
        key = CellKey.parse("R25A4W:17:Residential Rev.")
        assert key.db == "R25A4W"
        assert key.row == 17
        assert key.attribute == "Residential Rev."

    def test_str_round_trips(self):
        text = "R25A4W:17:Age"
        assert str(CellKey.parse(text)) == text

    def test_parse_without_row_raises(self):
        with pytest.raises(ValueError):
            CellKey.parse("no-row-here")

    def test_partial_matching(self):
        key = CellKey.parse("17")
        assert key.matches("AnyDB", 17, "Age")
        assert key.matches("AnyDB", 17, None)
        assert not key.matches("AnyDB", 18, "Age")
        full = CellKey.parse("DB:17:Age")
        assert not full.matches("Other", 17, "Age")
        assert not full.matches("DB", 17, "Sex")


def decision(log, **payload):
    log.emit("decision", **payload)


class TestLedgerFold:
    def synthetic_log(self):
        """A hand-built stream: suppress, keep, recode over two rows."""
        log = EventLog(clock=lambda: 1.0)
        ledger = AuditLedger().attach(log)
        decision(log, kind="suppress", db="D", row=1, attribute="Age",
                 iteration=1, measure="k-anonymity", score=1.0,
                 threshold=0.5, old="30-60", new=None,
                 method="local-suppression", qis=["Age", "Sex"],
                 qi_values=["30-60", "F"])
        decision(log, kind="keep", db="D", row=2, iteration=1,
                 measure="k-anonymity", score=1.0, threshold=0.5,
                 evidence="group regrew to 3 member(s)")
        decision(log, kind="recode", db="D", row=1, attribute="Age",
                 iteration=2, measure="k-anonymity", score=1.0,
                 threshold=0.5, old=None, new="*",
                 method="global-recoding", qis=["Age", "Sex"])
        log.emit("cycle_iteration", db="D", measure="k-anonymity",
                 iteration=2, risky=1, max_score=1.0, mean_score=0.2,
                 threshold=0.5, acted=1, suppressed=0, recoded=1,
                 kept=0)
        log.emit("cycle_summary", db="D", measure="k-anonymity",
                 iterations=2, converged=True, final_risky=0,
                 final_max_score=0.4, threshold=0.5)
        return log, ledger

    def test_actions_and_cells(self):
        _, ledger = self.synthetic_log()
        summary = ledger.summary()
        assert summary["by_action"] == {
            "suppress": 1, "recode": 1, "keep": 1,
        }
        assert summary["cells"] == 2
        assert summary["iterations"] == 2
        assert summary["by_measure"] == {"k-anonymity": 3}
        assert summary["outcome"]["converged"] is True

    def test_non_audit_events_ignored_but_counted(self):
        log, ledger = self.synthetic_log()
        before = len(ledger.records)
        log.emit("metrics", snapshot={})
        decision(log, kind="derive", rule="r", derived=["p(1)"])
        assert len(ledger.records) == before
        assert ledger.events_seen == 7

    def test_last_action_wins(self):
        _, ledger = self.synthetic_log()
        current = ledger.current(CellKey.parse("D:1:Age"))
        assert current.action == "recode"
        assert current.iteration == 2

    def test_records_for_partial_key(self):
        _, ledger = self.synthetic_log()
        assert len(ledger.records_for(CellKey.parse("1"))) == 2
        assert len(ledger.records_for(CellKey.parse("D:1:Age"))) == 2
        assert len(ledger.records_for(CellKey.parse("2"))) == 1
        assert ledger.records_for(CellKey.parse("99")) == []

    def test_cells_sorted_with_governing_record(self):
        _, ledger = self.synthetic_log()
        cells = ledger.cells()
        assert [cell for cell, _ in cells] == ["D:1:Age", "D:2"]
        assert cells[0][1].action == "recode"

    def test_actions_constant_matches_events(self):
        from repro.telemetry.events import AUDIT_ACTIONS

        assert ACTIONS == AUDIT_ACTIONS

    def test_decision_record_roundtrip(self):
        _, ledger = self.synthetic_log()
        doc = ledger.records[0].to_dict()
        assert doc["action"] == "suppress"
        assert doc["qi_values"] == ["30-60", "F"]
        json.dumps(doc)  # JSON-safe


class TestMultiIterationSameCell:
    """Satellite: suppress-then-recode on the same cell across
    iterations must stay gap-free, replay-stable and resolve by
    last-action-wins."""

    def write_stream(self, tmp_path):
        path = tmp_path / "two_pass.jsonl"
        telemetry.enable(events_path=str(path))
        log = telemetry.state.events
        live = AuditLedger().attach(log)
        decision(log, kind="suppress", db="D", row=7, attribute="Age",
                 iteration=1, measure="k-anonymity", score=1.0,
                 threshold=0.5, old="30-60", new=None)
        decision(log, kind="recode", db="D", row=7, attribute="Age",
                 iteration=2, measure="k-anonymity", score=1.0,
                 threshold=0.5, old=None, new="*")
        telemetry.disable()
        return path, live

    def test_sequence_gap_free_and_replay_stable(self, tmp_path):
        path, live = self.write_stream(tmp_path)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [line["seq"] for line in lines] == \
            list(range(1, len(lines) + 1))
        replayed = AuditLedger.replay(str(path))
        assert replayed.summary() == live.summary()

    def test_last_action_wins_after_replay(self, tmp_path):
        path, _ = self.write_stream(tmp_path)
        ledger = AuditLedger.replay(str(path))
        assert ledger.current(CellKey.parse("D:7:Age")).action == "recode"

    def test_why_shows_history(self, tmp_path):
        path, _ = self.write_stream(tmp_path)
        why = AuditLedger.replay(str(path)).why("D:7:Age")
        assert "recoded at iteration 2" in why
        assert "history (last action wins)" in why
        assert "iteration 1: suppress" in why

    def test_corrupted_stream_refused(self, tmp_path):
        path, _ = self.write_stream(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0]] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="sequence gap"):
            AuditLedger.replay(str(path))
        # Opt-out still folds what is there.
        ledger = AuditLedger.replay(str(path), strict_sequence=False)
        assert len(ledger.records) >= 1


class TestLiveReplayIdentity:
    def test_full_cycle_replay_equals_live(self, tmp_path):
        events_path, live, result, _, _ = run_cycle(tmp_path)
        assert result.converged
        replayed = AuditLedger.replay(str(events_path))
        assert replayed.summary() == live.summary()
        summary = replayed.summary()
        assert summary["by_action"]["suppress"] > 0
        assert summary["iteration_points"] >= summary["iterations"] > 0
        assert summary["cycles"] == 1
        outcome = summary["outcome"]
        assert outcome["converged"] is True
        assert outcome["final_risky"] == 0
        assert outcome["measure"] == "k-anonymity"
        assert outcome["nulls_injected"] > 0

    def test_timeline_matches_iterations(self, tmp_path):
        events_path, live, _, _, _ = run_cycle(tmp_path)
        timeline = AuditLedger.replay(str(events_path)).timeline()
        assert timeline == live.timeline()
        assert [p["iteration"] for p in timeline] == \
            list(range(1, len(timeline) + 1))
        for point in timeline:
            assert point["suppressed"] + point["recoded"] + \
                point["kept"] >= 0
            assert point["max_score"] >= point["mean_score"] >= 0.0

    def test_disabled_telemetry_records_nothing(self):
        db = generate_dataset("R25A4W", seed=20210323, scale=10)
        vada = VadaSA()
        vada.register(db)
        vada.anonymize(db.name, measure="k-anonymity", k=2)
        assert telemetry.state.events is None


class TestWhy:
    def test_why_suppressed_cell(self, tmp_path):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        ledger = AuditLedger.replay(str(events_path))
        record = next(r for r in ledger.records
                      if r.action == "suppress")
        why = ledger.why(record.cell)
        assert f"cell {record.cell}" in why
        assert "suppressed at iteration" in why
        assert "k-anonymity" in why
        assert "T=0.5" in why
        assert "quasi-identifiers:" in why
        assert "derivation:" in why
        assert f"risky(row {record.row})" in why
        # QI evidence was captured BEFORE the mutation.
        assert "'⊥" not in why.split("group(")[-1].split(")")[0]

    def test_why_not_published_cell(self, tmp_path):
        events_path, _, _, _, db = run_cycle(tmp_path)
        ledger = AuditLedger.replay(str(events_path))
        touched = {record.row for record in ledger.records}
        row = next(i for i in range(len(db)) if i not in touched)
        text = ledger.why_not(f"{db.name}:{row}")
        assert "published (no decision recorded)" in text
        assert "never exceeded the k-anonymity threshold" in text
        assert "T=0.5" in text

    def test_why_falls_through_to_why_not(self, tmp_path):
        events_path, _, _, _, db = run_cycle(tmp_path)
        ledger = AuditLedger.replay(str(events_path))
        touched = {record.row for record in ledger.records}
        row = next(i for i in range(len(db)) if i not in touched)
        assert ledger.why(f"{db.name}:{row}") == \
            ledger.why_not(f"{db.name}:{row}")

    def test_why_not_kept_cell(self):
        log = EventLog()
        ledger = AuditLedger().attach(log)
        decision(log, kind="keep", db="D", row=4, iteration=1,
                 measure="k-anonymity", score=1.0, threshold=0.5,
                 evidence="group regrew to 3 member(s)",
                 qis=["Age"])
        text = ledger.why_not("D:4")
        assert "published (kept at iteration 1)" in text
        assert "was risky when iteration 1 started" in text
        assert "but group regrew to 3 member(s)" in text

    def test_why_not_without_outcome(self):
        ledger = AuditLedger()
        text = ledger.why_not("D:0")
        assert "no cycle outcome in this ledger" in text


class TestProvenanceJoin:
    def risk_run(self, cities_db):
        facts = cities_db.to_facts() + [
            Atom.of("anonSet", cities_db.name,
                    frozenset(cities_db.quasi_identifiers)),
            Atom.of("param", "k", 2),
        ]
        return Program.parse(TUPLE_BUILD + K_ANONYMITY).run(facts)

    def test_why_names_declarative_rule_chain(self, cities_db):
        result = self.risk_run(cities_db)
        risky_rows = [int(i) for i, r in result.tuples("riskOutput")
                      if r == 1]
        assert risky_rows, "Figure 5a has unique tuples under k=2"
        row = risky_rows[0]
        log = EventLog()
        ledger = AuditLedger().attach(log)
        decision(log, kind="suppress", db=cities_db.name, row=row,
                 attribute="City", iteration=1, measure="k-anonymity",
                 score=1.0, threshold=0.5, old="Rome", new=None)
        why = ledger.why(f"{cities_db.name}:{row}:City",
                         provenance=result.provenance)
        assert "risky via rules" in why
        assert "kanon-2" in why
        assert "riskOutput(" in why  # the bounded explain tree

    def test_rule_chain_bounded(self, cities_db):
        result = self.risk_run(cities_db)
        facts = result.provenance.find("riskOutput")
        assert facts
        for fact in facts:
            chain = result.provenance.rule_chain(fact, max_depth=2)
            assert len(chain) <= 2

    def test_live_derive_events_ground_every_risk_row(
        self, cities_db, tmp_path
    ):
        path = tmp_path / "risk.jsonl"
        telemetry.enable(events_path=str(path))
        result = self.risk_run(cities_db)
        telemetry.disable()
        ledger = AuditLedger.replay(str(path))
        rows = [int(i) for i, _ in result.tuples("riskOutput")]
        assert rows
        for row in rows:
            assert ledger.risk_rule_chain(row), f"row {row} ungrounded"

    def test_derive_events_ground_rows_through_replay(self, tmp_path):
        path = tmp_path / "derive.jsonl"
        telemetry.enable(events_path=str(path))
        log = telemetry.state.events
        decision(log, kind="derive", rule="kanon-2",
                 derived=["riskOutput(3, 1)", "other(1)"])
        decision(log, kind="suppress", db="D", row=3, attribute="Age",
                 iteration=1, measure="k-anonymity", score=1.0,
                 threshold=0.5, old="x", new=None)
        telemetry.disable()
        ledger = AuditLedger.replay(str(path))
        assert ledger.risk_rule_chain(3) == ["kanon-2"]
        assert "risky via rules kanon-2" in ledger.why("D:3:Age")
        assert ledger.summary()["risk_grounded_rows"] == 1


class TestConsoleRenderers:
    def test_summary_text_and_json(self, tmp_path):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        ledger = AuditLedger.replay(str(events_path))
        text = render_summary(ledger)
        assert "Confidentiality audit summary" in text
        assert "converged: True" in text
        assert "information loss:" in text
        doc = json.loads(render_summary(ledger, fmt="json"))
        assert doc == ledger.summary()

    def test_timeline_table(self, tmp_path):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        ledger = AuditLedger.replay(str(events_path))
        table = render_timeline(ledger)
        assert "iter" in table and "suppress" in table
        assert len(table.splitlines()) == 2 + len(ledger.timeline())
        doc = json.loads(render_timeline(ledger, fmt="json"))
        assert doc == ledger.timeline()

    def test_timeline_empty(self):
        assert "no cycle_iteration" in render_timeline(AuditLedger())

    def test_why_json_includes_records(self, tmp_path):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        ledger = AuditLedger.replay(str(events_path))
        record = next(r for r in ledger.records
                      if r.action == "suppress")
        doc = json.loads(render_why(ledger, record.cell, fmt="json"))
        assert doc["cell"] == record.cell
        assert "suppressed" in doc["explanation"]
        assert doc["records"][0]["action"] == "suppress"


class TestAuditCLI:
    def test_summary(self, tmp_path, capsys):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        assert cli_main(["audit", "summary",
                         "--ledger", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "Confidentiality audit summary" in out

    def test_summary_json(self, tmp_path, capsys):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        assert cli_main(["audit", "summary", "--ledger",
                         str(events_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["by_action"]["suppress"] > 0

    def test_why(self, tmp_path, capsys):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        ledger = AuditLedger.replay(str(events_path))
        cell = next(r.cell for r in ledger.records
                    if r.action == "suppress")
        assert cli_main(["audit", "why", cell,
                         "--ledger", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "suppressed at iteration" in out
        assert "T=" in out

    def test_why_published(self, tmp_path, capsys):
        events_path, _, _, _, db = run_cycle(tmp_path)
        ledger = AuditLedger.replay(str(events_path))
        touched = {record.row for record in ledger.records}
        row = next(i for i in range(len(db)) if i not in touched)
        assert cli_main(["audit", "why", f"{db.name}:{row}",
                         "--published",
                         "--ledger", str(events_path)]) == 0
        assert "published" in capsys.readouterr().out

    def test_timeline(self, tmp_path, capsys):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        assert cli_main(["audit", "timeline",
                         "--ledger", str(events_path)]) == 0
        assert "iter" in capsys.readouterr().out

    def test_why_without_cell_errors(self, tmp_path, capsys):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        assert cli_main(["audit", "why",
                         "--ledger", str(events_path)]) == 2
        assert "needs a cell" in capsys.readouterr().err

    def test_bad_cell_errors(self, tmp_path, capsys):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        assert cli_main(["audit", "why", "not-a-cell",
                         "--ledger", str(events_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_ledger_errors(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert cli_main(["audit", "summary",
                         "--ledger", str(missing)]) == 2
        assert "cannot fold ledger" in capsys.readouterr().err


class TestEventsCLI:
    def test_replay_text(self, tmp_path, capsys):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        assert cli_main(["events", "replay", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "audit:" in out

    def test_replay_json_matches_fold(self, tmp_path, capsys):
        events_path, _, _, _, _ = run_cycle(tmp_path)
        assert cli_main(["events", "replay", str(events_path),
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == telemetry.replay(str(events_path))
        assert doc["audit"]["cells"]["suppress"] > 0

    def test_replay_missing_file_errors(self, tmp_path, capsys):
        assert cli_main(["events", "replay",
                         str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot replay" in capsys.readouterr().err


class TestSdcMetrics:
    def test_gauges_counters_histograms(self, tmp_path):
        run_cycle(tmp_path)
        snapshot = telemetry.state.registry.snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        histograms = snapshot["histograms"]
        assert counters.get("sdc.cells_suppressed", 0) > 0
        assert any(key.startswith("sdc.risk.max") for key in gauges)
        assert any(key.startswith("sdc.risk.score") for key in histograms)
        assert gauges.get("sdc.cells_published", -1) >= 0
        assert 0.0 <= gauges.get("sdc.utility.information_loss", -1) <= 1.0
        assert gauges.get("sdc.iteration", 0) >= 1

    def test_prometheus_exposition_carries_sdc(self, tmp_path):
        run_cycle(tmp_path)
        text = telemetry.to_prometheus_text(
            telemetry.state.registry.snapshot()
        )
        assert "repro_sdc_cells_suppressed_total" in text
        assert 'measure="k-anonymity"' in text
        telemetry.validate_prometheus_text(text)


class TestAuditHTTPEndpoint:
    def test_audit_and_timeline_served(self, tmp_path):
        events_path, live, _, _, _ = run_cycle(tmp_path)
        with MetricsHTTPServer(port=0, audit=live) as server:
            url = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{url}/audit",
                                        timeout=5) as response:
                assert response.status == 200
                doc = json.loads(response.read().decode("utf-8"))
            with urllib.request.urlopen(f"{url}/audit/timeline",
                                        timeout=5) as response:
                timeline = json.loads(response.read().decode("utf-8"))
        assert doc == live.summary()
        assert timeline == live.timeline()

    def test_audit_404_without_ledger(self):
        with MetricsHTTPServer(port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/audit", timeout=5
                )
            assert excinfo.value.code == 404


class TestExchangeReportOutcome:
    def test_outcome_section(self, tmp_path):
        _, _, _, vada, db = run_cycle(tmp_path)
        report = vada.exchange_report(db.name)
        assert "SDC outcome (last anonymization cycle)" in report
        assert "information loss" in report
        assert "mean " in report  # per-measure mean risk line

    def test_last_result_accessor(self, tmp_path):
        _, _, result, vada, db = run_cycle(tmp_path)
        assert vada.last_result(db.name) is result
        assert vada.last_result("unknown") is None
