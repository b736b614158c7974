"""Benchmark-regression gate tests (``benchmarks/regress.py``) run
against a stubbed perfbench runner and a temp history file — including
the acceptance self-test: an injected 2x slowdown must trip the gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: One clean perfbench run's end-to-end metrics.
BASE = {"setup_s": 0.1, "wall_s": 1.0, "cpu_s": 1.0,
        "rows_per_s": 1000.0, "peak_rss_mb": 100.0}


@pytest.fixture(scope="module")
def regress():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import regress

        yield regress
    finally:
        sys.path.remove(str(BENCHMARKS))


class Perfbench:
    """Stands in for ``regress.run_perfbench``: every workload prints
    ``BASE`` scaled by ``scale`` unless a test sets otherwise."""

    def __init__(self):
        self.calls = []
        self.scale = {}
        self.outcome = {"correct": True, "attempted": 12, "failed": 0}
        self.exit = 0

    def __call__(self, workload):
        self.calls.append(workload)
        metrics = {
            name: {"value": value * self.scale.get(name, 1.0), "unit": ""}
            for name, value in BASE.items()
        }
        stdout = (f"{workload} seed=1 trace=0\n"
                  + json.dumps({**self.outcome, "metrics": metrics}) + "\n")
        return subprocess.CompletedProcess([], self.exit, stdout=stdout)


@pytest.fixture
def perfbench(regress, monkeypatch):
    stub = Perfbench()
    monkeypatch.setattr(regress, "run_perfbench", stub)
    return stub


def seed(regress, path, tag="kanon_wide", runs=3, **metrics):
    """Append ``runs`` history entries of ``BASE`` (overridden by
    ``metrics``) under ``tag``."""
    run = {"correct": True, "attempted": 12, "failed": 0,
           "metrics": {**BASE, **metrics}}
    for _ in range(runs):
        regress.record_history_entry(tag, run, path)
    return path


def check(regress, path, *extra, workloads=("kanon_wide",)):
    return regress.main(["check", "--history", str(path),
                         "--workloads", *workloads, *extra])


class TestHistory:
    def test_record_appends_entries(self, regress, perfbench, tmp_path,
                                    capsys):
        history_path = tmp_path / "history.json"
        assert regress.main(["record", "--history",
                             str(history_path)]) == 0
        history = regress.load_history(history_path)
        names = [w["name"] for w in regress.BENCHMARK["workloads"]]
        assert perfbench.calls == names
        assert [e["tag"] for e in history] == names
        for entry in history:
            assert entry["source"] == "perfbench"
            assert entry["metrics"] == BASE
            assert (entry["correct"], entry["attempted"],
                    entry["failed"]) == (True, 12, 0)
            assert "recorded_at" in entry and "scale" not in entry
            assert isinstance(entry.get("commit", ""), str)
        assert "recorded kanon_wide" in capsys.readouterr().out

    def test_load_history_missing_file(self, regress, tmp_path):
        assert regress.load_history(tmp_path / "nope.json") == []

    def test_load_history_coerces_single_entry(self, regress,
                                               tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"tag": "x", "metrics": {}}))
        assert regress.load_history(path) == [
            {"tag": "x", "metrics": {}}
        ]

    @pytest.mark.parametrize("broken", ["incorrect", "failed", "exit"])
    def test_record_refuses_a_run_that_is_not_clean(
        self, regress, perfbench, tmp_path, broken
    ):
        if broken == "incorrect":
            perfbench.outcome["correct"] = False
        elif broken == "failed":
            perfbench.outcome["failed"] = 1
        else:
            perfbench.exit = 2
        path = tmp_path / "history.json"
        assert regress.main(["record", "--history", str(path),
                             "--workloads", "kanon_wide"]) == 1
        assert regress.load_history(path) == []


class TestBaselineFor:
    def test_window_keeps_newest(self, regress, tmp_path):
        path = tmp_path / "history.json"
        seed(regress, path, wall_s=100.0)
        seed(regress, path, wall_s=1.0)
        history = regress.load_history(path)
        # All six entries: median 50.5; the newest five: 1.0.
        assert regress.baseline_for(history, "kanon_wide",
                                    "wall_s") == 1.0

    def test_no_matching_entries(self, regress, tmp_path):
        path = seed(regress, tmp_path / "history.json", runs=1)
        history = regress.load_history(path)
        assert regress.baseline_for(history, "suda_wide",
                                    "wall_s") is None
        assert regress.baseline_for(history, "kanon_wide",
                                    "rows") is None

    def test_old_tag_entries_are_ignored(self, regress, perfbench,
                                         tmp_path, capsys):
        # Entries of the retired lanes stay in the file as history.
        path = tmp_path / "history.json"
        path.write_text(json.dumps([
            {"tag": "engine_fig7e", "scale": 25,
             "metrics": {"columnar_seconds": 0.3}},
            {"tag": "figure7e", "scale": 25,
             "metrics": {"seconds": 9.0, "max_rss_bytes": 1e8}},
        ]))
        seed(regress, path)
        assert check(regress, path) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == len(BASE)
        assert "figure7e" not in out and "engine_fig7e" not in out


class TestCheck:
    def test_clean_check_passes(self, regress, perfbench, tmp_path,
                                capsys):
        path = seed(regress, tmp_path / "history.json")
        assert check(regress, path) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == len(BASE)

    def test_injected_slowdown_trips_the_gate(self, regress, perfbench,
                                              tmp_path, capsys):
        """Acceptance criterion: a 2x slowdown vs the seeded baseline
        exits non-zero, on lower- and higher-is-better metrics."""
        path = seed(regress, tmp_path / "history.json")
        code = check(regress, path, "--inject-slowdown", "2.0")
        assert code == 1
        captured = capsys.readouterr()
        assert "kanon_wide/wall_s: 2 vs baseline 1 " in captured.out
        assert "kanon_wide/rows_per_s: 500 vs baseline 1000 " in (
            captured.out)
        assert captured.out.count("[REGRESSION]") == len(BASE)
        assert "regression(s) detected" in captured.err

    def test_warn_only_reports_but_passes(self, regress, perfbench,
                                          tmp_path, capsys):
        path = seed(regress, tmp_path / "history.json")
        code = check(regress, path, "--inject-slowdown", "2.0",
                     "--warn-only")
        assert code == 0
        assert "[REGRESSION]" in capsys.readouterr().out

    @pytest.mark.parametrize("broken", ["incorrect", "failed", "exit"])
    def test_run_that_is_not_clean_fails_even_warn_only(
        self, regress, perfbench, tmp_path, capsys, broken
    ):
        if broken == "incorrect":
            perfbench.outcome["correct"] = False
        elif broken == "failed":
            perfbench.outcome["failed"] = 1
        else:
            perfbench.exit = 1
        path = seed(regress, tmp_path / "history.json")
        before = regress.load_history(path)
        assert check(regress, path, "--warn-only", "--update") == 1
        assert "[FAILED]" in capsys.readouterr().out
        assert regress.load_history(path) == before

    def test_unparsable_output_fails(self, regress, perfbench, tmp_path,
                                     monkeypatch, capsys):
        monkeypatch.setattr(
            regress, "run_perfbench",
            lambda workload: subprocess.CompletedProcess(
                [], 2, stdout="error: no repro package\n"),
        )
        path = seed(regress, tmp_path / "history.json")
        assert check(regress, path, "--warn-only") == 1
        out = capsys.readouterr().out
        assert "exit code 2" in out and "correct: false" in out

    def test_no_baseline_passes_with_note(self, regress, perfbench,
                                          tmp_path, capsys):
        code = check(regress, tmp_path / "empty.json")
        assert code == 0
        captured = capsys.readouterr()
        assert "no baseline" in captured.out
        assert "seed them" in captured.err

    def test_update_appends_measurements(self, regress, perfbench,
                                         tmp_path):
        path = seed(regress, tmp_path / "history.json")
        before = len(regress.load_history(path))
        check(regress, path, "--update")
        history = regress.load_history(path)
        assert len(history) == before + 1
        assert history[-1]["source"] == "perfbench"
        assert history[-1]["metrics"] == BASE

    def test_report_file(self, regress, perfbench, tmp_path):
        path = seed(regress, tmp_path / "history.json")
        report = tmp_path / "report.json"
        check(regress, path, "--inject-slowdown", "2.0", "--warn-only",
              "--report", str(report))
        entries = {e["metric"]: e for e in json.loads(report.read_text())}
        assert set(entries) == set(BASE)
        assert entries["wall_s"]["tag"] == "kanon_wide"
        assert entries["wall_s"]["ratio"] == pytest.approx(2.0)
        assert entries["rows_per_s"]["ratio"] == pytest.approx(0.5)
        assert all(e["regressed"] for e in entries.values())

    def test_unknown_workload_fails_loudly(self, regress, perfbench,
                                           tmp_path):
        with pytest.raises(SystemExit, match="unknown workload"):
            check(regress, tmp_path / "h.json", workloads=("nope",))
        assert perfbench.calls == []


class TestMemoryGate:
    """``peak_rss_mb`` is gated at its own bound (0.1), tighter than
    the times' (0.25)."""

    def test_rss_within_threshold_passes(self, regress, perfbench,
                                         tmp_path, capsys):
        path = seed(regress, tmp_path / "history.json")
        perfbench.scale = {"peak_rss_mb": 1.05, "wall_s": 1.2}
        assert check(regress, path) == 0
        out = capsys.readouterr().out
        assert "kanon_wide/peak_rss_mb" in out
        assert "[REGRESSION]" not in out

    def test_rss_blowup_trips_the_gate(self, regress, perfbench,
                                       tmp_path, capsys):
        path = seed(regress, tmp_path / "history.json")
        perfbench.scale = {"peak_rss_mb": 1.15, "wall_s": 1.2}
        assert check(regress, path) == 1
        [regression] = [line for line in
                        capsys.readouterr().out.splitlines()
                        if "[REGRESSION]" in line]
        assert "kanon_wide/peak_rss_mb" in regression
        assert "limit x1.1," in regression

    def test_baseline_for_ignores_entries_without_rss(self, regress,
                                                      tmp_path):
        # Entries that lack a metric must not poison its baseline.
        path = tmp_path / "history.json"
        regress.record_history_entry(
            "kanon_wide", {"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {"wall_s": 1.0}}, path)
        seed(regress, path, runs=1, peak_rss_mb=5.0)
        history = regress.load_history(path)
        assert regress.baseline_for(history, "kanon_wide",
                                    "peak_rss_mb") == 5.0


class TestComparison:
    def test_ratio_none_without_baseline(self, regress):
        comparison = regress.Comparison("t", "wall_s", 1.0, None)
        assert comparison.ratio is None
        assert comparison.regressed is False
        assert "no baseline" in comparison.render()

    def test_regressed_only_past_threshold(self, regress):
        # wall_s: lower is better, bound 0.25.
        assert not regress.Comparison("t", "wall_s", 1.25, 1.0).regressed
        assert regress.Comparison("t", "wall_s", 1.26, 1.0).regressed
        # rows_per_s: higher is better, bound 0.25.
        assert not regress.Comparison("t", "rows_per_s", 75.0,
                                      100.0).regressed
        assert regress.Comparison("t", "rows_per_s", 74.0,
                                  100.0).regressed
        assert not regress.Comparison("t", "rows_per_s", 1e6,
                                      100.0).regressed

    def test_real_workload_registry_shape(self, regress, monkeypatch):
        """The workloads, bounds and command are BENCHMARK.json's, and
        every run takes its declared run length."""
        declared = json.loads(
            (BENCHMARKS.parent / "BENCHMARK.json").read_text())
        assert regress.WORKLOADS == [
            w["name"] for w in declared["workloads"]]
        assert regress.END_TO_END == {
            m["name"]: m for m in declared["end_to_end"]}
        spawned = []
        monkeypatch.setattr(
            regress.subprocess, "run",
            lambda command, **kwargs: spawned.append(command),
        )
        regress.run_perfbench("kanon_wide")
        assert spawned == [[*declared["command"], "--workload",
                            "kanon_wide", "--seconds",
                            str(declared["run_seconds"])]]
