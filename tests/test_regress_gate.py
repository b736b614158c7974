"""Benchmark-regression gate tests (``benchmarks/regress.py``) run
against stub workloads and a temp history file — including the
acceptance self-test: an injected 2x slowdown must trip the gate."""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def regress():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import regress

        yield regress
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.fixture
def stub_workloads(regress, monkeypatch):
    """Replace the real (seconds-long) workloads with deterministic
    stubs measuring exactly 1.0s / 2 metrics."""
    monkeypatch.setattr(regress, "WORKLOADS", {
        "stub": lambda: {"seconds": 1.0},
        "twin": lambda: {"seconds": 0.5, "rows": 100.0},
    })


def seed(regress, path, tag="stub", values=(1.0,), metric="seconds",
         scale=None):
    from bench_tracker import record_history_entry
    from paperfig import SCALE

    for value in values:
        entry_path = record_history_entry(
            tag, {metric: value}, path=path
        )
        if scale is not None:
            history = json.loads(Path(entry_path).read_text())
            history[-1]["scale"] = scale
            Path(entry_path).write_text(json.dumps(history))
    return SCALE


class TestHistory:
    def test_record_appends_entries(self, regress, stub_workloads,
                                    tmp_path, capsys):
        history_path = tmp_path / "history.json"
        code = regress.main(["record", "--history", str(history_path),
                             "--workloads", "stub", "twin"])
        assert code == 0
        history = regress.load_history(history_path)
        assert [e["tag"] for e in history] == ["stub", "twin"]
        entry = history[0]
        assert entry["metrics"] == {"seconds": 1.0}
        assert entry["source"] == "regress-record"
        assert "recorded_at" in entry and "scale" in entry
        assert "recorded stub" in capsys.readouterr().out

    def test_load_history_missing_file(self, regress, tmp_path):
        assert regress.load_history(tmp_path / "nope.json") == []

    def test_load_history_coerces_single_entry(self, regress,
                                               tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"tag": "x", "metrics": {}}))
        assert regress.load_history(path) == [
            {"tag": "x", "metrics": {}}
        ]


class TestBaselineFor:
    def history(self, regress, tmp_path, values):
        path = tmp_path / "history.json"
        scale = seed(regress, path, values=values)
        return regress.load_history(path), scale

    def test_median_min_last(self, regress, tmp_path):
        history, scale = self.history(regress, tmp_path,
                                      (1.0, 3.0, 2.0))
        args = ("stub", "seconds")
        assert regress.baseline_for(history, *args, scale=scale) == 2.0
        assert regress.baseline_for(history, *args, scale=scale,
                                    mode="min") == 1.0
        assert regress.baseline_for(history, *args, scale=scale,
                                    mode="last") == 2.0

    def test_window_keeps_newest(self, regress, tmp_path):
        history, scale = self.history(
            regress, tmp_path, (100.0, 1.0, 1.0, 1.0)
        )
        assert regress.baseline_for(history, "stub", "seconds",
                                    scale=scale, window=3) == 1.0

    def test_scale_filtering(self, regress, tmp_path):
        path = tmp_path / "history.json"
        scale = seed(regress, path, values=(9.0,), scale=12345)
        seed(regress, path, values=(1.0,))
        history = regress.load_history(path)
        assert regress.baseline_for(history, "stub", "seconds",
                                    scale=scale) == 1.0
        assert regress.baseline_for(history, "stub", "seconds",
                                    scale=12345) == 9.0

    def test_no_matching_entries(self, regress, tmp_path):
        history, scale = self.history(regress, tmp_path, (1.0,))
        assert regress.baseline_for(history, "other", "seconds",
                                    scale=scale) is None
        assert regress.baseline_for(history, "stub", "rows",
                                    scale=scale) is None


class TestCheck:
    def seeded_path(self, regress, tmp_path):
        path = tmp_path / "history.json"
        seed(regress, path, values=(1.0, 1.0, 1.0))
        return path

    def test_clean_check_passes(self, regress, stub_workloads,
                                tmp_path, capsys):
        path = self.seeded_path(regress, tmp_path)
        code = regress.main(["check", "--history", str(path),
                             "--workloads", "stub"])
        assert code == 0
        assert "[ok]" in capsys.readouterr().out

    def test_injected_slowdown_trips_the_gate(self, regress,
                                              stub_workloads,
                                              tmp_path, capsys):
        """Acceptance criterion: a 2x slowdown vs the seeded baseline
        exits non-zero at the default threshold."""
        path = self.seeded_path(regress, tmp_path)
        code = regress.main(["check", "--history", str(path),
                             "--workloads", "stub",
                             "--inject-slowdown", "2.0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "[REGRESSION]" in captured.out
        assert "regression(s) detected" in captured.err

    def test_warn_only_reports_but_passes(self, regress,
                                          stub_workloads, tmp_path,
                                          capsys):
        path = self.seeded_path(regress, tmp_path)
        code = regress.main(["check", "--history", str(path),
                             "--workloads", "stub",
                             "--inject-slowdown", "2.0",
                             "--warn-only"])
        assert code == 0
        assert "[REGRESSION]" in capsys.readouterr().out

    def test_threshold_is_configurable(self, regress, stub_workloads,
                                       tmp_path):
        path = self.seeded_path(regress, tmp_path)
        assert regress.main(["check", "--history", str(path),
                             "--workloads", "stub",
                             "--inject-slowdown", "2.0",
                             "--threshold", "3.0"]) == 0

    def test_no_baseline_passes_with_note(self, regress,
                                          stub_workloads, tmp_path,
                                          capsys):
        path = tmp_path / "empty.json"
        code = regress.main(["check", "--history", str(path),
                             "--workloads", "stub"])
        assert code == 0
        captured = capsys.readouterr()
        assert "no baseline" in captured.out
        assert "seed them" in captured.err

    def test_update_appends_measurements(self, regress,
                                         stub_workloads, tmp_path):
        path = self.seeded_path(regress, tmp_path)
        before = len(regress.load_history(path))
        regress.main(["check", "--history", str(path),
                      "--workloads", "stub", "--update"])
        history = regress.load_history(path)
        assert len(history) == before + 1
        assert history[-1]["source"] == "regress-check"

    def test_report_file(self, regress, stub_workloads, tmp_path):
        path = self.seeded_path(regress, tmp_path)
        report = tmp_path / "report.json"
        regress.main(["check", "--history", str(path),
                      "--workloads", "stub",
                      "--inject-slowdown", "2.0", "--warn-only",
                      "--report", str(report)])
        [entry] = json.loads(report.read_text())
        assert entry["tag"] == "stub"
        assert entry["ratio"] == pytest.approx(2.0)
        assert entry["regressed"] is True

    def test_unknown_workload_fails_loudly(self, regress,
                                           stub_workloads, tmp_path):
        with pytest.raises(SystemExit, match="unknown workload"):
            regress.main(["check",
                          "--history", str(tmp_path / "h.json"),
                          "--workloads", "nope"])


class TestMemoryGate:
    """``max_rss_bytes`` is gated exactly like latency: check()
    auto-compares every metric a workload reports."""

    def seeded_path(self, regress, tmp_path):
        from bench_tracker import record_history_entry

        path = tmp_path / "history.json"
        for _ in range(3):
            record_history_entry(
                "memstub",
                {"seconds": 1.0, "max_rss_bytes": 100_000_000.0},
                path=path,
            )
        return path

    @pytest.fixture
    def mem_workload(self, regress, monkeypatch):
        monkeypatch.setattr(regress, "WORKLOADS", {
            "memstub": lambda: {"seconds": 1.0,
                                "max_rss_bytes": 100_000_000.0},
        })

    def test_rss_within_threshold_passes(self, regress, mem_workload,
                                         tmp_path, capsys):
        path = self.seeded_path(regress, tmp_path)
        assert regress.main(["check", "--history", str(path),
                             "--workloads", "memstub"]) == 0
        out = capsys.readouterr().out
        assert "memstub/max_rss_bytes" in out
        assert "[ok]" in out

    def test_rss_blowup_trips_the_gate(self, regress, mem_workload,
                                       tmp_path, capsys):
        path = self.seeded_path(regress, tmp_path)
        code = regress.main(["check", "--history", str(path),
                             "--workloads", "memstub",
                             "--inject-slowdown", "2.0"])
        assert code == 1
        assert "memstub/max_rss_bytes" in capsys.readouterr().out

    def test_real_memory_workloads_sample_rss(self, regress,
                                              monkeypatch):
        """figure7e/figure7f report max_rss_bytes without running the
        full figure generator (stub the row builders)."""
        import bench_fig7e_scalability_size as fig7e

        monkeypatch.setattr(fig7e, "figure7e_rows",
                            lambda: [{"stub": True}])
        metrics = regress.WORKLOADS["figure7e"]()
        assert set(metrics) == {"seconds", "max_rss_bytes"}
        assert metrics["max_rss_bytes"] > 0

    def test_baseline_for_ignores_entries_without_rss(self, regress,
                                                      tmp_path):
        # Pre-PR history entries lack max_rss_bytes; they must not
        # poison the new metric's baseline.
        path = tmp_path / "history.json"
        seed(regress, path, tag="memstub", values=(1.0,))
        scale = seed(regress, path, tag="memstub", values=(5.0,),
                     metric="max_rss_bytes")
        history = regress.load_history(path)
        assert regress.baseline_for(history, "memstub",
                                    "max_rss_bytes", scale=scale) == 5.0


class TestComparison:
    def test_ratio_none_without_baseline(self, regress):
        comparison = regress.Comparison("t", "seconds", 1.0, None, 1.75)
        assert comparison.ratio is None
        assert comparison.regressed is False
        assert "no baseline" in comparison.render()

    def test_regressed_only_past_threshold(self, regress):
        at = regress.Comparison("t", "s", 1.75, 1.0, 1.75)
        past = regress.Comparison("t", "s", 1.76, 1.0, 1.75)
        assert at.regressed is False
        assert past.regressed is True

    def test_real_workload_registry_shape(self, regress):
        assert set(regress.WORKLOADS) == {
            "figure7e", "figure7f", "smoke_telemetry",
            "engine_fig7e", "engine_fig7f",
        }
        assert all(callable(w) for w in regress.WORKLOADS.values())

    @pytest.mark.parametrize("tag", ["engine_fig7e", "engine_fig7f"])
    def test_engine_workloads_keep_one_gated_lane(
        self, regress, monkeypatch, tmp_path, capsys, tag
    ):
        # One lane at engine defaults, under the metric name the
        # committed history gates; retired lanes in the history are
        # not compared.
        import paperfig

        calls = []
        monkeypatch.setattr(
            paperfig, "engine_kanon_seconds",
            lambda code: calls.append(code) or 1.0,
        )
        assert regress.WORKLOADS[tag]() == {"columnar_seconds": 1.0}
        assert len(calls) == 3  # best of three
        history_path = tmp_path / "history.json"
        from bench_tracker import record_history_entry

        record_history_entry(tag, {
            "columnar_seconds": 1.0, "planned_seconds": 1.0,
            "legacy_seconds": 9.0,
        }, path=history_path)
        code = regress.main(["check", "--history", str(history_path),
                             "--workloads", tag])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{tag}/columnar_seconds" in out
        assert "planned_seconds" not in out
        assert "legacy_seconds" not in out
