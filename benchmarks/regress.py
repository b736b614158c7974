"""Continuous benchmark-regression gate over ``BENCH_history.json``.

The ROADMAP's "fast as the hardware allows" goal needs a measured
trajectory: this tool appends per-run workload timings to the history
file and compares fresh runs against the accumulated baseline, exiting
non-zero when a workload slowed past the threshold.

Workloads (deterministic figure generators, seconds per run):

* ``figure7e`` — scalability by dataset size (3 risk measures); also
  records ``max_rss_bytes`` (peak resident-set size over the run,
  sampled by :class:`repro.telemetry.inspect.PeakRSSSampler`), which
  is gated exactly like latency;
* ``figure7f`` — scalability by number of quasi-identifiers (same
  ``seconds`` + ``max_rss_bytes`` pair);
* ``smoke_telemetry`` — the Figure 7a anonymization workload run with
  telemetry enabled (the instrumented-path cost);
* ``engine_fig7e`` — k-anonymity scored *through the chase engine* at
  the largest Figure 7e size, at engine defaults (best-of-3 to shrug
  off machine-load spikes).  The metric keeps its historical name
  ``columnar_seconds`` so the committed history still gates it; the
  retired ``planned_seconds`` / ``legacy_seconds`` lanes stay in the
  history file as history, and ``check`` only compares metrics the
  workloads still produce;
* ``engine_fig7f`` — the same engine lane at the widest Figure 7f QI
  set.

Usage::

    python benchmarks/regress.py record                  # append a run
    python benchmarks/regress.py check                   # gate
    python benchmarks/regress.py check --warn-only       # PR lane
    python benchmarks/regress.py check --threshold 1.5 \
        --workloads figure7f                             # narrow gate
    python benchmarks/regress.py check --inject-slowdown 2.0  # self-test

``check`` re-runs each workload once, compares every metric against
the baseline (median of the newest ``--window`` history entries at the
same dataset scale; ``--baseline min|last`` available) and reports
``current / baseline`` ratios.  ``--inject-slowdown F`` multiplies the
fresh measurements by F before comparing — the self-test hook CI uses
to prove the gate actually trips.  ``--update`` appends the fresh
measurements to the history afterwards so the trajectory accumulates.

History entries are machine-local wall-clock seconds: a committed
baseline from one machine gates a different machine only loosely.  The
CI PR lane therefore runs ``--warn-only``; the nightly lane blocks.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_tracker import HISTORY_PATH, record_history_entry  # noqa: E402
from paperfig import SCALE  # noqa: E402

#: check fails when current / baseline exceeds this (default).
DEFAULT_THRESHOLD = 1.75

#: Baseline = aggregate over the newest N same-scale entries per tag.
DEFAULT_WINDOW = 5


def _workload_figure7e():
    import bench_fig7e_scalability_size as fig7e
    from repro.telemetry.inspect import PeakRSSSampler

    with PeakRSSSampler() as rss:
        start = time.perf_counter()
        rows = fig7e.figure7e_rows()
        seconds = time.perf_counter() - start
    assert rows, "figure 7e produced no rows"
    return {"seconds": seconds, "max_rss_bytes": rss.max_rss_bytes}


def _workload_figure7f():
    import bench_fig7f_scalability_attrs as fig7f
    from repro.telemetry.inspect import PeakRSSSampler

    with PeakRSSSampler() as rss:
        start = time.perf_counter()
        rows = fig7f.figure7f_rows()
        seconds = time.perf_counter() - start
    assert rows, "figure 7f produced no rows"
    return {"seconds": seconds, "max_rss_bytes": rss.max_rss_bytes}


def _workload_smoke_telemetry():
    from repro import telemetry

    import bench_fig7a_nulls_by_k as fig7a

    telemetry.enable()
    try:
        start = time.perf_counter()
        rows = fig7a.figure7a_rows()
        seconds = time.perf_counter() - start
    finally:
        telemetry.disable()
        telemetry.reset()
    assert rows, "figure 7a produced no rows"
    return {"seconds": seconds}


def _best_of(measure, repeats=3):
    """Minimum of ``repeats`` runs — the least noise-sensitive
    estimator of a workload's true cost (machine-load spikes only
    ever push a measurement up, never down)."""
    return min(measure() for _ in range(repeats))


def _workload_engine_fig7e():
    import bench_fig7e_scalability_size as fig7e
    from paperfig import engine_kanon_seconds

    largest = fig7e.SIZES[-1]
    return {
        "columnar_seconds": _best_of(
            lambda: engine_kanon_seconds(largest)
        ),
    }


def _workload_engine_fig7f():
    import bench_fig7f_scalability_attrs as fig7f
    from paperfig import engine_kanon_seconds

    widest = fig7f.SIZES[-1]
    return {
        "columnar_seconds": _best_of(
            lambda: engine_kanon_seconds(widest)
        ),
    }


#: name -> zero-arg callable returning {metric: number}.  Tests may
#: monkeypatch this registry with stub workloads.
WORKLOADS = {
    "figure7e": _workload_figure7e,
    "figure7f": _workload_figure7f,
    "smoke_telemetry": _workload_smoke_telemetry,
    "engine_fig7e": _workload_engine_fig7e,
    "engine_fig7f": _workload_engine_fig7f,
}


def load_history(path):
    path = Path(path)
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


def baseline_for(history, tag, metric, scale=SCALE, mode="median",
                 window=DEFAULT_WINDOW):
    """The baseline value for one (tag, metric), or None if the
    history has no same-scale entries carrying it."""
    values = [
        entry["metrics"][metric]
        for entry in history
        if entry.get("tag") == tag
        and entry.get("scale") == scale
        and metric in entry.get("metrics", {})
    ]
    values = values[-window:]
    if not values:
        return None
    if mode == "min":
        return min(values)
    if mode == "last":
        return values[-1]
    return statistics.median(values)


class Comparison:
    """One (workload, metric) current-vs-baseline verdict."""

    def __init__(self, tag, metric, current, baseline, threshold):
        self.tag = tag
        self.metric = metric
        self.current = current
        self.baseline = baseline
        self.threshold = threshold

    @property
    def ratio(self):
        if self.baseline is None or self.baseline <= 0:
            return None
        return self.current / self.baseline

    @property
    def regressed(self):
        return self.ratio is not None and self.ratio > self.threshold

    def to_json(self):
        return {
            "tag": self.tag,
            "metric": self.metric,
            "current": self.current,
            "baseline": self.baseline,
            "ratio": self.ratio,
            "threshold": self.threshold,
            "regressed": self.regressed,
        }

    def render(self):
        if self.baseline is None:
            return (f"  {self.tag}/{self.metric}: {self.current:.4g} "
                    "(no baseline — recorded as first point)")
        marker = "REGRESSION" if self.regressed else "ok"
        return (f"  {self.tag}/{self.metric}: {self.current:.4g} vs "
                f"baseline {self.baseline:.4g} "
                f"(x{self.ratio:.2f}, limit x{self.threshold:g}) "
                f"[{marker}]")


def run_workloads(names, inject_slowdown=1.0):
    """Run each named workload once; returns {tag: {metric: value}}
    with the (test-hook) slowdown factor applied."""
    results = {}
    for name in names:
        try:
            workload = WORKLOADS[name]
        except KeyError:
            raise SystemExit(
                f"unknown workload {name!r}; available: "
                f"{', '.join(sorted(WORKLOADS))}"
            )
        metrics = workload()
        results[name] = {
            metric: value * inject_slowdown
            for metric, value in metrics.items()
        }
    return results


def check(args):
    history = load_history(args.history)
    names = args.workloads or sorted(WORKLOADS)
    results = run_workloads(names, inject_slowdown=args.inject_slowdown)
    comparisons = []
    for tag, metrics in results.items():
        for metric, current in metrics.items():
            comparisons.append(Comparison(
                tag, metric, current,
                baseline_for(history, tag, metric, scale=SCALE,
                             mode=args.baseline, window=args.window),
                args.threshold,
            ))
    print(f"benchmark regression check (scale 1/{SCALE}, baseline="
          f"{args.baseline} over last {args.window}):")
    for comparison in comparisons:
        print(comparison.render())
    if args.report:
        Path(args.report).write_text(json.dumps(
            [c.to_json() for c in comparisons], indent=2
        ) + "\n")
        print(f"wrote {args.report}")
    if args.update:
        for tag, metrics in results.items():
            record_history_entry(tag, metrics, path=args.history,
                                 extra={"source": "regress-check"})
        print(f"appended {len(results)} entry(ies) to {args.history}")
    regressions = [c for c in comparisons if c.regressed]
    if regressions:
        print(f"{len(regressions)} regression(s) detected "
              f"(threshold x{args.threshold:g})", file=sys.stderr)
        return 0 if args.warn_only else 1
    missing = [c for c in comparisons if c.baseline is None]
    if missing and not args.update:
        print("note: some metrics had no baseline; run with --update "
              "or `record` to seed them", file=sys.stderr)
    return 0


def record(args):
    names = args.workloads or sorted(WORKLOADS)
    results = run_workloads(names)
    for tag, metrics in results.items():
        path = record_history_entry(tag, metrics, path=args.history,
                                    extra={"source": "regress-record"})
        rendered = ", ".join(
            f"{metric}={value:.4g}" for metric, value in metrics.items()
        )
        print(f"recorded {tag}: {rendered} -> {path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="benchmark-regression gate over BENCH_history.json"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(subparser):
        subparser.add_argument(
            "--history", default=str(HISTORY_PATH),
            help="history file (default: repo-root BENCH_history.json)",
        )
        subparser.add_argument(
            "--workloads", nargs="*", default=None, metavar="NAME",
            help=f"subset to run (default: all of "
            f"{', '.join(sorted(WORKLOADS))})",
        )

    record_parser = commands.add_parser(
        "record", help="run workloads and append their timings"
    )
    common(record_parser)

    check_parser = commands.add_parser(
        "check", help="run workloads and gate against the baseline"
    )
    common(check_parser)
    check_parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help=f"fail when current/baseline exceeds this "
        f"(default {DEFAULT_THRESHOLD})",
    )
    check_parser.add_argument(
        "--baseline", choices=("median", "min", "last"),
        default="median", help="baseline aggregate (default median)",
    )
    check_parser.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW,
        help=f"history entries per tag considered "
        f"(default {DEFAULT_WINDOW})",
    )
    check_parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (the PR lane)",
    )
    check_parser.add_argument(
        "--update", action="store_true",
        help="append the fresh measurements to the history afterwards",
    )
    check_parser.add_argument(
        "--report", default=None, metavar="FILE.json",
        help="write the machine-readable comparison list here",
    )
    check_parser.add_argument(
        "--inject-slowdown", type=float, default=1.0, metavar="FACTOR",
        help="multiply fresh measurements by FACTOR before comparing "
        "(self-test hook: 2.0 must trip the gate)",
    )

    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args)
    return check(args)


if __name__ == "__main__":
    sys.exit(main())
