"""Record and gate the ``perfbench`` trajectory in ``BENCH_history.json``.

``perfbench/`` is the repository's one benchmark; this tool only keeps
its results over time.  ``record`` runs ``BENCHMARK.json``'s command
once per declared workload, as ``--workload W --seconds <run_seconds>``
(every entry is taken at the same run length: ``peak_rss_mb`` grows
with the number of passes that fit in a run), parses the JSON result on
the last line of its output and appends one history entry per
workload::

    {"recorded_at", "tag": <workload>, "source": "perfbench",
     "commit": <short hash, when git is available>,
     "correct", "attempted", "failed",
     "metrics": {<each end-to-end metric>: value}}

A run that exits non-zero, reads ``correct: false`` or counts failed
operations is not appended.

``check`` runs the same workloads and compares each end-to-end metric
with the median of the newest 5 same-tag entries, under that metric's
``bound`` and ``better`` from ``BENCHMARK.json``: a lower-is-better
metric regresses when current > baseline * (1 + bound), a
higher-is-better one when current < baseline * (1 - bound).  Entries
with other tags (the retired ``figure7e`` ... ``engine_fig7f`` lanes)
stay in the file as history and are never compared.

Usage::

    python benchmarks/regress.py record                  # append a run
    python benchmarks/regress.py check                   # gate
    python benchmarks/regress.py check --warn-only       # PR lane
    python benchmarks/regress.py check --workloads kanon_wide
    python benchmarks/regress.py check --inject-slowdown 2.0  # self-test

``--inject-slowdown F`` moves every fresh metric F times in its worse
direction before comparing: the self-test hook CI uses to prove the
gate trips.  ``--warn-only`` reports regressions but exits 0; a run
that is not correct fails ``check`` even then.  ``--update`` appends
the fresh results to the history afterwards.

perfbench reports times at a reference machine speed, but history
entries still come from one machine each, so the CI PR lane runs
``--warn-only`` and the nightly lane blocks.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The perfbench trajectory ``record`` and ``check --update`` append to.
HISTORY_PATH = REPO_ROOT / "BENCH_history.json"

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

#: The workloads ``record`` and ``check`` run, in BENCHMARK.json order.
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: end-to-end metric name -> {"better": "lower"|"higher", "bound": share}
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}

#: Baseline = median over the newest N same-tag entries.
WINDOW = 5


def run_perfbench(workload):
    """Run ``BENCHMARK.json``'s command on one workload at the declared
    run length; returns the finished process with its stdout."""
    command = [*BENCHMARK["command"], "--workload", workload,
               "--seconds", str(BENCHMARK["run_seconds"])]
    return subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                          text=True)


def measure(workload):
    """One perfbench run as ``{"exit", "correct", "attempted",
    "failed", "metrics"}``.  A run whose last stdout line is not a
    result carrying every end-to-end metric reads ``correct: false``
    with no metrics."""
    run = run_perfbench(workload)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: float(result["metrics"][name]["value"])
                   for name in END_TO_END}
        correct = result["correct"] is True
        attempted, failed = int(result["attempted"]), int(result["failed"])
    except (IndexError, KeyError, TypeError, ValueError):
        return {"exit": run.returncode, "correct": False, "attempted": 0,
                "failed": 0, "metrics": {}}
    return {"exit": run.returncode, "correct": correct,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def problems(run):
    """Why a run cannot be trusted; empty for a clean run."""
    found = []
    if run["exit"] != 0:
        found.append(f"exit code {run['exit']}")
    if run["correct"] is not True:
        found.append("correct: false")
    if run["failed"]:
        found.append(f"failed: {run['failed']} of {run['attempted']}")
    return found


def slowed(metrics, factor):
    """``metrics`` moved ``factor`` times in each one's worse
    direction (the self-test hook)."""
    return {
        name: value * factor if END_TO_END[name]["better"] == "lower"
        else value / factor
        for name, value in metrics.items()
    }


def _commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=REPO_ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def load_history(path):
    path = Path(path)
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


def record_history_entry(tag, run, path):
    """Append one clean perfbench run to the history file at ``path``."""
    entry = {
        "recorded_at": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "tag": tag,
        "source": "perfbench",
    }
    commit = _commit()
    if commit:
        entry["commit"] = commit
    entry.update({key: run[key]
                  for key in ("correct", "attempted", "failed", "metrics")})
    history = load_history(path)
    history.append(entry)
    Path(path).write_text(json.dumps(history, indent=2) + "\n")


def baseline_for(history, tag, metric):
    """Median of ``metric`` over the newest ``WINDOW`` entries tagged
    ``tag`` that carry it, or None if there are none."""
    values = [
        entry["metrics"][metric]
        for entry in history
        if entry.get("tag") == tag and metric in entry.get("metrics", {})
    ]
    if not values:
        return None
    return statistics.median(values[-WINDOW:])


class Comparison:
    """One (workload, metric) current-vs-baseline verdict."""

    def __init__(self, tag, metric, current, baseline):
        self.tag = tag
        self.metric = metric
        self.current = current
        self.baseline = baseline
        self.better = END_TO_END[metric]["better"]
        self.bound = END_TO_END[metric]["bound"]

    @property
    def ratio(self):
        if self.baseline is None or self.baseline <= 0:
            return None
        return self.current / self.baseline

    @property
    def limit(self):
        """The ratio past which the metric regressed."""
        return 1 + self.bound if self.better == "lower" else 1 - self.bound

    @property
    def regressed(self):
        if self.ratio is None:
            return False
        bar = self.baseline * self.limit
        if self.better == "lower":
            return self.current > bar
        return self.current < bar

    def to_json(self):
        return {
            "tag": self.tag,
            "metric": self.metric,
            "current": self.current,
            "baseline": self.baseline,
            "ratio": self.ratio,
            "better": self.better,
            "bound": self.bound,
            "regressed": self.regressed,
        }

    def render(self):
        if self.baseline is None:
            return (f"  {self.tag}/{self.metric}: {self.current:.4g} "
                    "(no baseline — recorded as first point)")
        marker = "REGRESSION" if self.regressed else "ok"
        return (f"  {self.tag}/{self.metric}: {self.current:.4g} vs "
                f"baseline {self.baseline:.4g} "
                f"(x{self.ratio:.2f}, limit x{self.limit:g}, "
                f"{self.better} is better) [{marker}]")


def run_workloads(names):
    """Run each named workload once; returns {tag: run}."""
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise SystemExit(
            f"unknown workload {unknown[0]!r}; available: "
            f"{', '.join(WORKLOADS)}"
        )
    return {name: measure(name) for name in names}


def check(args):
    history = load_history(args.history)
    runs = run_workloads(args.workloads or WORKLOADS)
    print(f"benchmark regression check (median of the newest {WINDOW} "
          f"entries, bounds from BENCHMARK.json):")
    comparisons = []
    broken = {tag: found for tag, run in runs.items()
              if (found := problems(run))}
    for tag, run in runs.items():
        for problem in broken.get(tag, ()):
            print(f"  {tag}: {problem} [FAILED]")
        for metric, current in slowed(run["metrics"],
                                      args.inject_slowdown).items():
            comparison = Comparison(tag, metric, current,
                                    baseline_for(history, tag, metric))
            comparisons.append(comparison)
            print(comparison.render())
    if args.report:
        Path(args.report).write_text(json.dumps(
            [c.to_json() for c in comparisons], indent=2
        ) + "\n")
        print(f"wrote {args.report}")
    if args.update:
        clean = [tag for tag in runs if tag not in broken]
        for tag in clean:
            record_history_entry(tag, runs[tag], args.history)
        print(f"appended {len(clean)} entry(ies) to {args.history}")
    if broken:
        print(f"{len(broken)} workload(s) did not run clean: "
              f"{', '.join(broken)}", file=sys.stderr)
        return 1
    regressions = [c for c in comparisons if c.regressed]
    if regressions:
        print(f"{len(regressions)} regression(s) detected",
              file=sys.stderr)
        return 0 if args.warn_only else 1
    if any(c.baseline is None for c in comparisons) and not args.update:
        print("note: some metrics had no baseline; run with --update "
              "or `record` to seed them", file=sys.stderr)
    return 0


def record(args):
    code = 0
    for tag, run in run_workloads(args.workloads or WORKLOADS).items():
        found = problems(run)
        if found:
            print(f"not recorded {tag}: {', '.join(found)}",
                  file=sys.stderr)
            code = 1
            continue
        record_history_entry(tag, run, args.history)
        rendered = ", ".join(
            f"{metric}={value:.4g}" for metric, value in run["metrics"].items()
        )
        print(f"recorded {tag}: {rendered} -> {args.history}")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="record and gate perfbench runs in BENCH_history.json"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(subparser):
        subparser.add_argument(
            "--history", default=str(HISTORY_PATH),
            help="history file (default: repo-root BENCH_history.json)",
        )
        subparser.add_argument(
            "--workloads", nargs="*", default=None, metavar="NAME",
            help=f"subset to run (default: all of {', '.join(WORKLOADS)})",
        )

    record_parser = commands.add_parser(
        "record", help="run the workloads and append their results"
    )
    common(record_parser)

    check_parser = commands.add_parser(
        "check", help="run the workloads and gate against the baseline"
    )
    common(check_parser)
    check_parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (the PR lane); a run that "
        "is not correct still fails",
    )
    check_parser.add_argument(
        "--update", action="store_true",
        help="append the fresh results to the history afterwards",
    )
    check_parser.add_argument(
        "--report", default=None, metavar="FILE.json",
        help="write the machine-readable comparison list here",
    )
    check_parser.add_argument(
        "--inject-slowdown", type=float, default=1.0, metavar="FACTOR",
        help="move fresh metrics FACTOR times in their worse direction "
        "before comparing (self-test hook: 2.0 must trip the gate)",
    )

    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args)
    return check(args)


if __name__ == "__main__":
    sys.exit(main())
