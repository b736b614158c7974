"""Runtime inspection: EXPLAIN/ANALYZE, memory accounting, progress.

The PR-5 join plans made the chase fast and opaque at the same time:
per-rule attribution says *that* a rule is hot, but not *why* (join
order, step selectivity, probe hit rates).  This module is the
engine's operator-level truth, three instruments in one place:

* **EXPLAIN / ANALYZE** — the chase engine produces a structured
  *explain document* (plain dicts, JSON-serialisable) describing every
  compiled :class:`~repro.vadalog.plans.JoinPlan`; in ANALYZE mode
  each step additionally carries a :class:`StepStats` record of actual
  rows in/out, probe hits/misses and per-step wall time.
  :func:`render_explain` turns the document into the annotated plan
  tree printed by ``python -m repro explain``.
* **Memory accounting** — :func:`render_memory` renders the
  per-predicate cardinality / estimated-bytes report produced by
  :meth:`~repro.vadalog.database.FactStore.memory_stats`, and
  :class:`PeakRSSSampler` tracks the process peak resident-set size
  (``max_rss_bytes``) over a code region — the gauge perfbench
  reports as ``peak_rss_mb``, which ``benchmarks/regress.py`` gates.
* **Live progress** — :class:`ChaseProgress` tracks the chase's
  current stratum/round, delta-frontier size, fire rate and stall
  state; the engine publishes it as ``chase.heartbeat.*`` gauges (the
  ``/metrics`` ops surface) and ``heartbeat`` / ``stall`` events.

Nothing here imports the engine: the engine hands *data* (dicts,
stats objects) to this module, never the other way around, so the
telemetry package stays import-cycle free and the hot paths pay
nothing while inspection is off.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "ChaseProgress",
    "PeakRSSSampler",
    "PlanAnalysis",
    "StepStats",
    "current_rss_bytes",
    "render_explain",
    "render_memory",
]


# -- ANALYZE instrumentation -------------------------------------------------


class StepStats:
    """Actuals for one plan step across a run.

    ``invocations`` counts rows *arriving* from the upstream step (how
    often the step's iterator was opened), ``rows_out`` rows it passed
    downstream, so ``rows_out / invocations`` is the step's observed
    selectivity.  Scan and negation steps additionally count index
    probes (``probe_hits`` = probes returning at least one fact) and
    ``rows_scanned`` (facts the probe returned before repeat-variable
    filtering).  ``wall_ns`` is time spent inside the step's own
    iterator, excluding downstream steps.
    """

    __slots__ = (
        "invocations", "rows_out", "probe_calls", "probe_hits",
        "rows_scanned", "wall_ns",
    )

    def __init__(self) -> None:
        self.invocations = 0
        self.rows_out = 0
        self.probe_calls = 0
        self.probe_hits = 0
        self.rows_scanned = 0
        self.wall_ns = 0

    @property
    def probe_misses(self) -> int:
        return self.probe_calls - self.probe_hits

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "invocations": self.invocations,
            "rows_out": self.rows_out,
            "wall_ns": self.wall_ns,
        }
        if self.probe_calls:
            data["probe_calls"] = self.probe_calls
            data["probe_hits"] = self.probe_hits
            data["probe_misses"] = self.probe_misses
            data["rows_scanned"] = self.rows_scanned
        return data

    def __repr__(self) -> str:
        return (
            f"StepStats(in={self.invocations} out={self.rows_out} "
            f"probes={self.probe_hits}/{self.probe_calls} "
            f"wall={self.wall_ns}ns)"
        )


class PlanAnalysis:
    """ANALYZE state for one :class:`JoinPlan`: per-step stats plus
    plan-level execution/match counts."""

    __slots__ = ("steps", "executions", "matches")

    def __init__(self, step_count: int):
        self.steps: List[StepStats] = [
            StepStats() for _ in range(step_count)
        ]
        self.executions = 0
        self.matches = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "executions": self.executions,
            "matches": self.matches,
            "steps": [stats.to_json() for stats in self.steps],
        }


# -- explain rendering -------------------------------------------------------


def _format_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{int(ns)}ns"


def _format_bytes(count: float) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" \
                else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GiB"  # pragma: no cover — loop always returns


def _render_actual(actual: Dict[str, Any]) -> str:
    parts = [
        f"rows in={actual.get('invocations', 0)} "
        f"out={actual.get('rows_out', 0)}"
    ]
    calls = actual.get("probe_calls", 0)
    if calls:
        hits = actual.get("probe_hits", 0)
        parts.append(
            f"probes={hits}/{calls} "
            f"({100.0 * hits / calls:.0f}% hit) "
            f"scanned={actual.get('rows_scanned', 0)}"
        )
    parts.append(_format_ns(actual.get("wall_ns", 0)))
    return "  [" + ", ".join(parts) + "]"


def render_explain(doc: Dict[str, Any]) -> str:
    """Render an engine explain document as an annotated plan tree.

    Static documents show the compiled step order, probe layouts and
    pushed-down expressions; ANALYZE documents additionally annotate
    every step with its actuals and append the memory report when the
    document carries one.
    """
    analyze = bool(doc.get("analyze"))
    rules = doc.get("rules", [])
    lines = [
        ("EXPLAIN ANALYZE" if analyze else "EXPLAIN")
        + f": {len(rules)} rule(s)"
    ]
    if not rules:
        lines.append("  (no rules — nothing to plan)")
    for rule in rules:
        tags = []
        stratum = rule.get("stratum")
        if stratum is not None:
            tags.append(f"stratum {stratum}")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        lines.append(f"rule {rule.get('rule', '?')}{suffix}")
        for plan in rule.get("plans", []):
            head = f"  plan {plan.get('name', '?')}"
            if "executions" in plan:
                head += (
                    f"  ({plan['executions']} execution(s), "
                    f"{plan.get('matches', 0)} match(es))"
                )
            lines.append(head)
            steps = plan.get("steps", [])
            if not steps:
                lines.append("    (empty plan — fires unconditionally)")
            for number, step in enumerate(steps, start=1):
                line = f"    {number}. {step.get('detail', '?')}"
                actual = step.get("actual")
                if actual is not None:
                    line += _render_actual(actual)
                lines.append(line)
    memory = doc.get("memory")
    if memory:
        lines.append("")
        lines.append(render_memory(memory))
    return "\n".join(lines)


def render_memory(memory: Dict[str, Any]) -> str:
    """Render the memory report (``FactStore.memory_stats`` plus an
    optional ``provenance`` section) as a compact table."""
    store = memory.get("store", memory)
    lines = ["memory:"]
    predicates = store.get("predicates", {})
    for name in sorted(predicates):
        info = predicates[name]
        lines.append(
            f"  {name}: {info.get('facts', 0)} fact(s), "
            f"~{_format_bytes(info.get('estimated_bytes', 0))}, "
            f"{info.get('index_entries', 0)} index entr(ies), "
            f"frontier {info.get('delta', 0)}, "
            f"columnar {_format_bytes(info.get('column_bytes', 0))}"
            f" in columns, {info.get('dictionary_terms', 0)} "
            f"dict term(s), probes "
            f"{info.get('probe_hits', 0)}/{info.get('probes', 0)} hit"
        )
    lines.append(
        f"  total: {store.get('facts', 0)} fact(s), "
        f"~{_format_bytes(store.get('estimated_bytes', 0))}, "
        f"{store.get('index_entries', 0)} index entr(ies)"
    )
    provenance = memory.get("provenance")
    if provenance:
        lines.append(
            f"  provenance: {provenance.get('derivations', 0)} "
            f"derivation(s), "
            f"~{_format_bytes(provenance.get('estimated_bytes', 0))}"
        )
    return "\n".join(lines)


# -- peak-RSS sampling -------------------------------------------------------


def current_rss_bytes() -> int:
    """The process's current resident-set size in bytes.

    Reads ``/proc/self/status`` (Linux); falls back to the
    ``resource`` ru_maxrss *peak* (kilobytes on Linux, bytes on
    macOS), and to 0 where neither source exists — callers treat 0 as
    "unknown", never as a measurement.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024
    except Exception:  # pragma: no cover — exotic platforms only
        return 0


class PeakRSSSampler:
    """Track peak resident-set size over a code region.

    A daemon thread samples :func:`current_rss_bytes` every
    ``interval`` seconds between :meth:`start` and :meth:`stop`
    (synchronous samples are also taken at both edges, so even an
    instant region gets a real reading)::

        with PeakRSSSampler() as rss:
            run_workload()
        print(rss.max_rss_bytes)

    perfbench reports this reading as ``peak_rss_mb``, which
    ``benchmarks/regress.py`` records into ``BENCH_history.json``.
    """

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.max_rss_bytes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> int:
        """Take one synchronous sample; returns the current reading."""
        rss = current_rss_bytes()
        if rss > self.max_rss_bytes:
            self.max_rss_bytes = rss
        return rss

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "PeakRSSSampler":
        self._stop.clear()
        self.sample()
        self._thread = threading.Thread(
            target=self._run, name="repro-rss-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> int:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.sample()
        return self.max_rss_bytes

    def __enter__(self) -> "PeakRSSSampler":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False


# -- live chase progress -----------------------------------------------------


class ChaseProgress:
    """Heartbeat and stall state for one chase run.

    The engine calls :meth:`progressed` whenever a rule fires,
    :meth:`check_stall` after every rule application, and
    :meth:`heartbeat` at the end of every round.  All decisions are
    made against an injectable monotonic ``clock`` so stall semantics
    are unit-testable without sleeping.

    * A **stall** begins when no rule has fired for
      ``stall_threshold`` seconds; :meth:`check_stall` reports it
      exactly once per episode, and the next firing ends the episode.
    * **Heartbeat events** are rate-limited to one per
      ``heartbeat_interval`` seconds (0 = every round); heartbeat
      *gauges* are refreshed every round regardless.
    """

    def __init__(
        self,
        stall_threshold: float = 30.0,
        heartbeat_interval: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.stall_threshold = stall_threshold
        self.heartbeat_interval = heartbeat_interval
        self._clock = clock
        now = clock()
        self._last_progress = now
        self._last_event: Optional[float] = None
        self.stalled = False
        self.rounds = 0
        self.facts_derived = 0
        self.stalls = 0

    def progressed(self) -> bool:
        """A rule fired: progress.  Returns True when this ends a
        stall episode (the caller resets the stalled gauge)."""
        self._last_progress = self._clock()
        recovered = self.stalled
        self.stalled = False
        return recovered

    def idle_seconds(self) -> float:
        return self._clock() - self._last_progress

    def check_stall(self) -> Optional[Dict[str, Any]]:
        """Report a *new* stall episode, or None.  Subsequent checks
        during the same episode stay quiet."""
        if self.stalled:
            return None
        idle = self.idle_seconds()
        if idle < self.stall_threshold:
            return None
        self.stalled = True
        self.stalls += 1
        return {
            "idle_seconds": idle,
            "threshold": self.stall_threshold,
        }

    def heartbeat(
        self,
        stratum: int,
        round_: int,
        new_facts: int,
        frontier: int,
        seconds: float,
        total_facts: int,
    ) -> Dict[str, Any]:
        """Fold one finished round in and return the heartbeat
        payload (fire rate guards the zero-duration round)."""
        self.rounds += 1
        self.facts_derived += new_facts
        return {
            "stratum": stratum,
            "round": round_,
            "new_facts": new_facts,
            "frontier": frontier,
            "fire_rate": new_facts / seconds if seconds > 0 else 0.0,
            "total_facts": total_facts,
            "stalled": self.stalled,
        }

    def event_due(self) -> bool:
        """Rate limiter for heartbeat *events* (gauges always update)."""
        now = self._clock()
        if (
            self._last_event is not None
            and now - self._last_event < self.heartbeat_interval
        ):
            return False
        self._last_event = now
        return True
