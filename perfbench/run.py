"""Vada-SA benchmark: the SDC release cycle and the chase, end to end
and by layer.  See ``perfbench/README.md`` for the workloads and metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suda_wide --seed 1 --seconds 24 --trace 0

One process, one caller, one operation in flight (closed loop,
concurrency 1).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` interleaves untraced and traced passes over the same
inputs and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
#: The probe's usual loop time on the reference machine (2-vCPU x86-64
#: VM at 2.1 GHz, CPython 3.11).  End-to-end times are reported at this
#: speed: measured times are scaled by PROBE_REF_S over the run's mean
#: probe time (see Probe), which cancels the minutes-long phases in which a shared
#: host runs every process up to 2x slower (see README.md).
PROBE_REF_S = 0.015
#: traced runs write their spans here, once, when the run ends
SPANS_DIR = ROOT / ".bench_out"

#: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
}

#: per-layer self-time metric -> the span names whose self time it sums
SELF_TIMES = {
    "risk.assess_s": ("risk.assess",),
    "risk.suda.msu_search_s": ("risk.suda.msu_search",),
    "nulls.match_aggregate_s": ("nulls.match_aggregate", "nulls.match_counts"),
    "heuristics.prepare_s": ("heuristics.prepare",),
    "heuristics.order_s": ("heuristics.order",),
    "heuristics.select_s": ("heuristics.select",),
    "cycle.self_s": ("cycle.run",),
    "cycle.recheck_s": ("cycle.recheck",),
    "cycle.tracker_build_s": ("cycle.tracker_build",),
    "method.apply_s": ("method.apply",),
    "method.applicable_s": ("method.applicable",),
    "framework.assess_s": ("framework.assess",),
    "framework.share_s": ("framework.share",),
    "framework.shared_view_s": ("framework.shared_view",),
    "vadalog.load_s": ("chase.kanon", "chase.indiv", "chase.suda"),
    "vadalog.preflight_s": ("vadalog.preflight",),
    "vadalog.engine_s": ("vadalog.engine",),
    "trace.bookkeeping_s": ("trace.bookkeeping",),
    "trace.unattributed_s": ("op",),
}
#: per-layer call-count metric -> span name
CALLS = {
    "risk.assess_calls": "risk.assess",
    "nulls.match_aggregate_calls": "nulls.match_aggregate",
    "heuristics.prepare_calls": "heuristics.prepare",
    "heuristics.select_calls": "heuristics.select",
    "cycle.recheck_calls": "cycle.recheck",
    "method.apply_calls": "method.apply",
}
#: one inclusive time per chase module (its span covers the whole run)
MODULE_TIMES = ("chase.kanon_s", "chase.indiv_s", "chase.suda_s")
TRACER_COUNTS = ("nulls.null_patterns", "nulls.row_comparisons",
                 "risk.suda.subsets_scanned", "risk.suda.msus_found")
OUTCOMES = ("cycle.iterations", "cycle.steps", "method.cells_suppressed",
            "method.cells_recoded", "chase.rounds", "chase.facts",
            "chase.nulls_introduced")
ENGINE = ("chase.rule_firings", "chase.bindings", "chase.batch_rows",
          "chase.plans_unplannable", "store.composite_probes")
RULE_LABELS = ("tuple-build", "kanon-1", "kanon-2", "ind-1", "ind-2",
               "suda-1", "suda-2", "suda-3", "suda-4", "suda-5", "suda-5b",
               "suda-6a", "suda-6b", "suda-7a", "suda-7b", "suda-8a",
               "suda-8b", "suda-8c")
RULE_TIMES = tuple(f"chase.match_s.{label}" for label in RULE_LABELS)
#: counts that do not move with machine load: they must repeat exactly
DETERMINISTIC = ("nulls.row_comparisons", "nulls.null_patterns",
                 "risk.suda.subsets_scanned", "cycle.recheck_calls",
                 "cycle.steps", "cycle.iterations", "chase.rounds",
                 "chase.facts", "chase.rule_firings",
                 "store.composite_probes")

#: name -> unit, in output order
PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in CALLS},
    **{name: "s" for name in MODULE_TIMES},
    **{name: "count" for name in TRACER_COUNTS},
    **{name: "count" for name in OUTCOMES},
    "cycle.information_loss": "ratio",
    **{name: "count" for name in ENGINE},
    "store.columnar.probe_hit_ratio": "ratio",
    "store.estimated_bytes": "bytes",
    **{name: "s" for name in RULE_TIMES},
    "vadalog.parse_s": "s",
    "trace.op_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "cycle.recheck_keep_ratio": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default 20210323)")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Sample(NamedTuple):
    wall: float
    cpu: float
    output: object


class Probe:
    """The machine's speed over a run, from a fixed pure-Python loop
    (dict, tuple and str work; no repro code) timed before every
    timed region.  ``scale()`` turns measured times into times at the
    reference speed: PROBE_REF_S over the run's mean loop time, leaving
    out the slowest fifth of the loops."""

    def __init__(self):
        self.walls: List[float] = []
        self.cpus: List[float] = []

    def sample(self, loops: int = 3) -> None:
        for _ in range(loops):
            wall, cpu = time.perf_counter(), time.process_time()
            table: Dict[tuple, int] = {}
            for i in range(20000):
                key = (i * 7919 % 50021, "k%d" % (i % 997))
                table[key] = table.get(key, 0) + 1
            self.walls.append(time.perf_counter() - wall)
            self.cpus.append(time.process_time() - cpu)

    def scale(self) -> Tuple[float, float]:
        """(wall, cpu) factors from measured to reference seconds."""
        return (PROBE_REF_S / _fast_mean(self.walls),
                PROBE_REF_S / _fast_mean(self.cpus))


def _fast_mean(values: List[float], keep: float = 0.8) -> float:
    """Mean of the fastest ``keep`` share of ``values``: a loop the
    scheduler preempted says nothing about the machine's speed."""
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(1, int(len(ordered) * keep))])


def measure(function: Callable[[], object]) -> Sample:
    wall, cpu = time.perf_counter(), time.process_time()
    output = function()
    return Sample(time.perf_counter() - wall, time.process_time() - cpu,
                  output)


class Bench:
    """Closed-loop measurement of one workload on one seed."""

    def __init__(self, workload, seconds: float,
                 probe: Optional[Probe] = None):
        self.workload = workload
        self.seconds = seconds
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, item, tracer=None, module=None) -> Optional[Sample]:
        """One operation gated on its output check; None when it raised
        or failed the check.  Traced, the operation is the root span
        ``op`` and ``module`` opens the spans a workload places inside
        it."""
        self.attempted += 1

        def operation():
            if tracer is None:
                return self.workload.operation(item, module or _no_span)
            tracer.op += 1
            with tracer.span("op"):
                return self.workload.operation(item, module)

        # Start from a collected heap, so the previous operation's
        # garbage is neither collected nor resident during this one.
        gc.collect()
        if self.probe is not None:
            self.probe.sample()
        try:
            sample = measure(operation)
            self.workload.check(item, sample.output)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        return sample

    def one_pass(self, items, tracer=None, module=None):
        """Every item once.  Returns the per-operation mean wall time
        and the outputs, or None when an operation failed."""
        wall = 0.0
        outputs = []
        for item in items:
            sample = self.attempt(item, tracer, module)
            if sample is None:
                return None
            wall += sample.wall
            outputs.append(sample.output)
        return wall / len(items), outputs


def _no_span(name):
    return nullcontext()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def setup_times(workload, seed: int, probe: Optional[Probe] = None,
                tracer=None):
    """Set up SETUP_REPEATS times; returns the last inputs, the median
    set-up time as measured and (traced) the median ``Program.parse``
    self time."""
    times, parse = [], []
    for _ in range(SETUP_REPEATS):
        if probe is not None:
            probe.sample()
        first = len(tracer.spans) if tracer is not None else 0
        with tracer.span("setup") if tracer is not None else nullcontext():
            sample = measure(lambda: workload.setup(seed))
        times.append(sample.wall)
        if tracer is not None:
            from spans import self_times

            parse.append(self_times(tracer.spans, first).get(
                "vadalog.parse", 0.0))
    return sample.output, _median(times), _median(parse)


def end_to_end(bench: Bench, items, setup_s: float):
    """Whole passes over the pool while another one fits in the run
    time (at least one).  Each input's time is its median over the
    passes; the metrics are per operation, averaged over the pool, and
    scaled to the reference speed.  Also returns the times as
    measured."""
    from repro.telemetry import PeakRSSSampler

    samples: List[List[Sample]] = [[] for _ in items]
    start = time.perf_counter()
    with PeakRSSSampler(interval=0.05) as rss:
        while True:
            pass_start = time.perf_counter()
            for index, item in enumerate(items):
                sample = bench.attempt(item)
                if sample is not None:
                    samples[index].append(sample._replace(output=None))
            now = time.perf_counter()
            if bench.failed or now - start + (now - pass_start) > bench.seconds:
                break
    bench.probe.sample()
    timed = [i for i in range(len(items)) if samples[i]]
    if not timed:
        return {}, {}

    def per_op(field):
        return statistics.fmean(
            _median([getattr(s, field) for s in samples[i]]) for i in timed
        )

    rows = sum(bench.workload.rows(items[i]) for i in timed) / len(timed)
    measured = {"setup_s": setup_s, "wall_s": per_op("wall"),
                "cpu_s": per_op("cpu")}
    wall_scale, cpu_scale = bench.probe.scale()
    wall = measured["wall_s"] * wall_scale
    return {
        "setup_s": setup_s * wall_scale,
        "wall_s": wall,
        "cpu_s": measured["cpu_s"] * cpu_scale,
        "rows_per_s": rows / wall,
        "peak_rss_mb": rss.max_rss_bytes / 2 ** 20,
    }, measured


def per_layer(bench: Bench, items, parse_s: float, tracer):
    """Interleave untraced and traced passes over the first quarter of
    the pool; returns the per-layer metrics (per operation, median over
    traced passes) and whether the traced passes reconciled and
    repeated their counts exactly."""
    from spans import instrument, reconciles

    items = items[:max(1, len(items) // 4)]
    untraced, traced, layer_passes = [], [], []
    start = time.perf_counter()
    ok = True
    while True:
        pair_start = time.perf_counter()
        done = bench.one_pass(items)
        if done is not None:
            untraced.append(done[0])
        first = len(tracer.spans)
        modules = ModuleSpans(tracer, bench.workload.engine_telemetry)
        undo = instrument(tracer)
        try:
            with modules:
                done = bench.one_pass(items, tracer, modules.span)
        finally:
            undo()
        now = time.perf_counter()
        last_pair = now - pair_start
        if done is None:
            if bench.failed > 3:
                return {}, False
            continue
        if not reconciles(tracer.spans, first):
            bench.problems.append("layer self times do not add up to the "
                                  "operation's wall time")
            ok = False
        traced.append(done[0])
        layer_passes.append(layer_metrics(
            bench.workload, tracer, first, done[1], modules.snapshots,
            len(items),
        ))
        if (len(traced) >= 2 and untraced
                and now - start + last_pair > bench.seconds):
            break
    metrics = {}
    for name in PER_LAYER:
        values = [m.get(name, 0.0) for m in layer_passes]
        if name in DETERMINISTIC and len(set(values)) > 1:
            bench.problems.append(f"{name} differs between passes: {values}")
            ok = False
        metrics[name] = _median(values)
    metrics["vadalog.parse_s"] = parse_s
    metrics["trace.op_wall_s"] = _median(traced)
    metrics["trace.overhead_ratio"] = _median(traced) / _median(untraced)
    return metrics, ok


class ModuleSpans:
    """Spans around the chase modules of one traced pass.  With engine
    telemetry on, the engine's own counters are reset before each
    module and snapshotted after it."""

    def __init__(self, tracer, telemetry_on: bool):
        self.tracer = tracer
        self.telemetry_on = telemetry_on
        self.snapshots: List[dict] = []

    def __enter__(self):
        if self.telemetry_on:
            from repro import telemetry

            telemetry.enable()
        return self

    def __exit__(self, *exc_info):
        if self.telemetry_on:
            from repro import telemetry

            telemetry.disable()
            telemetry.reset()
        return False

    @contextmanager
    def span(self, name: str):
        if self.telemetry_on:
            from repro import telemetry

            telemetry.reset()
        with self.tracer.span(name):
            yield
        if self.telemetry_on:
            self.snapshots.append(telemetry.snapshot())


def layer_metrics(workload, tracer, first: int, outputs, snapshots,
                  pool: int) -> Dict[str, float]:
    """Per-operation layer metrics of one traced pass over ``pool``
    items."""
    from spans import END, NAME, START, self_times, span_counts

    spans = tracer.spans
    own = self_times(spans, first)
    calls = span_counts(spans, first)
    counts = tracer.take_counts()
    metrics: Dict[str, float] = {}
    for name, sources in SELF_TIMES.items():
        metrics[name] = sum(own.get(source, 0.0) for source in sources)
    for name, source in CALLS.items():
        metrics[name] = calls.get(source, 0)
    for name in MODULE_TIMES:
        metrics[name] = sum(s[END] - s[START] for s in spans[first:]
                            if s[NAME] == name[:-2])
    for name in TRACER_COUNTS:
        metrics[name] = counts.get(name, 0)
    for output in outputs:
        for name, value in workload.counters(output).items():
            metrics[name] = metrics.get(name, 0) + value
    engine = [engine_counters(snapshot) for snapshot in snapshots]
    for counters in engine:
        for name, value in counters.items():
            metrics[name] = metrics.get(name, 0) + value
    metrics = {name: value / pool for name, value in metrics.items()}
    rechecks = calls.get("cycle.recheck", 0)
    metrics["cycle.recheck_keep_ratio"] = (
        counts.get("cycle.recheck_keeps", 0) / rechecks if rechecks else 0.0
    )
    if engine:
        probes = metrics.pop("store.columnar.probes")
        hits = metrics.pop("store.columnar.probe_hits")
        metrics["store.columnar.probe_hit_ratio"] = (
            hits / probes if probes else 0.0
        )
        metrics["store.estimated_bytes"] = max(
            counters["store.estimated_bytes"] for counters in engine
        )
    return metrics


def engine_counters(snapshot) -> Dict[str, float]:
    """The engine telemetry of one module run, by benchmark name."""
    from repro.telemetry import parse_metric_key

    totals = ("chase.rule_firings", "chase.bindings", "chase.batch_rows",
              "chase.plans_unplannable", "store.composite_probes",
              "store.columnar.probes", "store.columnar.probe_hits")
    out: Dict[str, float] = dict.fromkeys(totals, 0)
    for key, value in snapshot.get("counters", {}).items():
        base, _ = parse_metric_key(key)
        if base in out:
            out[base] += value
    out["store.estimated_bytes"] = snapshot.get("gauges", {}).get(
        "store.estimated_bytes", 0)
    for key, value in snapshot.get("histograms", {}).items():
        base, labels = parse_metric_key(key)
        if base == "chase.match_ns" and labels.get("rule") in RULE_LABELS:
            name = f"chase.match_s.{labels['rule']}"
            out[name] = out.get(name, 0.0) + value["sum"] / 1e9
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.trace:
        tracer = Tracer()
        bench = Bench(workload, args.seconds)
        from spans import instrument

        undo = instrument(tracer)
        try:
            items, _, parse_s = setup_times(workload, seed, tracer=tracer)
        finally:
            undo()
        tracer.take_counts()
        bench.attempt(items[0])  # warm-up: lazy imports and caches
        metrics, ok = per_layer(bench, items, parse_s, tracer)
        tracer.write(str(SPANS_DIR / f"spans-{workload.name}-{seed}.jsonl"))
        units = PER_LAYER
    else:
        bench = Bench(workload, args.seconds, Probe())
        items, setup_s, _ = setup_times(workload, seed, probe=bench.probe)
        bench.attempt(items[0])  # warm-up: lazy imports and caches
        metrics, measured = end_to_end(bench, items, setup_s)
        ok = True
        units = END_TO_END
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    correct = ok and bench.failed == 0 and bool(metrics)
    print(f"{workload.name} seed={seed} trace={args.trace} "
          f"attempted={bench.attempted} failed={bench.failed} "
          f"failed_frac={bench.failed / max(1, bench.attempted):.4f}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics.get(name, 0.0):>16.6g} {unit}")
    if not args.trace:
        for name, value in measured.items():
            print(f"  {name + ' (as measured)':34s} {value:>16.6g} s")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    # String hashing is randomized per process, and the chase's probe
    # counts follow set iteration order.  Pinning the hash seed makes two
    # runs on the same --seed do the same work.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
