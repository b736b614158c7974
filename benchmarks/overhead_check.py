"""Telemetry-disabled overhead gate — used by the CI telemetry-bench
job and runnable locally.

The observability stack promises "effectively free while off".  This
check makes that falsifiable on the Figure 7a anonymization workload:

1. **functional zero-overhead** — a disabled run records no counters,
   no spans and no events;
2. **dormant-machinery overhead** — interleaved timing of the workload
   plain vs. with the full export stack constructed but telemetry OFF
   (event log attached to the state, exporters imported).  The ratio
   must stay under the tolerance (default 2%);
3. **enabled overhead** — reported for information, not gated (the
   instrumented path is allowed to cost).

A round runs every corner of the Figure 7a grid (each dataset,
k = 2..5) twice under each configuration, about 200 ms per
configuration.  Each corner runs plain and dormant back to back, and
which one goes first alternates by corner and by round, so a slow or
fast phase of a shared machine hits both configurations alike.  A
round starts after a full collection and runs with the cyclic
collector paused: a full collection lands in some runs and not others
and moves a run by up to 50%, which is the heap's doing, not
telemetry's.  A configuration's time is the sum over corners of each
corner's fastest run, the minimum being the stable estimator under
scheduler noise.

    PYTHONPATH=src python benchmarks/overhead_check.py
    REPRO_OVERHEAD_TOLERANCE=1.05 python benchmarks/overhead_check.py
"""

import gc
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).parent))

from repro import telemetry  # noqa: E402
from repro.telemetry.events import EventLog  # noqa: E402

import bench_fig7a_nulls_by_k as fig7a  # noqa: E402

from paperfig import dataset  # noqa: E402

#: disabled-with-machinery / disabled-plain must stay under this.
TOLERANCE = float(os.environ.get("REPRO_OVERHEAD_TOLERANCE", "1.02"))

#: Interleaved rounds: timed runs of each corner per configuration.
REPEATS = int(os.environ.get("REPRO_OVERHEAD_REPEATS", "9"))

#: Every corner of the Figure 7a grid, twice per round.
CORNERS = [
    (code, k) for code in fig7a.DATASETS for k in fig7a.K_VALUES
] * 2


def workload() -> None:
    """The Figure 7a grid, twice over."""
    for code, k in CORNERS:
        fig7a.nulls_for(code, k)


def timed_round(
    round_: int, events: List[Optional[EventLog]]
) -> List[List[float]]:
    """Seconds per corner under each of ``events`` (the event log to
    attach to the disabled telemetry state), collector paused.  The
    configurations run back to back per corner, starting with a
    different one at each corner and round."""
    seconds: List[List[float]] = [[] for _ in events]
    configs = list(range(len(events)))
    gc.collect()
    gc.disable()
    try:
        for corner, (code, k) in enumerate(CORNERS):
            first = (round_ + corner) % len(configs)
            for config in configs[first:] + configs[:first]:
                telemetry.state.events = events[config]
                try:
                    start = time.perf_counter()
                    fig7a.nulls_for(code, k)
                    seconds[config].append(time.perf_counter() - start)
                finally:
                    telemetry.state.events = None
    finally:
        gc.enable()
    return seconds


def fastest(rounds: List[List[float]]) -> float:
    """The sum over corners of each corner's fastest time."""
    return sum(map(min, zip(*rounds)))


def main() -> int:
    # Warm dataset caches and code paths out of the timed region.
    for code in fig7a.DATASETS:
        dataset(code)
    workload()

    # 1. Functional zero-overhead while disabled.
    telemetry.disable()
    telemetry.reset()
    workload()
    snapshot = telemetry.snapshot()
    assert snapshot["counters"] == {}, (
        f"disabled run recorded counters: {snapshot['counters']}"
    )
    assert telemetry.tracer().spans() == [], (
        "disabled run recorded spans"
    )
    assert telemetry.events() is None, (
        "disabled state carries an event log"
    )

    # 2. Timing: plain-disabled vs disabled with the export machinery
    #    constructed (the event log attached, telemetry still off).
    dormant_log = EventLog(path=None)
    rounds = [timed_round(r, [None, dormant_log]) for r in range(REPEATS)]
    plain = fastest([timed[0] for timed in rounds])
    dormant = fastest([timed[1] for timed in rounds])
    dormant_log.close()
    assert len(dormant_log) == 0, (
        "dormant event log received events while telemetry was off"
    )

    ratio = dormant / plain
    print(f"disabled plain:     {plain * 1e3:8.2f} ms (fastest per "
          f"corner over {REPEATS} rounds)")
    print(f"disabled + machinery:{dormant * 1e3:7.2f} ms "
          f"(ratio x{ratio:.4f}, tolerance x{TOLERANCE:g})")

    # 3. Enabled cost, informational.
    telemetry.enable(events=True)
    try:
        enabled = fastest([timed_round(r, [None])[0] for r in range(3)])
    finally:
        telemetry.disable()
        telemetry.reset()
    print(f"enabled (info only): {enabled * 1e3:7.2f} ms "
          f"(x{enabled / plain:.3f} vs disabled)")

    if ratio > TOLERANCE:
        print(f"FAIL: dormant telemetry machinery costs "
              f"x{ratio:.4f} > x{TOLERANCE:g}", file=sys.stderr)
        return 1
    print("overhead check OK: telemetry-disabled path within noise")
    return 0


if __name__ == "__main__":
    sys.exit(main())
