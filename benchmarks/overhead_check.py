"""Telemetry-disabled overhead gate — used by the CI telemetry-bench
job and runnable locally.

The observability stack promises "effectively free while off".  This
check makes that falsifiable on the Figure 7a anonymization workload:

1. **functional zero-overhead** — a disabled run records no counters,
   no spans and no events;
2. **dormant-machinery overhead** — interleaved best-of-N timing of
   the workload plain vs. with the full export stack constructed but
   telemetry OFF (event log attached to the state, exporters
   imported).  The ratio must stay under the tolerance (default 2%);
3. **enabled overhead** — reported for information, not gated (the
   instrumented path is allowed to cost).

Best-of-N wall times are compared because the minimum is the stable
estimator under scheduler noise.

    PYTHONPATH=src python benchmarks/overhead_check.py
    REPRO_OVERHEAD_TOLERANCE=1.05 python benchmarks/overhead_check.py
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro import telemetry  # noqa: E402
from repro.telemetry.events import EventLog  # noqa: E402

import bench_fig7a_nulls_by_k as fig7a  # noqa: E402

from paperfig import dataset  # noqa: E402

#: disabled-with-machinery / disabled-plain must stay under this.
TOLERANCE = float(os.environ.get("REPRO_OVERHEAD_TOLERANCE", "1.02"))

#: best-of-N repetitions per configuration.
REPEATS = int(os.environ.get("REPRO_OVERHEAD_REPEATS", "5"))


def workload() -> None:
    """One Figure 7a corner (heaviest dataset, both k extremes)."""
    fig7a.nulls_for("R25A4V", 2)
    fig7a.nulls_for("R25A4V", 5)


def timed() -> float:
    start = time.perf_counter()
    workload()
    return time.perf_counter() - start


def best_of(repeats: int) -> float:
    return min(timed() for _ in range(repeats))


def main() -> int:
    # Warm dataset caches and code paths out of the timed region.
    for code in ("R25A4V",):
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
    #    constructed.  The configurations alternate within each round
    #    so clock drift and thermal effects hit both equally.
    dormant_log = EventLog(path=None)
    plain = dormant = float("inf")
    for _ in range(REPEATS):
        plain = min(plain, timed())
        telemetry.state.events = dormant_log  # attached, enabled=False
        try:
            dormant = min(dormant, timed())
        finally:
            telemetry.state.events = None
    dormant_log.close()
    assert len(dormant_log) == 0, (
        "dormant event log received events while telemetry was off"
    )

    ratio = dormant / plain
    print(f"disabled plain:     {plain * 1e3:8.2f} ms (best of "
          f"{REPEATS})")
    print(f"disabled + machinery:{dormant * 1e3:7.2f} ms "
          f"(ratio x{ratio:.4f}, tolerance x{TOLERANCE:g})")

    # 3. Enabled cost, informational.
    telemetry.enable(events=True)
    try:
        enabled = best_of(max(2, REPEATS - 2))
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
