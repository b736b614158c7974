"""Conformance smoke check — used by the CI conformance lane and
runnable locally.

Runs a fixed-seed batch of generated warded programs through the chase
engine AND the naive reference oracle, asserting zero disagreements up
to null isomorphism.  More than one argument is a usage error (exit
status 2):

    PYTHONPATH=src python benchmarks/smoke_conformance.py [examples]

Exits non-zero if any pair disagrees; the failing seeds are minimized
and written as replayable artifacts under ``conformance-artifacts/``.
Disagreements include the static analyzer's view: a generated program
the analyzer rejects (``analyzer-dirty``) or one it accepts that the
engine's own static checks refuse (``analyzer-engine-disagree``) both
fail the gate — as does a program the static leakage pass calls clean
that dynamically discloses a sentinel identifier (``flow-disagree``).
The run also asserts the leakage cross-check got real coverage: at
least 60% of the pairs must carry the sensitivity-seeding substrate
(sentinel identifiers + ``@output`` marks) and run the check.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.testing import run_conformance  # noqa: E402
from repro.testing.conformance import ConformanceOutcome  # noqa: E402

BASE_SEED = 20260805

USAGE = (
    "usage: PYTHONPATH=src python benchmarks/smoke_conformance.py "
    "[examples]"
)


def main() -> int:
    if len(sys.argv) > 2:
        print(USAGE, file=sys.stderr)
        return 2
    examples = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    report = run_conformance(
        base_seed=BASE_SEED,
        examples=examples,
        artifact_dir="conformance-artifacts",
    )
    print("conformance smoke:", report.summary())
    disagreements = report.disagreements
    if disagreements:
        for outcome in disagreements:
            print(f"seed {outcome.seed} [{outcome.status}]: {outcome.detail}")
        for path in report.artifacts:
            print("artifact:", path)
        return 1
    skipped = sum(
        report.counts.get(status, 0)
        for status in ConformanceOutcome.SKIP_STATUSES
    )
    executed = report.executed - skipped
    assert executed >= int(0.9 * examples), (
        f"too many budget skips: only {executed}/{examples} pairs "
        "actually compared"
    )
    assert report.flow_checked >= int(0.6 * examples), (
        f"leakage cross-check coverage too thin: only "
        f"{report.flow_checked}/{examples} pairs carried sentinel "
        "identifiers and ran the static-vs-dynamic comparison"
    )
    print(
        f"conformance smoke OK: {executed} pairs compared, "
        f"{report.flow_checked} flow-checked, 0 disagreements"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
