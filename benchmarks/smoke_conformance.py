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

A second fixed batch of 200 existential-heavy pairs follows
(``p_existential=0.8``, ``p_multi_head=0.5``: heads with repeated
predicates, atoms without existentials and disconnected existentials),
so the restricted chase's batched image check meets every head shape.
It has the same zero-disagreement and 90%-executed gates.

A third fixed batch of 200 expression-heavy pairs
(``p_assignment=0.8``, ``p_condition=0.5``) gives rules assignment
literals — arithmetic, divisions whose divisor can be zero, ``case``
with a raising branch — so the compiled column evaluator meets masked
and raising rows, checked against the oracle's interpreter (a run both
evaluators fail with the same error type, ``error-match``, agrees).
Same gates.

A fourth fixed batch runs 200 existential-heavy pairs (the second
batch's generator settings, another seed) under
``termination="isomorphic"``, whose per-row image search runs in the
chase's row loop.  Same gates.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.testing import run_conformance  # noqa: E402
from repro.testing.conformance import ConformanceOutcome  # noqa: E402
from repro.testing.generator import GeneratorConfig  # noqa: E402

BASE_SEED = 20260805
EXISTENTIAL_SEED = 20261018
EXISTENTIAL_EXAMPLES = 200
EXISTENTIAL_CONFIG = GeneratorConfig(p_existential=0.8, p_multi_head=0.5)
EXPRESSION_SEED = 20261101
EXPRESSION_EXAMPLES = 200
EXPRESSION_CONFIG = GeneratorConfig(p_assignment=0.8, p_condition=0.5)
ISOMORPHIC_SEED = 20261201
ISOMORPHIC_EXAMPLES = 200

USAGE = (
    "usage: PYTHONPATH=src python benchmarks/smoke_conformance.py "
    "[examples]"
)


def compared(report) -> int:
    """Pairs actually compared: executed minus budget skips."""
    return report.executed - sum(
        report.counts.get(status, 0)
        for status in ConformanceOutcome.SKIP_STATUSES
    )


def run_batch(name, examples, **kwargs):
    """One fixed-seed batch; returns the report, or None (after
    printing every disagreement) when any pair disagrees."""
    report = run_conformance(
        examples=examples, artifact_dir="conformance-artifacts", **kwargs
    )
    print(f"conformance smoke ({name}):", report.summary())
    disagreements = report.disagreements
    if disagreements:
        for outcome in disagreements:
            print(f"seed {outcome.seed} [{outcome.status}]: {outcome.detail}")
        for path in report.artifacts:
            print("artifact:", path)
        return None
    executed = compared(report)
    assert executed >= int(0.9 * examples), (
        f"too many budget skips ({name}): only {executed}/{examples} "
        "pairs actually compared"
    )
    return report


def main() -> int:
    if len(sys.argv) > 2:
        print(USAGE, file=sys.stderr)
        return 2
    examples = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    report = run_batch("default mix", examples, base_seed=BASE_SEED)
    if report is None:
        return 1
    assert report.flow_checked >= int(0.6 * examples), (
        f"leakage cross-check coverage too thin: only "
        f"{report.flow_checked}/{examples} pairs carried sentinel "
        "identifiers and ran the static-vs-dynamic comparison"
    )
    print(
        f"conformance smoke OK: {compared(report)} pairs compared, "
        f"{report.flow_checked} flow-checked, 0 disagreements"
    )
    existential = run_batch(
        "existential-heavy", EXISTENTIAL_EXAMPLES,
        base_seed=EXISTENTIAL_SEED, config=EXISTENTIAL_CONFIG,
    )
    if existential is None:
        return 1
    print(
        f"conformance smoke OK (existential-heavy): "
        f"{compared(existential)} pairs compared, 0 disagreements"
    )
    expression = run_batch(
        "expression-heavy", EXPRESSION_EXAMPLES,
        base_seed=EXPRESSION_SEED, config=EXPRESSION_CONFIG,
    )
    if expression is None:
        return 1
    print(
        f"conformance smoke OK (expression-heavy): "
        f"{compared(expression)} pairs compared, "
        f"{expression.counts.get('error-match', 0)} error-match, "
        "0 disagreements"
    )
    isomorphic = run_batch(
        "isomorphic termination", ISOMORPHIC_EXAMPLES,
        base_seed=ISOMORPHIC_SEED, config=EXISTENTIAL_CONFIG,
        termination="isomorphic",
    )
    if isomorphic is None:
        return 1
    print(
        f"conformance smoke OK (isomorphic termination): "
        f"{compared(isomorphic)} pairs compared, 0 disagreements"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
