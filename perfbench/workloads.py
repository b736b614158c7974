"""The benchmark's workloads: inputs generated from a seed, one
operation each, and the output check every operation is gated on.

Each workload drives the system only through its public entry points:
``VadaSA.assess``/``VadaSA.share`` for the SDC release cycle and
``Program.parse``/``Program.run`` for the chase.  The engine runs at its
defaults; no workload passes an execution-path switch.

The cycle workloads build a *pool* of small datasets from the seed and
cycle through it.  One dataset's cost depends on how many iterations
its anonymization needs (5 to 9 at these sizes), so a pool spreads that
input-to-input variation over several datasets and keeps the per-run
figures steady from one seed to the next.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, NamedTuple

import numpy as np

from repro import VadaSA
from repro.data import generate_dataset, survey_hierarchy
from repro.model import STANDARD
from repro.model.microdata import is_suppressed
from repro.risk import IndividualRisk, KAnonymityRisk, SudaRisk
from repro.risk.base import measure_by_name
from repro.vadalog import Program
from repro.vadalog.atoms import Atom
from repro.vadalog_programs import (
    INDIVIDUAL_RISK,
    K_ANONYMITY,
    SUDA,
    TUPLE_BUILD,
    cycle_registry,
)

DEFAULT_SEED = 20210323


class CheckFailed(Exception):
    """An operation produced an output that fails its check."""


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` dataset seeds derived from the run's seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(value) for value in state]


class CycleOutcome(NamedTuple):
    view: Any  # the shared MicrodataDB
    result: Any  # the CycleResult behind it


class CycleWorkload:
    """assess -> share on a pool of generated microdata DBs."""

    engine_telemetry = False

    def __init__(self, name, why, code, scale, pool, measure, k,
                 method="local-suppression"):
        self.name = name
        self.why = why
        self.code = code
        self.scale = scale
        self.pool = pool
        self.measure = measure
        self.k = k
        self.method = method

    def setup(self, seed: int) -> List[Dict[str, Any]]:
        items = []
        for dataset_seed in sub_seeds(seed, self.pool):
            db = generate_dataset(self.code, seed=dataset_seed,
                                  scale=self.scale)
            if self.method == "recode-then-suppress":
                vada = VadaSA(hierarchy=survey_hierarchy())
            else:
                vada = VadaSA()
            vada.register(db)
            items.append({"vada": vada, "db": db, "verified": None})
        return items

    def rows(self, item) -> int:
        return len(item["db"])

    def operation(self, item, span) -> CycleOutcome:
        vada, name = item["vada"], item["db"].name
        vada.assess(name, measure=self.measure, k=self.k)
        view = vada.share(name, measure=self.measure, k=self.k,
                          method=self.method)
        return CycleOutcome(view, vada.last_result(name))

    def check(self, item, outcome: CycleOutcome) -> None:
        """The share converged (``share`` raises otherwise), the view
        carries no identifier, and a fresh instance of the measure finds
        no tuple above T in it.  Repeats of a dataset must reproduce the
        verified view exactly."""
        rows = _normalized_rows(outcome.view)
        if item["verified"] is not None:
            if rows != item["verified"]:
                raise CheckFailed(
                    f"{self.name}: shared view differs from the verified "
                    "view of the same input"
                )
            return
        vada, db = item["vada"], item["db"]
        leaked = set(db.schema.identifiers) & set(outcome.view.schema.attributes)
        if leaked:
            raise CheckFailed(f"{self.name}: shared view keeps {sorted(leaked)}")
        report = measure_by_name(self.measure, k=self.k).assess(
            outcome.view, semantics=vada.semantics
        )
        risky = report.risky_indices(vada.threshold)
        if risky:
            raise CheckFailed(
                f"{self.name}: {len(risky)} tuple(s) of the shared view "
                f"remain above T={vada.threshold}"
            )
        item["verified"] = rows

    def counters(self, outcome: CycleOutcome) -> Dict[str, float]:
        result = outcome.result
        return {
            "cycle.iterations": result.iterations,
            "cycle.steps": len(result.steps),
            "method.cells_suppressed": result.nulls_injected,
            "method.cells_recoded": result.recoded_cells,
            "cycle.information_loss": result.information_loss,
        }


def _normalized_rows(db) -> List[tuple]:
    attributes = db.schema.attributes
    return [
        tuple(None if is_suppressed(row[a]) else row[a] for a in attributes)
        for row in db.rows
    ]


def _base_facts(db, **params) -> List[Atom]:
    facts = db.to_facts()
    facts.append(Atom.of("anonSet", db.name, frozenset(db.quasi_identifiers)))
    for name, value in params.items():
        facts.append(Atom.of("param", name, value))
    return facts


def _risk_by_row(result, n: int) -> List[float]:
    scores: Dict[int, float] = {}
    for row, risk in result.tuples("riskOutput"):
        scores[row] = max(scores.get(row, 0), risk)
    return [scores.get(row, math.nan) for row in range(n)]


class ChaseWorkload:
    """The shipped risk modules on the chase, at engine defaults."""

    engine_telemetry = True
    #: (span name, module source, which dataset, native plug-in)
    MODULES = (
        ("chase.kanon", TUPLE_BUILD + K_ANONYMITY, "aggregate",
         lambda: KAnonymityRisk(k=2)),
        ("chase.indiv", TUPLE_BUILD + INDIVIDUAL_RISK, "aggregate",
         lambda: IndividualRisk(mode="simple")),
        ("chase.suda", TUPLE_BUILD + SUDA, "suda",
         lambda: SudaRisk(k=3)),
    )

    def __init__(self, name, why, aggregate, suda):
        self.name = name
        self.why = why
        self.aggregate = aggregate  # (code, scale)
        self.suda = suda  # (code, scale)
        self.pool = 1

    def setup(self, seed: int) -> List[Dict[str, Any]]:
        aggregate_seed, suda_seed = sub_seeds(seed, 2)
        dbs = {
            "aggregate": generate_dataset(self.aggregate[0],
                                          seed=aggregate_seed,
                                          scale=self.aggregate[1]),
            "suda": generate_dataset(self.suda[0], seed=suda_seed,
                                     scale=self.suda[1]),
        }
        facts = {
            "aggregate": _base_facts(dbs["aggregate"], k=2),
            "suda": _base_facts(dbs["suda"], suda_k=3),
        }
        modules = [
            (span, Program.parse(source), which)
            for span, source, which, _ in self.MODULES
        ]
        return [{"dbs": dbs, "facts": facts, "modules": modules,
                 "expected": None}]

    def rows(self, item) -> int:
        return sum(len(db) for db in item["dbs"].values())

    def operation(self, item, span) -> List[Any]:
        """``span(name)`` wraps each module's run (a no-op untraced)."""
        results = []
        for name, program, which in item["modules"]:
            externals = cycle_registry()[0] if which == "suda" else None
            with span(name):
                results.append(program.run(item["facts"][which],
                                           externals=externals))
        return results

    def check(self, item, results) -> None:
        """Per-row riskOutput of every module equals its native plug-in
        under standard semantics, up to float rounding."""
        if item["expected"] is None:
            item["expected"] = [
                native().assess(item["dbs"][which], semantics=STANDARD).scores
                for _, _, which, native in self.MODULES
            ]
        for (name, _, which, _), result, expected in zip(
            self.MODULES, results, item["expected"]
        ):
            got = _risk_by_row(result, len(item["dbs"][which]))
            for row, (engine, native) in enumerate(zip(got, expected)):
                if not math.isclose(engine, native, rel_tol=1e-9,
                                    abs_tol=1e-12):
                    raise CheckFailed(
                        f"{name}: row {row} engine risk {engine} != "
                        f"native {native}"
                    )

    def counters(self, results) -> Dict[str, float]:
        stats = [result.stats for result in results]
        return {
            "chase.rounds": sum(s["rounds"] for s in stats),
            "chase.facts": sum(s["facts"] for s in stats),
            "chase.nulls_introduced": sum(s["nulls_introduced"]
                                          for s in stats),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        CycleWorkload(
            "suda_wide",
            "SUDA minimal-sample-unique search over C(9,<=3) QI subsets "
            "dominates; the only workload whose cycle calls SUDA",
            code="R50A9W", scale=400, pool=19, measure="suda", k=3,
        ),
        CycleWorkload(
            "kanon_wide",
            "k-anonymity with suppression: maybe-match grouping over many "
            "null patterns and the linear group recheck dominate",
            code="R50A9W", scale=200, pool=18, measure="k-anonymity", k=2,
        ),
        CycleWorkload(
            "recode_tall",
            "recode-then-suppress on tall 4-QI data: recoding, no nulls, "
            "grouping runs its null-free hash path",
            code="R100A4U", scale=25, pool=4, measure="k-anonymity", k=3,
            method="recode-then-suppress",
        ),
        ChaseWorkload(
            "chase_modules",
            "the shipped k-anonymity, individual-risk and SUDA modules on "
            "the chase; the only workload that enters the engine",
            aggregate=("R100A4U", 60), suda=("R6A4U", 200),
        ),
    )
}
