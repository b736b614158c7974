"""Runtime heuristics (Section 4.4).

Two degrees of freedom in the anonymization cycle are resolved by
pluggable heuristics, mirroring Vadalog routing strategies:

* **Which risky tuple first?**  The paper's greedy answer: *less
  significant first* — sort by sampling weight ascending, so the cycle
  erodes statistically marginal tuples before touching relevant ones.
* **Which quasi-identifier of the tuple first?**  *Most risky first* —
  suppress/recode the attribute whose transformation most reduces the
  tuple's disclosure risk (e.g. in Figure 5a, suppressing Sector of
  tuple 1 lifts its frequency to 5, while suppressing Area would leave
  the sample-unique "Textiles" in place).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from ..model.microdata import MicrodataDB
from ..model.nulls import GroupIndex
from ..risk.base import RiskReport

# ---------------------------------------------------------------------------
# Tuple ordering


TupleOrdering = Callable[[MicrodataDB, List[int], RiskReport], List[int]]


def fifo_order(
    db: MicrodataDB, risky: List[int], report: RiskReport
) -> List[int]:
    """Process risky tuples in dataset order."""
    return list(risky)


def less_significant_first(
    db: MicrodataDB, risky: List[int], report: RiskReport
) -> List[int]:
    """Lowest sampling weight first (the paper's default)."""
    return sorted(risky, key=db.weight_of)


def most_risky_tuple_first(
    db: MicrodataDB, risky: List[int], report: RiskReport
) -> List[int]:
    """Highest risk score first (ties broken by weight ascending)."""
    scores = report.scores
    return sorted(risky, key=lambda i: (-scores[i], db.weight_of(i)))


TUPLE_ORDERINGS: Dict[str, TupleOrdering] = {
    "fifo": fifo_order,
    "less-significant-first": less_significant_first,
    "most-risky-first": most_risky_tuple_first,
}


# ---------------------------------------------------------------------------
# Quasi-identifier selection


class QISelection:
    """Chooses which applicable attribute of a risky tuple to act on."""

    name = "abstract"

    def prepare(self, index: GroupIndex, rows: Sequence[int]) -> None:
        """Called once per cycle iteration, before the pass edits
        anything, with the run's grouping index and the rows the pass
        will visit."""

    def select(
        self,
        db: MicrodataDB,
        row: int,
        applicable: Sequence[str],
    ) -> str:
        raise NotImplementedError


class FixedOrderSelection(QISelection):
    """Always pick the first applicable attribute in schema order."""

    name = "fixed-order"

    def select(self, db, row, applicable):
        return applicable[0]


class RandomSelection(QISelection):
    """Uniformly random choice — the ablation baseline."""

    name = "random"

    def __init__(self, seed: int = 0):
        self._random = random.Random(seed)

    def select(self, db, row, applicable):
        return self._random.choice(list(applicable))


class MostRiskyFirstSelection(QISelection):
    """Pick the attribute whose suppression yields the largest
    =⊥-group for the tuple (i.e. reduces its risk the most).

    At the start of each cycle iteration it reads, for every row the
    pass will visit, the leave-one-out match count of each attribute
    from the run's :class:`GroupIndex` — one batched hash join per
    (query mask, data mask) pair instead of a quadratic per-tuple
    simulation.  Every selection in the pass uses these
    iteration-start counts, even after earlier steps of the same pass
    have changed the groups.
    """

    name = "most-risky-first"

    def __init__(self):
        self._counts_without: Dict[str, Dict[int, int]] = {}

    def prepare(self, index, rows):
        self._counts_without = {
            attribute: index.counts_without(attribute, rows)
            for attribute in index.attributes
        }

    def select(self, db, row, applicable):
        best = None
        best_count = -1
        for attribute in applicable:
            counts = self._counts_without.get(attribute)
            count = counts[row] if counts is not None else 0
            if count > best_count:
                best_count = count
                best = attribute
        assert best is not None
        return best


QI_SELECTIONS: Dict[str, Callable[[], QISelection]] = {
    "fixed-order": FixedOrderSelection,
    "random": RandomSelection,
    "most-risky-first": MostRiskyFirstSelection,
}


def tuple_ordering_by_name(name: str) -> TupleOrdering:
    try:
        return TUPLE_ORDERINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown tuple ordering {name!r}; available: "
            f"{sorted(TUPLE_ORDERINGS)}"
        ) from None


def qi_selection_by_name(name: str, **kwargs) -> QISelection:
    try:
        factory = QI_SELECTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown QI selection {name!r}; available: "
            f"{sorted(QI_SELECTIONS)}"
        ) from None
    return factory(**kwargs)
