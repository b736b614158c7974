"""Risk-measure interface and plug-in registry.

``#risk`` in the anonymization cycle (Algorithm 2) is *polymorphic*:
"Vada-SA features a plug-in mechanism to opt for specific
implementations at runtime".  :class:`RiskMeasure` is that plug-in
contract and :data:`RISK_REGISTRY` the runtime switch; every measure is
registered under the name used in the paper.

A measure returns a :class:`RiskReport` with one score per row in
``[0, 1]``; thresholded measures (k-anonymity, SUDA) return 0/1 scores,
so any threshold ``0 < T < 1`` (the paper uses ``T = 0.5``) separates
safe from risky.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from ..errors import ReproError
from ..model.microdata import MicrodataDB
from ..model.nulls import MAYBE_MATCH, GroupIndex, NullSemantics


class RiskVerdict:
    """One row's threshold comparison, as a first-class value.

    Downstream consumers (the anonymization cycle, the audit ledger,
    the exchange report) used to re-derive "is this risky and why" from
    a bare float; the verdict carries the whole comparison — measure
    name, score, threshold, the boolean outcome and the measure's own
    evidence string — so a decision can be recorded and explained long
    after the report is gone.
    """

    __slots__ = ("measure", "row", "score", "threshold", "risky",
                 "detail", "parameters")

    def __init__(
        self,
        measure: str,
        row: int,
        score: float,
        threshold: float,
        detail: Optional[str] = None,
        parameters: Optional[Dict] = None,
    ):
        self.measure = measure
        self.row = row
        self.score = score
        self.threshold = threshold
        self.risky = score > threshold
        self.detail = detail
        self.parameters = dict(parameters or {})

    def comparison(self) -> str:
        """The threshold comparison as text: ``0.31 > T=0.2``."""
        op = ">" if self.risky else "<="
        return f"{self.score:.6g} {op} T={self.threshold:g}"

    def explain(self) -> str:
        base = (
            f"row {self.row}: {self.measure} risk {self.comparison()}"
        )
        if self.detail:
            base += f" — {self.detail}"
        return base

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form, the shape decision events embed."""
        return {
            "measure": self.measure,
            "row": self.row,
            "score": self.score,
            "threshold": self.threshold,
            "risky": self.risky,
            "detail": self.detail,
            "parameters": {
                str(k): v for k, v in self.parameters.items()
            },
        }

    def __repr__(self):
        return (
            f"RiskVerdict({self.measure}, row={self.row}, "
            f"{self.comparison()})"
        )


class RiskReport:
    """Per-row risk scores plus the context needed to explain them.

    ``detail`` maps a row to the measure's evidence for its score.  It
    is called only for the rows that are explained (:meth:`explain`,
    :meth:`verdict`), so a measure hands over a function of the
    per-row state it already holds instead of formatting every row.
    """

    def __init__(
        self,
        measure: str,
        scores: Sequence[float],
        attributes: Sequence[str],
        detail: Optional[Callable[[int], str]] = None,
        parameters: Optional[Dict] = None,
    ):
        self.measure = measure
        self.scores: List[float] = list(scores)
        self.attributes = list(attributes)
        self.detail = detail
        self.parameters = dict(parameters or {})

    @property
    def details(self) -> Optional[List[str]]:
        """Every row's detail, formatted now (None without ``detail``)."""
        if self.detail is None:
            return None
        return list(map(self.detail, range(len(self.scores))))

    def risky_indices(self, threshold: float) -> List[int]:
        """Rows whose score exceeds the threshold T of Algorithm 2."""
        return [
            index
            for index, score in enumerate(self.scores)
            if score > threshold
        ]

    def max_score(self) -> float:
        return max(self.scores) if self.scores else 0.0

    def mean_score(self) -> float:
        return (
            sum(self.scores) / len(self.scores) if self.scores else 0.0
        )

    def verdict(self, index: int, threshold: float) -> RiskVerdict:
        """The row's threshold comparison as a :class:`RiskVerdict`."""
        return RiskVerdict(
            self.measure,
            index,
            self.scores[index],
            threshold,
            detail=self.detail(index) if self.detail is not None else None,
            parameters=self.parameters,
        )

    def verdicts(self, threshold: float) -> List[RiskVerdict]:
        """Every row's verdict against the given threshold."""
        return [
            self.verdict(index, threshold)
            for index in range(len(self.scores))
        ]

    def explain(self, index: int) -> str:
        """Human-readable motivation for one row's score."""
        base = (
            f"row {index}: {self.measure} risk = {self.scores[index]:.6g} "
            f"over QIs {self.attributes}"
        )
        detail = self.detail(index) if self.detail is not None else None
        if detail:
            base += f" — {detail}"
        return base

    def __len__(self):
        return len(self.scores)

    def __repr__(self):
        return (
            f"RiskReport({self.measure}, {len(self.scores)} rows, "
            f"max={self.max_score():.4g})"
        )


class RiskMeasure:
    """Base class for statistical-disclosure-risk estimators."""

    #: Registry key; subclasses override.
    name = "abstract"

    def assess(
        self,
        db: MicrodataDB,
        semantics: NullSemantics = MAYBE_MATCH,
        attributes: Optional[Sequence[str]] = None,
    ) -> RiskReport:
        """Score every row of the dataset.

        ``attributes`` restricts evaluation to a subset q̂ of the
        quasi-identifiers (Section 2.2: "the ones we suppose the
        attacker is aware of"); None means all quasi-identifiers.
        """
        raise NotImplementedError

    def assess_index(
        self,
        db: MicrodataDB,
        index: GroupIndex,
        semantics: NullSemantics = MAYBE_MATCH,
        attributes: Optional[Sequence[str]] = None,
    ) -> RiskReport:
        """Score every row of ``db`` given a :class:`GroupIndex` kept
        current over it (the anonymization cycle's run index).

        The index must be over ``db``, on the resolved ``attributes``
        and under ``semantics``' null matching.  Measures that can read
        their group statistics from it override this; the base
        implementation is :meth:`assess`.
        """
        self._check_index(db, index, semantics, attributes)
        return self.assess(db, semantics=semantics, attributes=attributes)

    def _check_index(
        self,
        db: MicrodataDB,
        index: GroupIndex,
        semantics: NullSemantics,
        attributes: Optional[Sequence[str]],
    ) -> List[str]:
        """The resolved attributes, once ``index`` is known to be over
        ``db`` on them under ``semantics``."""
        attributes = self._resolve_attributes(db, attributes)
        if index.db is not db:
            raise ReproError(
                f"group index is over {index.db.name!r}, not over the "
                f"assessed {db.name!r}"
            )
        if index.attributes != attributes:
            raise ReproError(
                f"group index is on {index.attributes}, not on the "
                f"assessed attributes {attributes}"
            )
        if index.nulls_match != semantics.nulls_match:
            raise ReproError(
                f"group index does not match nulls as {semantics.name} "
                "semantics does"
            )
        return attributes

    def safe_from_group(
        self, count: int, weight_sum: float, threshold: float
    ) -> Optional[bool]:
        """Decide safety of a tuple from its current =⊥-group count and
        weight sum alone, if the measure supports it.

        Returns True/False when decidable, None when the measure needs
        more than group statistics (e.g. SUDA's MSUs) — in that case
        the anonymization cycle skips its within-iteration recheck.
        """
        return None

    def _resolve_attributes(
        self, db: MicrodataDB, attributes: Optional[Sequence[str]]
    ) -> List[str]:
        if attributes is None:
            return db.quasi_identifiers
        unknown = [a for a in attributes if a not in db.schema.categories]
        if unknown:
            raise ReproError(
                f"unknown risk attributes {unknown} for {db.name!r}"
            )
        return list(attributes)


class GroupRiskMeasure(RiskMeasure):
    """A measure that scores a tuple from its =⊥-group alone: the
    group's count and, when :attr:`weighted`, its Σ W.

    A subclass defines :meth:`score`, :meth:`describe`,
    :meth:`parameters` and :attr:`weighted`; the assessment, the
    live-index assessment and the cycle's recheck all follow from them.
    """

    #: Does :meth:`score` read the group's weight sum?
    weighted = False

    def score(self, count: int, weight_sum: float) -> float:
        """The risk of a tuple whose group has ``count`` members and
        weight sum ``weight_sum`` (0.0 when not :attr:`weighted`)."""
        raise NotImplementedError

    def describe(self, count: int, weight_sum: float) -> str:
        """The evidence for :meth:`score`, as a report's row detail."""
        raise NotImplementedError

    def parameters(self) -> Dict[str, Any]:
        """The report parameters besides the semantics."""
        return {}

    def assess(self, db, semantics=MAYBE_MATCH, attributes=None):
        attributes = self._resolve_attributes(db, attributes)
        counts, weight_sums = semantics.match_aggregate(
            db, attributes, values=db.weights() if self.weighted else None
        )
        return self._report(counts, weight_sums, attributes, semantics)

    def assess_index(self, db, index, semantics=MAYBE_MATCH, attributes=None):
        """An unweighted measure reads the index's current counts.  A
        weighted one assesses afresh: a live index's weight sums are
        not bit-equal to a fresh left-to-right sum."""
        if self.weighted:
            return super().assess_index(db, index, semantics, attributes)
        attributes = self._check_index(db, index, semantics, attributes)
        counts = index.counts()
        return self._report(
            counts, [0.0] * len(counts), attributes, semantics
        )

    def safe_from_group(self, count, weight_sum, threshold):
        return self.score(count, weight_sum) <= threshold

    def _report(self, counts, weight_sums, attributes, semantics):
        describe = self.describe
        return RiskReport(
            self.name,
            list(map(self.score, counts, weight_sums)),
            attributes,
            detail=lambda row: describe(counts[row], weight_sums[row]),
            parameters={**self.parameters(), "semantics": semantics.name},
        )


#: name -> measure class
RISK_REGISTRY: Dict[str, Type[RiskMeasure]] = {}


def register_measure(cls: Type[RiskMeasure]) -> Type[RiskMeasure]:
    """Class decorator adding a measure to the plug-in registry."""
    if cls.name in RISK_REGISTRY:
        raise ReproError(f"risk measure {cls.name!r} already registered")
    RISK_REGISTRY[cls.name] = cls
    return cls


def measure_by_name(name: str, **parameters) -> RiskMeasure:
    """Instantiate a registered measure, passing constructor params."""
    try:
        cls = RISK_REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown risk measure {name!r}; registered: "
            f"{sorted(RISK_REGISTRY)}"
        ) from None
    return cls(**parameters)
