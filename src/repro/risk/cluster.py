"""Cluster (business-knowledge) risk combination — Section 4.4.

Statistical disclosure risk propagates along linked entities: if
re-identifying one company of a control group makes the others easy to
re-identify, every member of the cluster carries the probability that
*at least one* member is re-identified:

    R_cluster = 1 − Π_c (1 − ρ_c)

This module combines a base :class:`~repro.risk.base.RiskReport` with a
clustering of rows (from :mod:`repro.business.ownership` or any other
link source) into the enhanced per-row risk used by Algorithm 9.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set

from ..errors import ReproError
from .base import RiskReport


def combined_cluster_risk(risks: Iterable[float]) -> float:
    """1 − Π(1 − ρ) over the member risks, clipped to [0, 1]."""
    survival = 1.0
    for risk in risks:
        risk = min(1.0, max(0.0, risk))
        survival *= 1.0 - risk
    return 1.0 - survival


def propagate_over_clusters(
    report: RiskReport,
    clusters: Sequence[Set[int]],
) -> RiskReport:
    """Lift a per-row report to cluster-level risk.

    ``clusters`` is a list of disjoint row-index sets; rows absent from
    every cluster keep their own risk (singleton semantics, since
    rel(X, X) holds).
    """
    n = len(report.scores)
    assigned: Dict[int, int] = {}
    for cluster_id, members in enumerate(clusters):
        for index in members:
            if index < 0 or index >= n:
                raise ReproError(
                    f"cluster member {index} outside dataset of size {n}"
                )
            if index in assigned:
                raise ReproError(
                    f"row {index} belongs to two clusters "
                    f"({assigned[index]} and {cluster_id})"
                )
            assigned[index] = cluster_id

    scores = list(report.scores)
    notes: Dict[int, str] = {}
    for cluster_id, members in enumerate(clusters):
        if len(members) < 2:
            continue
        combined = combined_cluster_risk(
            report.scores[index] for index in members
        )
        for index in members:
            scores[index] = combined
            notes[index] = (
                f"cluster of {len(members)} linked entities: combined "
                f"risk {combined:.6g} (own {report.scores[index]:.6g})"
            )
    base = report.detail

    def detail(row: int) -> str:
        return notes.get(row) or (base(row) if base is not None else "")

    parameters = dict(report.parameters)
    parameters["clusters"] = len(clusters)
    return RiskReport(
        f"{report.measure}+clusters",
        scores,
        report.attributes,
        detail=detail,
        parameters=parameters,
    )
