"""Composition (multi-release linkage) analysis.

Financial data exchange rarely stops at one release: the same
respondents appear in several shared views (different surveys, periods,
recipients).  Even when each release is safe in isolation, an attacker
holding two releases can *join them on the shared quasi-identifiers*
and narrow candidates — the composition problem.

:func:`composition_links` joins two (possibly anonymized) microdata DBs
on their common quasi-identifiers under maybe-match semantics (a
suppressed cell on either side is a wildcard) and reports, per row of
the first release, how many rows of the second are compatible: each
first-release row probes one :class:`~repro.model.nulls.GroupIndex` of
the second.
:func:`composition_risk` turns that into a per-row score (1/|matches|,
0 when nothing links), and :func:`unique_links` lists the dangerous
one-to-one bridges.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ReproError
from ..model.microdata import MicrodataDB
from ..model.nulls import MAYBE_MATCH, GroupIndex, NullSemantics


def shared_quasi_identifiers(
    first: MicrodataDB, second: MicrodataDB
) -> List[str]:
    """QIs present in both schemas (join attributes)."""
    second_qis = set(second.quasi_identifiers)
    return [a for a in first.quasi_identifiers if a in second_qis]


def composition_links(
    first: MicrodataDB,
    second: MicrodataDB,
    attributes: Optional[Sequence[str]] = None,
    semantics: NullSemantics = MAYBE_MATCH,
) -> List[int]:
    """Per row of ``first``: the number of ``second`` rows compatible
    on the join attributes under the given null semantics (a
    :meth:`GroupIndex.probe` of the second release's index)."""
    if attributes is None:
        attributes = shared_quasi_identifiers(first, second)
    attributes = list(attributes)
    if not attributes:
        raise ReproError(
            "the two releases share no quasi-identifier to join on"
        )
    index = GroupIndex(second, attributes, nulls_match=semantics.nulls_match)
    return [index.probe(row)[0] for row in first.rows]


def composition_risk(
    first: MicrodataDB,
    second: MicrodataDB,
    attributes: Optional[Sequence[str]] = None,
    semantics: NullSemantics = MAYBE_MATCH,
) -> List[float]:
    """1/|compatible second-release rows| per first-release row
    (0 when no row links — nothing to compose)."""
    counts = composition_links(first, second, attributes, semantics)
    return [0.0 if count == 0 else 1.0 / count for count in counts]


def unique_links(
    first: MicrodataDB,
    second: MicrodataDB,
    attributes: Optional[Sequence[str]] = None,
    semantics: NullSemantics = MAYBE_MATCH,
) -> List[int]:
    """Rows of ``first`` that bridge to exactly one row of ``second`` —
    the joins an attacker exploits to stitch releases together."""
    counts = composition_links(first, second, attributes, semantics)
    return [index for index, count in enumerate(counts) if count == 1]
