"""In-memory span tracing around the public functions of each layer.

:func:`instrument` wraps the layer boundaries from outside the program
(the program itself is not edited): each wrapped call records a span
``(name, start, end, parent, op)`` in a :class:`Tracer`.  Spans stay in
memory until :meth:`Tracer.write` dumps them once, when the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Because layer calls nest strictly (one thread, one operation
in flight), the self times of one operation's spans add up to the
operation's own duration; the operation root's self time is the part
no layer span covers (``trace.unattributed_s``).

``nulls.matches_combination`` runs once per row comparison, millions of
times per operation, so it is counted but not spanned: its time stays
in the caller's self time (the SUDA search or the group recheck).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from math import comb
from typing import Callable, Dict, List

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Span recorder plus the per-layer work counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self.op = -1
        #: set by a group recheck, consumed by the safety test after it
        self.after_recheck = False

    def start(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.start(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.start(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def take_counts(self) -> Counter:
        """The counts since the last call; the counter starts again."""
        taken = Counter(self.counts)
        self.counts.clear()
        return taken

    def write(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(
                    {"name": span[NAME], "start": span[START],
                     "end": span[END], "parent": span[PARENT],
                     "op": span[OP]}
                ) + "\n")


def own_times(spans: List[list], first: int = 0) -> List[float]:
    """Self time of each span in ``spans[first:]``, whose parents all
    lie at or after ``first``."""
    own = [span[END] - span[START] for span in spans[first:]]
    for span in spans[first:]:
        if span[PARENT] >= first:
            own[span[PARENT] - first] -= span[END] - span[START]
    return own


def self_times(spans: List[list], first: int = 0) -> Dict[str, float]:
    """Summed self time per span name over ``spans[first:]``."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans[first:], own_times(spans, first)):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    return totals


def reconciles(spans: List[list], first: int = 0,
               tolerance: float = 1e-6) -> bool:
    """Every span lies inside its parent and has a non-negative self
    time, and each root's tree of self times adds up to the root's
    duration: the layers account for the whole operation once."""
    own = own_times(spans, first)
    tree_sum: Dict[int, float] = {}
    root_of: Dict[int, int] = {}
    for offset, span in enumerate(spans[first:]):
        index = first + offset
        parent = span[PARENT]
        if own[offset] < -tolerance:
            return False
        if parent >= first:
            outer = spans[parent]
            if span[START] < outer[START] or span[END] > outer[END]:
                return False
            root_of[index] = root_of[parent]
        else:
            root_of[index] = index
        root = root_of[index]
        tree_sum[root] = tree_sum.get(root, 0.0) + own[offset]
    return all(
        abs(total - (spans[root][END] - spans[root][START])) <= tolerance
        for root, total in tree_sum.items()
    )


def span_counts(spans: List[list], first: int = 0) -> Counter:
    """Calls per span name over ``spans[first:]``; a call made directly
    inside a span of the same name (an override calling its base) is
    part of that call, not another one."""
    return Counter(
        span[NAME] for span in spans[first:]
        if span[PARENT] < first or spans[span[PARENT]][NAME] != span[NAME]
    )


def _subclasses(cls):
    seen, pending = [], [cls]
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.append(current)
            pending.extend(current.__subclasses__())
    return seen


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attribute: str, value) -> None:
        if isinstance(owner, dict):
            previous = owner[attribute]
            owner[attribute] = value
            self._undo.append(lambda: owner.__setitem__(attribute, previous))
        else:
            previous = owner.__dict__[attribute]
            setattr(owner, attribute, value)
            self._undo.append(lambda: setattr(owner, attribute, previous))

    def methods(self, base, names: Dict[str, Callable]) -> None:
        """Wrap ``names`` wherever ``base`` or a subclass defines them."""
        for cls in _subclasses(base):
            for name, make in names.items():
                if name in cls.__dict__:
                    self.set(cls, name, make(cls.__dict__[name]))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that unwraps."""
    import repro.risk  # noqa: F401  (registers every measure)
    import repro.risk.suda as suda
    from repro.anonymize import heuristics
    from repro.anonymize.base import AnonymizationMethod
    from repro.anonymize.cycle import AnonymizationCycle, GroupTracker
    from repro.framework import VadaSA
    from repro.model.microdata import MicrodataDB, is_suppressed
    from repro.model.nulls import NullSemantics
    from repro.risk.base import RiskMeasure
    from repro.vadalog import Program
    from repro.vadalog.chase import ChaseEngine

    patches = _Patches()
    span = tracer.wrap
    counts = tracer.counts

    def spanned(name):
        return lambda function: span(name, function)

    # framework
    patches.methods(VadaSA, {"assess": spanned("framework.assess"),
                             "share": spanned("framework.share")})
    patches.set(MicrodataDB, "drop_identifiers",
                span("framework.shared_view", MicrodataDB.drop_identifiers))

    # risk
    def safety(function):
        @functools.wraps(function)
        def counted(self, *args, **kwargs):
            safe = function(self, *args, **kwargs)
            if tracer.after_recheck:
                tracer.after_recheck = False
                counts["cycle.recheck_keeps"] += bool(safe)
            return safe

        return counted

    patches.methods(RiskMeasure, {"assess": spanned("risk.assess"),
                                  "safe_from_group": safety})
    msu_search = span("risk.suda.msu_search", suda.find_minimal_sample_uniques)

    @functools.wraps(suda.find_minimal_sample_uniques)
    def find_msus(db, attributes, max_size=None, *args, **kwargs):
        msus = msu_search(db, attributes, max_size, *args, **kwargs)
        width = len(attributes)
        top = width if max_size is None else min(max_size, width)
        counts["risk.suda.subsets_scanned"] += sum(
            comb(width, size) for size in range(1, top + 1)
        )
        counts["risk.suda.msus_found"] += sum(len(v) for v in msus.values())
        return msus

    patches.set(suda, "find_minimal_sample_uniques", find_msus)

    # nulls
    def aggregate(function):
        traced = span("nulls.match_aggregate", function)

        @functools.wraps(function)
        def counted(self, db, attributes, values):
            with tracer.span("trace.bookkeeping"):
                names = (list(attributes) if attributes is not None
                         else db.quasi_identifiers)
                counts["nulls.null_patterns"] += len({
                    tuple(a for a in names if is_suppressed(row[a]))
                    for row in db.rows
                })
            return traced(self, db, attributes, values)

        return counted

    def comparison(function):
        @functools.wraps(function)
        def counted(self, row, combination):
            counts["nulls.row_comparisons"] += 1
            return function(self, row, combination)

        return counted

    patches.methods(NullSemantics, {
        "match_aggregate": aggregate,
        "match_counts": spanned("nulls.match_counts"),
        "matches_combination": comparison,
    })

    # heuristics
    patches.methods(heuristics.QISelection, {
        "prepare": spanned("heuristics.prepare"),
        "select": spanned("heuristics.select"),
    })
    for name, ordering in list(heuristics.TUPLE_ORDERINGS.items()):
        patches.set(heuristics.TUPLE_ORDERINGS, name,
                    span("heuristics.order", ordering))

    # cycle
    patches.set(AnonymizationCycle, "run",
                span("cycle.run", AnonymizationCycle.run))
    patches.set(GroupTracker, "__init__",
                span("cycle.tracker_build", GroupTracker.__init__))
    recheck = span("cycle.recheck", GroupTracker.stats)

    @functools.wraps(GroupTracker.stats)
    def stats(self, index):
        result = recheck(self, index)
        tracer.after_recheck = True
        return result

    patches.set(GroupTracker, "stats", stats)

    # method
    patches.methods(AnonymizationMethod, {
        "apply": spanned("method.apply"),
        "applicable_attributes": spanned("method.applicable"),
    })

    # vadalog
    parse = Program.__dict__["parse"].__func__
    patches.set(Program, "parse", classmethod(span("vadalog.parse", parse)))
    patches.set(Program, "preflight",
                span("vadalog.preflight", Program.preflight))
    patches.set(ChaseEngine, "run", span("vadalog.engine", ChaseEngine.run))

    return patches.undo
