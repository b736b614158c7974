"""The paper's Algorithms 1-9 as Vadalog source text.

These programs run on the :mod:`repro.vadalog` engine and are the
declarative fidelity path of the reproduction; the native executors in
:mod:`repro.risk` / :mod:`repro.anonymize` are the scaled plug-in path
(the paper itself plugs ``#risk`` / ``#anonymize`` as external library
atoms).  Equivalence between the two paths is asserted by the test
suite on the survey fixtures.

Transcription notes (documented deviations from the paper's listings):

* Variable-arity ``TupleA(R, *VSet[AnonSet])`` packing/unpacking is
  modeled with set-valued terms: ``Q = project(VSet, ASet)`` groups by
  the projected name-value set, which is value-equivalent to grouping
  by the unpacked terms.
* Algorithm 6's Rules 3-4 as printed add the new attribute to the *old*
  combination and copy members from the new combination into the old
  one; we transcribe the evidently intended direction (the new
  combination extends the old one with the attribute).
* Algorithm 6's ``not In(A, Z1)`` negates a predicate inside its own
  recursive component, which no stratification allows.  The module
  declares ``@operational_negation("in")`` and keeps the literal as
  printed: like the Vadalog system's operational reading, the chase
  checks it against the live store, as an absence check in suda-3's
  plans (see :func:`repro.vadalog.plans.absence_exact` for why the
  check at the start of each rule application is exact here).
* Engine-side aggregation groups labelled nulls by label (standard
  Skolem semantics).  The maybe-match =⊥ grouping of Section 4.3 lives
  in the native path (:mod:`repro.model.nulls`); Figure 7c contrasts
  the two.
"""

from __future__ import annotations

from typing import Dict

#: Algorithm 1 — attribute categorization by recursive experience.
CATEGORIZATION = """
@input("att").
@input("expBase").
@output("cat").

% Attribute *names* and categories are metadata, not row values.
@category("att", 1, "public").
@category("expBase", 0, "public").

% Rule 1: every attribute gets some category (existential).
@label("cat-1").
att(M, A, _D) -> exists(C) cat(M, A, C).

% Rule 2: borrow the category of a sufficiently similar known attribute.
@label("cat-2").
att(M, A, _D), expBase(A1, C), #similar(A, A1) -> cat(M, A, C).

% Rule 3: consolidate decisions back into the experience base.
@label("cat-3").
cat(_M, A, C) -> expBase(A, C).

% Rule 4 (EGD): one category per attribute; constant clashes surface
% as violations for human inspection.
@label("cat-4").
C1 = C2 :- cat(M, A, C1), cat(M, A, C2).
"""

#: Algorithm 2, Rule 1 — build Tuple facts from the metadata
#: dictionary (quasi-identifiers and the sampling weight only;
#: identifiers are implicitly dropped).
TUPLE_BUILD = """
@input("val").
@input("category").
@output("tuple").

% The row handle I is a linkage quasi-identifier; the value position V
% may carry identifier-category values before the category filter.
@category("val", 1, "qi").
@category("val", 3, "identifier").

% The C in [...] guard keeps identifier-category attributes out of
% VSet, but that filter is value-level and invisible to the position
% analysis, which must assume V's worst category reaches the head.
@lint_ignore("VDL070", "the category filter excludes identifier-category attributes from VSet; the guard is value-level, below the position analysis' resolution").
@lint_ignore("VDL071", "tuple is the pipeline's internal hand-off, not a release; its consumers gate publication on #risk").

@label("tuple-build").
val(M, I, A, V), category(M, A, C),
    C in ["Quasi-identifier", "Sampling Weight"],
    VSet = munion((A, V), <A>) -> tuple(M, I, VSet).
"""

#: Algorithm 2, Rules 2-3 — the cycle trigger: risky tuples are handed
#: to the #anonymize external (which injects replacement val facts,
#: re-entering Rule 1); safe tuples are copied to tupleA.
ANONYMIZATION_CYCLE = """
@input("tuple").
@input("param").
@output("anonymized").
@output("tupleA").

@category("tuple", 1, "qi").
@category("tuple", 2, "qi").

@label("cycle-anonymize").
tuple(M, I, _VSet), #risk(I, R), param("T", T), R > T,
    #anonymize(M, I) -> anonymized(M, I).

@label("cycle-accept").
tuple(M, I, VSet), #risk(I, R), param("T", T), R <= T
    -> tupleA(M, I, VSet).
"""

#: Algorithm 3 — re-identification-based risk evaluation.
REIDENTIFICATION = """
@input("tuple").
@input("category").
@input("anonSet").
@output("riskOutput").

@category("tuple", 1, "qi").
@category("tuple", 2, "qi").

@label("reid-1").
tuple(M, I, VSet), category(M, W, "Sampling Weight"), anonSet(M, ASet),
    Q = project(VSet, ASet), WV = get(VSet, W),
    S = msum(WV, <I>) -> tupleWeights(Q, S).

@label("reid-2").
tuple(M, I, VSet), anonSet(M, ASet), Q = project(VSet, ASet),
    tupleWeights(Q, S), R = 1 / S -> riskOutput(I, R).
"""

#: Algorithm 4 — k-anonymity (k supplied as a param fact).
K_ANONYMITY = """
@input("tuple").
@input("anonSet").
@input("param").
@output("riskOutput").

@category("tuple", 1, "qi").
@category("tuple", 2, "qi").

@label("kanon-1").
tuple(M, I, VSet), anonSet(M, ASet), Q = project(VSet, ASet),
    F = mcount(<I>) -> tupleFreq(Q, F).

@label("kanon-2").
tuple(M, I, VSet), anonSet(M, ASet), Q = project(VSet, ASet),
    tupleFreq(Q, F), param("k", K),
    R = case F < K then 1 else 0 -> riskOutput(I, R).
"""

#: Algorithm 5 — individual risk (simple posterior shortcut F/Sum W).
INDIVIDUAL_RISK = """
@input("tuple").
@input("category").
@input("anonSet").
@output("riskOutput").

@category("tuple", 1, "qi").
@category("tuple", 2, "qi").

@label("ind-1").
tuple(M, I, VSet), category(M, W, "Sampling Weight"), anonSet(M, ASet),
    Q = project(VSet, ASet), WV = get(VSet, W),
    F = mcount(<I>), S = msum(WV, <I>) -> tupleStats(Q, F, S).

@label("ind-2").
tuple(M, I, VSet), anonSet(M, ASet), Q = project(VSet, ASet),
    tupleStats(Q, F, S), R = F / S -> riskOutput(I, R).
"""

#: Extension — l-diversity: a tuple is dangerous when its group over
#: the anonSet projection carries fewer than l distinct values of the
#: sensitive attribute (named by a param fact).
L_DIVERSITY = """
@input("param").
@input("val").
@input("tuple").
@input("anonSet").
@output("riskOutput").

@category("val", 1, "qi").
@category("val", 3, "sensitive").
@category("tuple", 1, "qi").
@category("tuple", 2, "qi").

@label("ldiv-sensitive").
param("sensitive", A), val(M, I, A, S) -> sensVal(M, I, S).

@label("ldiv-count").
tuple(M, I, VSet), anonSet(M, ASet), sensVal(M, I, S),
    Q = project(VSet, ASet), D = mcount(<S>) -> qDiversity(Q, D).

@label("ldiv-risk").
tuple(M, I, VSet), anonSet(M, ASet), Q = project(VSet, ASet),
    qDiversity(Q, D), param("l", L),
    R = case D < L then 1 else 0 -> riskOutput(I, R).
"""

#: Algorithm 6 — SUDA: minimal sample unique detection.
SUDA = """
@input("tuple").
@input("category").
@input("param").
@output("riskOutput").

@category("tuple", 1, "qi").
@category("tuple", 2, "qi").

% SUDA's combination lattice is deliberately outside the warded
% fragment: rules 4/5/7a join the combination nulls invented by rules
% 2/3, so the nulls have no single ward.  The chase still terminates
% because the attribute sets are finite; see the transcription notes.
@lint_ignore("VDL020", "combination nulls are joined by design; termination is guaranteed by the finite quasi-identifier lattice").
@lint_ignore("VDL021", "combination identifiers are labelled nulls shared across atoms by construction").

% Rule 3 negates in/2 inside its own recursive component, as the paper
% prints it: read operationally, against the live store.
@operational_negation("in").

% Rule 1: focus on input tuples.
@label("suda-1").
tuple(M, I, VSet) -> tupleI(M, I, VSet).

% Rule 2: a singleton combination per quasi-identifier.
@label("suda-2").
tupleI(M, I, _VSet), category(M, A, "Quasi-identifier")
    -> exists(Z) comb(Z, I), in(A, Z).

% Rule 3: extend a combination with a quasi-identifier not yet in it.
@label("suda-3").
comb(Z1, I), tupleI(M, I, _VSet), category(M, A, "Quasi-identifier"),
    not in(A, Z1) -> exists(Z) comb(Z, I), inComb(Z, Z1), in(A, Z).

% Rule 4: the new combination inherits the old one's members.
@label("suda-4").
inComb(Z, Z1), in(A, Z1) -> in(A, Z).

% Rule 5: materialize each combination's attribute set.
@label("suda-5").
comb(Z, I), in(A, Z), ASet = munion(A, <A>) -> combSet(Z, I, ASet).

% Rule 5b: project the tuple onto the combination.
@label("suda-5b").
combSet(_Z, I, ASet), tupleI(_M, I, VSet),
    Q = project(VSet, ASet) -> tupleC(I, Q).

% Rule 6: sample uniques — combinations matched by exactly one tuple.
@label("suda-6a").
tupleC(I, Q), U = mcount(<I>) -> qFreq(Q, U).

@label("suda-6b").
tupleC(I, Q), qFreq(Q, U), U == 1 -> exists(S) su(S, Q), hasSu(I, S).

% Rule 7: minimality — no strictly smaller sample unique for the tuple.
@label("suda-7a").
hasSu(I, S), su(S, Q), hasSu(I, S1), su(S1, Q1),
    subset(Q1, Q) -> notMinimal(I, S).

@label("suda-7b").
hasSu(I, S), not notMinimal(I, S) -> msu(I, S).

% Rule 8: dangerous when an MSU is smaller than the threshold k.
@label("suda-8a").
msu(I, S), su(S, Q), param("suda_k", K), size(Q) < K -> dangerous(I).

@label("suda-8b").
dangerous(I) -> riskOutput(I, 1).

@label("suda-8c").
tupleI(_M, I, _VSet), not dangerous(I) -> riskOutput(I, 0).
"""

#: Algorithm 7 — local suppression (the #suppress external injects the
#: labelled null and returns the rewritten tuple as new val facts).
LOCAL_SUPPRESSION = """
@input("tuple").
@input("anonymize").
@input("category").
@output("suppressed").

@category("tuple", 1, "qi").
@category("tuple", 2, "qi").

@label("suppress").
tuple(M, I, VSet), anonymize(M, I), category(M, A, "Quasi-identifier"),
    V = get(VSet, A), not is_null(V),
    #suppress(M, I, A) -> suppressed(M, I, A).
"""

#: Algorithm 8 — global recoding over the domain hierarchy.
GLOBAL_RECODING = """
@input("tuple").
@input("anonymize").
@input("category").
@input("typeOf").
@input("subTypeOf").
@input("isA").
@input("instOf").
@output("recoded").

@category("tuple", 1, "qi").
@category("tuple", 2, "qi").

@label("recode").
tuple(M, I, VSet), anonymize(M, I), category(M, A, "Quasi-identifier"),
    typeOf(A, X), subTypeOf(X, Y), V = get(VSet, A),
    isA(V, Z), instOf(Z, Y),
    #recode(M, I, A, Z) -> recoded(M, I, A, Z).
"""

#: Section 4.4 — company control (with the reflexivity the paper
#: assumes, so X's own shares count toward its bloc's joint holdings).
OWNERSHIP_CONTROL = """
@input("own").
@output("rel").

% Shareholding structures are public registry data.
@category("own", 0, "public").
@category("own", 1, "public").
@category("own", 2, "public").

@label("own-reflexive").
own(X, _Y, _W) -> rel(X, X).

@label("own-direct").
own(X, Y, W), W > 0.5 -> rel(X, Y).

@label("own-joint").
rel(X, Z), own(Z, Y, W), msum(W, <Z>) > 0.5 -> rel(X, Y).
"""

#: Algorithm 9, Rule 2 — cluster risk combination via the monotonic
#: product: R_cluster = 1 - prod(1 - R) over linked tuples.
CLUSTER_RISK = """
@input("relRow").
@input("riskOutput").
@output("clusterRisk").

@category("relRow", 0, "qi").
@category("relRow", 1, "qi").

@label("cluster-risk").
relRow(I1, I2), riskOutput(I2, R),
    P = mprod(1 - R, <I2>) -> clusterSurvival(I1, P).

@label("cluster-risk-out").
clusterSurvival(I1, P), RC = 1 - P -> clusterRisk(I1, RC).
"""

#: Registry of all shipped modules by name.
PROGRAMS: Dict[str, str] = {
    "categorization": CATEGORIZATION,
    "tuple-build": TUPLE_BUILD,
    "anonymization-cycle": ANONYMIZATION_CYCLE,
    "reidentification": REIDENTIFICATION,
    "k-anonymity": K_ANONYMITY,
    "individual-risk": INDIVIDUAL_RISK,
    "l-diversity": L_DIVERSITY,
    "suda": SUDA,
    "local-suppression": LOCAL_SUPPRESSION,
    "global-recoding": GLOBAL_RECODING,
    "ownership-control": OWNERSHIP_CONTROL,
    "cluster-risk": CLUSTER_RISK,
}


def program_source(name: str) -> str:
    """Fetch a shipped module's Vadalog source by name."""
    try:
        return PROGRAMS[name]
    except KeyError:
        raise KeyError(
            f"unknown Vadalog module {name!r}; shipped: {sorted(PROGRAMS)}"
        ) from None
