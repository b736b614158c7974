"""repro.vadalog_programs — the paper's Algorithms 1-9 shipped as
Vadalog source modules, plus the external libraries backing them."""

from .externals import (
    CycleState,
    cycle_registry,
    similar_external,
)
from .programs import (
    ANONYMIZATION_CYCLE,
    CATEGORIZATION,
    CLUSTER_RISK,
    GLOBAL_RECODING,
    INDIVIDUAL_RISK,
    K_ANONYMITY,
    L_DIVERSITY,
    LOCAL_SUPPRESSION,
    OWNERSHIP_CONTROL,
    PROGRAMS,
    REIDENTIFICATION,
    SUDA,
    TUPLE_BUILD,
    program_source,
)

__all__ = [
    "ANONYMIZATION_CYCLE",
    "CATEGORIZATION",
    "CLUSTER_RISK",
    "CycleState",
    "GLOBAL_RECODING",
    "INDIVIDUAL_RISK",
    "K_ANONYMITY",
    "L_DIVERSITY",
    "LOCAL_SUPPRESSION",
    "OWNERSHIP_CONTROL",
    "PROGRAMS",
    "REIDENTIFICATION",
    "SUDA",
    "TUPLE_BUILD",
    "cycle_registry",
    "program_source",
    "similar_external",
]
