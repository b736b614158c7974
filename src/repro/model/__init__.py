"""repro.model — microdata model: schemas, datasets, oracle, nulls,
metadata dictionary and domain hierarchies."""

from .hierarchy import DomainHierarchy
from .metadata import AttributeEntry, ExperienceBase, MetadataDictionary
from .microdata import MicrodataDB, is_suppressed
from .nulls import (
    MAYBE_MATCH,
    GroupIndex,
    STANDARD,
    MaybeMatchSemantics,
    NullSemantics,
    StandardSemantics,
    semantics_by_name,
)
from .oracle import IdentityOracle
from .schema import AttributeCategory, MicrodataSchema, survey_schema

__all__ = [
    "AttributeCategory",
    "AttributeEntry",
    "DomainHierarchy",
    "ExperienceBase",
    "GroupIndex",
    "IdentityOracle",
    "MAYBE_MATCH",
    "MaybeMatchSemantics",
    "MetadataDictionary",
    "MicrodataDB",
    "MicrodataSchema",
    "NullSemantics",
    "STANDARD",
    "StandardSemantics",
    "is_suppressed",
    "semantics_by_name",
    "survey_schema",
]
