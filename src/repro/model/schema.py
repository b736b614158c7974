"""Microdata schemas and attribute categories.

Section 2.1 of the paper: a microdata DB is a relation of schema
``M(i, q, a, W)`` where *i* are direct identifiers, *q*
quasi-identifiers, *a* non-identifying attributes, and *W* a sampling
weight.  :class:`AttributeCategory` enumerates the treatments and
:class:`MicrodataSchema` carries one category per attribute.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import SchemaError


class AttributeCategory(enum.Enum):
    """The four attribute treatments of Section 2.1 / Figure 4."""

    IDENTIFIER = "Identifier"
    QUASI_IDENTIFIER = "Quasi-identifier"
    NON_IDENTIFYING = "Non-identifying"
    WEIGHT = "Sampling Weight"

    @classmethod
    def from_label(cls, label: str) -> "AttributeCategory":
        """Parse the textual labels used in the metadata dictionary."""
        normalized = label.strip().lower().replace("_", "-")
        mapping = {
            "identifier": cls.IDENTIFIER,
            "direct identifier": cls.IDENTIFIER,
            "quasi-identifier": cls.QUASI_IDENTIFIER,
            "quasi identifier": cls.QUASI_IDENTIFIER,
            "non-identifying": cls.NON_IDENTIFYING,
            "non identifying": cls.NON_IDENTIFYING,
            "sampling weight": cls.WEIGHT,
            "weight": cls.WEIGHT,
        }
        category = mapping.get(normalized)
        if category is None:
            raise SchemaError(f"unknown attribute category {label!r}")
        return category

    def __str__(self):
        return self.value


class MicrodataSchema:
    """Attribute names, one category each, and optional descriptions."""

    def __init__(
        self,
        attributes: Sequence[str],
        categories: Mapping[str, AttributeCategory],
        descriptions: Optional[Mapping[str, str]] = None,
    ):
        self.attributes: Tuple[str, ...] = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError("duplicate attribute names in schema")
        self.categories: Dict[str, AttributeCategory] = dict(categories)
        self.descriptions: Dict[str, str] = dict(descriptions or {})
        missing = [a for a in self.attributes if a not in self.categories]
        if missing:
            raise SchemaError(
                f"attributes without a category: {', '.join(missing)}"
            )
        unknown = [a for a in self.categories if a not in self.attributes]
        if unknown:
            raise SchemaError(
                f"categories for unknown attributes: {', '.join(unknown)}"
            )
        weights = self.weight_attributes
        if len(weights) > 1:
            raise SchemaError(
                f"multiple sampling-weight attributes: {', '.join(weights)}"
            )
        #: the sampling-weight attribute, or None; resolved once, since
        #: ``MicrodataDB.weight_of`` reads it for every row it weighs
        self.weight_attribute: Optional[str] = weights[0] if weights else None

    # -- category views ---------------------------------------------------

    def of_category(self, category: AttributeCategory) -> List[str]:
        return [
            attribute
            for attribute in self.attributes
            if self.categories[attribute] is category
        ]

    @property
    def identifiers(self) -> List[str]:
        return self.of_category(AttributeCategory.IDENTIFIER)

    @property
    def quasi_identifiers(self) -> List[str]:
        return self.of_category(AttributeCategory.QUASI_IDENTIFIER)

    @property
    def non_identifying(self) -> List[str]:
        return self.of_category(AttributeCategory.NON_IDENTIFYING)

    @property
    def weight_attributes(self) -> List[str]:
        return self.of_category(AttributeCategory.WEIGHT)

    def category_of(self, attribute: str) -> AttributeCategory:
        try:
            return self.categories[attribute]
        except KeyError:
            raise SchemaError(f"unknown attribute {attribute!r}") from None

    # -- derivation --------------------------------------------------------

    def with_categories(
        self, overrides: Mapping[str, AttributeCategory]
    ) -> "MicrodataSchema":
        """A copy with some categories replaced (post-categorization)."""
        categories = dict(self.categories)
        categories.update(overrides)
        return MicrodataSchema(self.attributes, categories, self.descriptions)

    def shared_view(self) -> List[str]:
        """Attributes a recipient sees after the anonymization cycle
        drops direct identifiers (and keeps everything else)."""
        return [
            attribute
            for attribute in self.attributes
            if self.categories[attribute] is not AttributeCategory.IDENTIFIER
        ]

    def __eq__(self, other):
        return (
            isinstance(other, MicrodataSchema)
            and self.attributes == other.attributes
            and self.categories == other.categories
        )

    def __repr__(self):
        parts = ", ".join(
            f"{a}:{self.categories[a].name[0]}" for a in self.attributes
        )
        return f"MicrodataSchema({parts})"


def survey_schema(
    identifiers: Sequence[str] = (),
    quasi_identifiers: Sequence[str] = (),
    non_identifying: Sequence[str] = (),
    weight: Optional[str] = None,
    descriptions: Optional[Mapping[str, str]] = None,
) -> MicrodataSchema:
    """Convenience constructor from per-category attribute lists."""
    attributes: List[str] = (
        list(identifiers) + list(quasi_identifiers) + list(non_identifying)
    )
    categories: Dict[str, AttributeCategory] = {}
    for attribute in identifiers:
        categories[attribute] = AttributeCategory.IDENTIFIER
    for attribute in quasi_identifiers:
        categories[attribute] = AttributeCategory.QUASI_IDENTIFIER
    for attribute in non_identifying:
        categories[attribute] = AttributeCategory.NON_IDENTIFYING
    if weight is not None:
        attributes.append(weight)
        categories[weight] = AttributeCategory.WEIGHT
    return MicrodataSchema(attributes, categories, descriptions)
