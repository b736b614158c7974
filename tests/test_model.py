"""Model-layer tests: schemas, microdata DBs, oracle, hierarchy,
metadata dictionary."""

import pytest

from repro.errors import HierarchyError, SchemaError
from repro.model import (
    AttributeCategory,
    DomainHierarchy,
    ExperienceBase,
    IdentityOracle,
    MetadataDictionary,
    MicrodataDB,
    MicrodataSchema,
    survey_schema,
)
from repro.vadalog.terms import LabelledNull


class TestAttributeCategory:
    def test_from_label_variants(self):
        c = AttributeCategory
        assert c.from_label("Identifier") is c.IDENTIFIER
        assert c.from_label("quasi-identifier") is c.QUASI_IDENTIFIER
        assert c.from_label("Non-identifying") is c.NON_IDENTIFYING
        assert c.from_label("Sampling Weight") is c.WEIGHT
        assert c.from_label("weight") is c.WEIGHT

    def test_unknown_label_raises(self):
        with pytest.raises(SchemaError):
            AttributeCategory.from_label("mystery")


class TestMicrodataSchema:
    def test_category_views(self, ig_db):
        schema = ig_db.schema
        assert schema.identifiers == ["Id"]
        assert len(schema.quasi_identifiers) == 5
        assert schema.weight_attribute == "Weight"
        assert "Export to DE" in schema.non_identifying

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            MicrodataSchema(
                ["A", "A"],
                {"A": AttributeCategory.QUASI_IDENTIFIER},
            )

    def test_missing_category_rejected(self):
        with pytest.raises(SchemaError):
            MicrodataSchema(["A", "B"],
                            {"A": AttributeCategory.QUASI_IDENTIFIER})

    def test_two_weights_rejected(self):
        with pytest.raises(SchemaError):
            MicrodataSchema(
                ["W1", "W2"],
                {
                    "W1": AttributeCategory.WEIGHT,
                    "W2": AttributeCategory.WEIGHT,
                },
            )

    def test_shared_view_drops_identifiers(self, ig_db):
        shared = ig_db.schema.shared_view()
        assert "Id" not in shared
        assert "Area" in shared

    def test_with_categories_override(self, ig_db):
        updated = ig_db.schema.with_categories(
            {"Export to DE": AttributeCategory.QUASI_IDENTIFIER}
        )
        assert "Export to DE" in updated.quasi_identifiers
        # The original is untouched.
        assert "Export to DE" in ig_db.schema.non_identifying


class TestMicrodataDB:
    def test_row_validation_missing_attribute(self):
        schema = survey_schema(quasi_identifiers=["A"])
        with pytest.raises(SchemaError):
            MicrodataDB("t", schema, [{}])

    def test_row_validation_unknown_attribute(self):
        schema = survey_schema(quasi_identifiers=["A"])
        with pytest.raises(SchemaError):
            MicrodataDB("t", schema, [{"A": 1, "B": 2}])

    @pytest.mark.parametrize("rows, message", [
        (
            [{"A": 1, "B": 2, "W": 1.0}, {"B": 2}],
            "row 1 of 't' misses attribute(s) A, W",
        ),
        (
            [{"W": 1.0, "Z": 0, "A": 1, "Y": 3, "B": 2}],
            "row 0 of 't' has unknown attribute(s) Z, Y",
        ),
        # Missing attributes are reported before unknown ones.
        (
            [{"A": 1, "B": 2, "W": 1.0}, {"Z": 0, "B": 2}],
            "row 1 of 't' misses attribute(s) A, W",
        ),
    ])
    def test_row_validation_messages(self, rows, message):
        schema = survey_schema(quasi_identifiers=["A", "B"], weight="W")
        with pytest.raises(SchemaError) as raised:
            MicrodataDB("t", schema, rows)
        assert str(raised.value) == message

    def test_rows_are_copied(self):
        schema = survey_schema(quasi_identifiers=["A"])
        row = {"A": 1}
        db = MicrodataDB("t", schema, [row])
        row["A"] = 2
        assert db.rows == [{"A": 1}]

    def test_weights(self, ig_db):
        assert ig_db.weight_of(14) == 30.0
        assert ig_db.weight_of(6) == 300.0
        assert len(ig_db.weights()) == 20

    def test_weight_default_when_absent(self, cities_db):
        assert cities_db.weight_of(0) == 1.0

    def test_qi_values(self, ig_db):
        values = ig_db.qi_values(3)
        assert values == ("North", "Textiles", "1000+", "90+", "0-30")

    def test_suppressed_cells_counting(self, cities_db):
        db = cities_db.copy()
        assert db.suppressed_cells() == 0
        db.with_value(0, "Sector", LabelledNull(1))
        assert db.suppressed_cells() == 1
        assert db.suppressed_cells(["Area"]) == 0

    def test_copy_is_deep_for_rows(self, cities_db):
        rows = [dict(row) for row in cities_db.rows]
        clone = cities_db.copy()
        assert (clone.name, clone.schema, clone.rows) == (
            cities_db.name, cities_db.schema, rows
        )
        clone.with_value(0, "Area", "Changed")
        clone.rows.append(dict(rows[0]))
        assert cities_db.rows[0]["Area"] == "Roma"
        assert cities_db.rows == rows

    def test_drop_identifiers(self, ig_db):
        shared = ig_db.drop_identifiers()
        assert "Id" not in shared.schema.attributes
        assert len(shared) == len(ig_db)

    def test_drop_identifiers_matches_a_validated_build(self, ig_db):
        """The shared view equals the DB built from the projected rows
        through the validating constructor, attribute order included,
        and editing it leaves the original alone."""
        kept = ig_db.schema.shared_view()
        expected = MicrodataDB(
            ig_db.name,
            MicrodataSchema(
                kept,
                {a: ig_db.schema.categories[a] for a in kept},
                ig_db.schema.descriptions,
            ),
            [{a: row[a] for a in kept} for row in ig_db.rows],
        )
        shared = ig_db.drop_identifiers()
        assert shared.name == expected.name
        assert shared.schema.attributes == expected.schema.attributes
        assert shared.schema.categories == expected.schema.categories
        assert shared.schema.descriptions == expected.schema.descriptions
        assert [list(row.items()) for row in shared.rows] == [
            list(row.items()) for row in expected.rows
        ]
        before = [dict(row) for row in ig_db.rows]
        shared.with_value(0, "Area", LabelledNull(2))
        assert ig_db.rows == before

    def test_facts_roundtrip(self, cities_db):
        facts = cities_db.to_facts()
        val_tuples = [
            tuple(
                t.value if hasattr(t, "value") else t for t in fact.terms
            )
            for fact in facts
            if fact.predicate == "val"
        ]
        rebuilt = MicrodataDB.from_facts(
            cities_db.name, cities_db.schema, val_tuples
        )
        assert rebuilt.rows == cities_db.rows


class TestIdentityOracle:
    def make_oracle(self):
        rows = [
            {"Id": "1", "Area": "N", "Sector": "T", "Identity": "acme"},
            {"Id": "2", "Area": "N", "Sector": "C", "Identity": "beta"},
            {"Id": "3", "Area": "S", "Sector": "C", "Identity": "gamma"},
        ]
        return IdentityOracle(["Id"], ["Area", "Sector"], "Identity", rows)

    def test_direct_identifier_selects_single_tuple(self):
        oracle = self.make_oracle()
        hits = oracle.match_by_identifier("Id", "2")
        assert len(hits) == 1
        assert hits[0]["Identity"] == "beta"

    def test_non_identifier_join_rejected(self):
        oracle = self.make_oracle()
        with pytest.raises(SchemaError):
            oracle.match_by_identifier("Area", "N")

    def test_qi_join(self):
        oracle = self.make_oracle()
        hits = oracle.match_by_quasi_identifiers({"Area": "N"})
        assert len(hits) == 2

    def test_none_is_wildcard(self):
        oracle = self.make_oracle()
        hits = oracle.match_by_quasi_identifiers(
            {"Area": None, "Sector": "C"}
        )
        assert len(hits) == 2

    def test_full_qi_join_uses_index(self):
        oracle = self.make_oracle()
        hits = oracle.match_by_quasi_identifiers(
            {"Area": "N", "Sector": "T"}
        )
        assert len(hits) == 1

    def test_context_selection(self):
        oracle = self.make_oracle()
        north = oracle.context(lambda row: row["Area"] == "N")
        assert len(north) == 2
        assert oracle.frequency({"Sector": "C"}) == 2

    def test_missing_attribute_rejected(self):
        with pytest.raises(SchemaError):
            IdentityOracle(["Id"], ["Area"], "Identity", [{"Id": "1"}])


class TestDomainHierarchy:
    def test_generalize_city_to_region(self):
        hierarchy = DomainHierarchy.italian_geography()
        assert hierarchy.generalize("Area", "Milano") == "North"
        assert hierarchy.generalize("Area", "Roma") == "Center"
        assert hierarchy.generalize("Area", "North") == "Italy"
        assert hierarchy.generalize("Area", "Italy") is None

    def test_generalization_path(self):
        hierarchy = DomainHierarchy.italian_geography()
        assert hierarchy.generalization_path("Area", "Torino") == [
            "Torino", "North", "Italy",
        ]

    def test_levels(self):
        hierarchy = DomainHierarchy.italian_geography()
        assert hierarchy.level_of("Milano") == 0
        assert hierarchy.level_of("North") == 1
        assert hierarchy.level_of("Italy") == 2

    def test_unknown_value_not_generalizable(self):
        hierarchy = DomainHierarchy.italian_geography()
        assert not hierarchy.can_generalize("Area", "Atlantis")

    def test_type_cycle_rejected(self):
        hierarchy = DomainHierarchy()
        hierarchy.add_subtype("A", "B")
        with pytest.raises(HierarchyError):
            hierarchy.add_subtype("B", "A")

    def test_value_cycle_rejected(self):
        hierarchy = DomainHierarchy()
        hierarchy.add_is_a("x", "y")
        with pytest.raises(HierarchyError):
            hierarchy.add_is_a("y", "x")

    def test_from_intervals(self):
        hierarchy = DomainHierarchy.from_intervals(
            "Rev", [["0-30", "30-60", "60-90", "90+"], ["low", "high"]]
        )
        assert hierarchy.generalize("Rev", "0-30") == "low"
        assert hierarchy.generalize("Rev", "90+") == "high"

    def test_to_facts_shapes(self):
        hierarchy = DomainHierarchy.italian_geography()
        predicates = {f.predicate for f in hierarchy.to_facts()}
        assert predicates == {"typeOf", "subTypeOf", "instOf", "isA"}


class TestMetadataDictionary:
    def test_register_and_categorize(self):
        dictionary = MetadataDictionary()
        dictionary.register("db", [("A", "attr a"), ("B", "attr b")])
        dictionary.set_category("db", "A",
                                AttributeCategory.QUASI_IDENTIFIER)
        with pytest.raises(SchemaError):
            dictionary.categorized_schema("db")  # B uncategorized
        dictionary.set_category("db", "B",
                                AttributeCategory.NON_IDENTIFYING)
        schema = dictionary.categorized_schema("db")
        assert schema.quasi_identifiers == ["A"]

    def test_duplicate_registration_rejected(self):
        dictionary = MetadataDictionary()
        dictionary.register("db", [("A", "")])
        with pytest.raises(SchemaError):
            dictionary.register("db", [("A", "")])

    def test_unknown_attribute_category_rejected(self):
        dictionary = MetadataDictionary()
        dictionary.register("db", [("A", "")])
        with pytest.raises(SchemaError):
            dictionary.set_category("db", "Z",
                                    AttributeCategory.IDENTIFIER)

    def test_register_schema_imports_categories(self, ig_db):
        dictionary = MetadataDictionary()
        dictionary.register_schema(ig_db.name, ig_db.schema)
        assert (
            dictionary.category(ig_db.name, "Id")
            is AttributeCategory.IDENTIFIER
        )

    def test_to_facts(self, ig_db):
        dictionary = MetadataDictionary()
        dictionary.register_schema(ig_db.name, ig_db.schema)
        predicates = {f.predicate for f in dictionary.to_facts()}
        assert predicates == {"microDB", "att", "category"}


class TestExperienceBase:
    def test_know_and_forget(self):
        base = ExperienceBase()
        base.know("Area", AttributeCategory.QUASI_IDENTIFIER)
        assert "Area" in base
        base.forget("Area")
        assert "Area" not in base

    def test_banking_defaults_cover_survey(self):
        base = ExperienceBase.banking_defaults()
        assert base.category_of("Id") is AttributeCategory.IDENTIFIER
        assert (
            base.category_of("Sector")
            is AttributeCategory.QUASI_IDENTIFIER
        )
