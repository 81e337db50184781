"""Tests for relations and databases."""

import pytest

from repro.relational import Database, Relation, RelationSchema
from repro.relational.errors import IntegrityError, SchemaError, UnknownRelationError


@pytest.fixture
def poi_relation() -> Relation:
    schema = RelationSchema("poi", ["name", "kind", "price"])
    return Relation(schema, [("met", "museum", 25), ("high_line", "park", 0)])


class TestRelation:
    def test_len_and_contains(self, poi_relation: Relation):
        assert len(poi_relation) == 2
        assert ("met", "museum", 25) in poi_relation
        assert ("met", "museum", 99) not in poi_relation

    def test_contains_wrong_arity_is_false(self, poi_relation: Relation):
        assert ("met",) not in poi_relation

    def test_set_semantics_on_duplicate_insert(self, poi_relation: Relation):
        poi_relation.add(("met", "museum", 25))
        assert len(poi_relation) == 2

    def test_add_validates_arity(self, poi_relation: Relation):
        with pytest.raises(IntegrityError):
            poi_relation.add(("too", "short"))

    def test_discard(self, poi_relation: Relation):
        assert poi_relation.discard(("met", "museum", 25)) is True
        assert poi_relation.discard(("met", "museum", 25)) is False
        assert len(poi_relation) == 1

    def test_from_dicts(self):
        schema = RelationSchema("poi", ["name", "price"])
        relation = Relation.from_dicts(schema, [{"name": "met", "price": 25}])
        assert ("met", 25) in relation

    def test_column(self, poi_relation: Relation):
        assert poi_relation.column("kind") == {"museum", "park"}

    def test_active_domain(self, poi_relation: Relation):
        assert "met" in poi_relation.active_domain()
        assert 25 in poi_relation.active_domain()

    def test_sorted_rows_is_deterministic(self, poi_relation: Relation):
        assert poi_relation.sorted_rows() == poi_relation.sorted_rows()

    def test_copy_is_independent(self, poi_relation: Relation):
        copy = poi_relation.copy()
        copy.add(("moma", "museum", 25))
        assert len(copy) == 3
        assert len(poi_relation) == 2

    def test_equality(self, poi_relation: Relation):
        same = Relation(poi_relation.schema, poi_relation.rows())
        assert poi_relation == same

    def test_pretty_prints_header(self, poi_relation: Relation):
        assert "name | kind | price" in poi_relation.pretty()


class TestDatabase:
    def test_create_and_lookup(self):
        database = Database()
        database.create_relation("edge", ["a", "b"], [(1, 2)])
        assert "edge" in database
        assert len(database.relation("edge")) == 1
        assert database["edge"].arity == 2

    def test_unknown_relation(self):
        database = Database()
        with pytest.raises(UnknownRelationError):
            database.relation("missing")

    def test_duplicate_relation_rejected(self):
        database = Database()
        database.create_relation("edge", ["a", "b"])
        with pytest.raises(SchemaError):
            database.create_relation("edge", ["a", "b"])

    def test_size_counts_all_tuples(self):
        database = Database()
        database.create_relation("a", ["x"], [(1,), (2,)])
        database.create_relation("b", ["y"], [(3,)])
        assert database.size() == 3
        assert len(database) == 3

    def test_active_domain_spans_relations(self):
        database = Database()
        database.create_relation("a", ["x"], [(1,)])
        database.create_relation("b", ["y"], [("z",)])
        assert database.active_domain() == {1, "z"}

    def test_with_relation_replaces(self):
        database = Database()
        database.create_relation("a", ["x"], [(1,)])
        replacement = Relation(RelationSchema("a", ["x"]), [(2,)])
        updated = database.with_relation(replacement)
        assert (2,) in updated.relation("a")
        assert (1,) in database.relation("a")  # original untouched

    def test_without_relation(self):
        database = Database()
        database.create_relation("a", ["x"], [(1,)])
        database.create_relation("b", ["y"], [(2,)])
        smaller = database.without_relation("a")
        assert "a" not in smaller
        assert "a" in database

    def test_copy_is_independent(self):
        database = Database()
        database.create_relation("a", ["x"], [(1,)])
        copy = database.copy()
        copy.relation("a").add((2,))
        assert len(database.relation("a")) == 1

    def test_equality(self):
        first = Database()
        first.create_relation("a", ["x"], [(1,)])
        second = Database()
        second.create_relation("a", ["x"], [(1,)])
        assert first == second

    def test_schema_roundtrip(self):
        database = Database()
        database.create_relation("a", ["x", "y"])
        schema = database.schema()
        assert schema["a"].attribute_names == ("x", "y")


class TestRelationIndexes:
    """Lazy hash indexes: build-on-demand, probe, and mutation invalidation."""

    def test_index_on_groups_rows_by_position_values(self, poi_relation):
        index = poi_relation.index_on((1,))
        kinds = {key[0] for key in index}
        assert kinds == set(poi_relation.column("kind"))
        for key, rows in index.items():
            assert all(row[1] == key[0] for row in rows)

    def test_index_on_attributes_matches_positions(self, poi_relation):
        assert poi_relation.index_on_attributes(["kind"]) == poi_relation.index_on((1,))

    def test_probe_returns_matching_rows_only(self, poi_relation):
        rows = poi_relation.probe((1,), ("museum",))
        assert rows and all(row[1] == "museum" for row in rows)
        assert poi_relation.probe((1,), ("volcano",)) == ()

    def test_multi_position_probe(self, poi_relation):
        rows = poi_relation.probe((1, 2), ("museum", 25))
        assert all(row[1] == "museum" and row[2] == 25 for row in rows)

    def test_index_is_cached_until_mutation(self, poi_relation):
        first = poi_relation.index_on((0,))
        assert poi_relation.index_on((0,)) is first
        assert (0,) in poi_relation.indexed_position_sets()

    def test_zero_position_index_rejected(self, poi_relation):
        with pytest.raises(SchemaError):
            poi_relation.index_on(())

    def test_out_of_range_position_rejected(self, poi_relation):
        with pytest.raises(SchemaError):
            poi_relation.index_on((99,))

    # -- the regression the refactor surfaced: mutate after indexing ---------
    def test_add_after_index_built_invalidates_the_index(self, poi_relation):
        before = poi_relation.probe((1,), ("museum",))
        poi_relation.add(("louvre", "museum", 17))
        after = poi_relation.probe((1,), ("museum",))
        assert len(after) == len(before) + 1
        assert ("louvre", "museum", 17) in after

    def test_discard_after_index_built_invalidates_the_index(self, poi_relation):
        target = poi_relation.probe((1,), ("museum",))[0]
        poi_relation.discard(target)
        assert target not in poi_relation.probe((1,), ("museum",))

    def test_clear_after_index_built_invalidates_the_index(self, poi_relation):
        assert poi_relation.probe((1,), ("museum",))
        poi_relation.clear()
        assert poi_relation.probe((1,), ("museum",)) == ()

    def test_noop_mutations_do_not_bump_the_version(self, poi_relation):
        version = poi_relation.version
        poi_relation.add(("met", "museum", 25))  # already present
        poi_relation.discard(("atlantis", "museum", 1))  # never present
        assert poi_relation.version == version

    def test_real_mutations_bump_the_version(self, poi_relation):
        version = poi_relation.version
        poi_relation.add(("louvre", "museum", 17))
        assert poi_relation.version == version + 1
        poi_relation.discard(("louvre", "museum", 17))
        assert poi_relation.version == version + 2

    def test_invalidate_indexes_drops_caches_but_keeps_rows(self, poi_relation):
        poi_relation.index_on((0,))
        count = len(poi_relation)
        poi_relation.invalidate_indexes()
        assert poi_relation.indexed_position_sets() == ()
        assert len(poi_relation) == count

    def test_mutate_then_requery_through_the_evaluator(self):
        """End-to-end regression: the planned evaluator sees in-place updates."""
        from repro.queries.ast import RelationAtom, Var
        from repro.queries.bindings import enumerate_bindings

        database = Database()
        edges = database.create_relation("edge", ["src", "dst"], [(1, 2), (2, 3)])
        atom = RelationAtom("edge", [Var("x"), Var("y")])

        first = list(enumerate_bindings(database, [atom], initial_binding={"x": 2}))
        assert sorted(b["y"] for b in first) == [3]
        edges.add((2, 9))
        second = list(enumerate_bindings(database, [atom], initial_binding={"x": 2}))
        assert sorted(b["y"] for b in second) == [3, 9]
        edges.discard((2, 3))
        third = list(enumerate_bindings(database, [atom], initial_binding={"x": 2}))
        assert sorted(b["y"] for b in third) == [9]


class TestReplaceRows:
    """Edge cases of the trusted bulk update that loads the Qc answer relation."""

    def test_replace_rows_swaps_the_row_set(self, poi_relation):
        poi_relation.replace_rows({("louvre", "museum", 17)})
        assert poi_relation.rows() == frozenset({("louvre", "museum", 17)})

    def test_replace_with_identical_rows_still_bumps_the_version(self, poi_relation):
        """replace_rows cannot inspect the new rows cheaply, so it must assume
        a change — even a no-op swap participates in the invalidation contract."""
        version = poi_relation.version
        poi_relation.replace_rows(set(poi_relation.rows()))
        assert poi_relation.version == version + 1

    def test_replace_rows_drops_indexes(self, poi_relation):
        poi_relation.index_on((1,))
        assert poi_relation.indexed_position_sets() == ((1,),)
        poi_relation.replace_rows(set(poi_relation.rows()))
        assert poi_relation.indexed_position_sets() == ()

    def test_replace_rows_with_empty_set(self, poi_relation):
        version = poi_relation.version
        poi_relation.replace_rows(())
        assert len(poi_relation) == 0
        assert poi_relation.version == version + 1

    def test_oracle_observes_replace_rows_invalidation(self):
        """The compatibility oracle must treat replace_rows like any mutation."""
        from repro.core.compatibility import CompatibilityOracle, PredicateConstraint
        from repro.core.packages import Package

        database = Database()
        allowed = database.create_relation("allowed", ["iid"], [(1,)])
        items = database.create_relation("items", ["iid"], [(1,), (2,)])

        def predicate(package, db):
            rows = db.relation("allowed").rows()
            return all(item in rows for item in package.items)

        oracle = CompatibilityOracle(
            PredicateConstraint(predicate, "items allowed", relations=("allowed",)),
            database,
        )
        package = Package(items.schema, [(1,)])
        assert oracle.is_satisfied(package) is True
        allowed.replace_rows(set())  # a trusted bulk update is a mutation
        assert oracle.is_satisfied(package) is False  # stale verdict not served
        allowed.replace_rows({(1,)})
        assert oracle.is_satisfied(package) is True

    def test_replace_rows_on_untouched_relation_retains_footprint_verdicts(self):
        """replace_rows on a relation outside the footprint keeps the cache."""
        from repro.core.compatibility import CompatibilityOracle, PredicateConstraint
        from repro.core.packages import Package

        database = Database()
        database.create_relation("allowed", ["iid"], [(1,)])
        other = database.create_relation("other", ["x"], [(9,)])
        items = database.create_relation("items", ["iid"], [(1,)])
        constraint = PredicateConstraint(
            lambda package, db: True, "package-only", relations=()
        )
        oracle = CompatibilityOracle(constraint, database)
        oracle.is_satisfied(Package(items.schema, [(1,)]))
        assert oracle.cache_info()["size"] == 1
        other.replace_rows({(7,)})
        oracle.is_satisfied(Package(items.schema, [(1,)]))
        assert oracle.hits == 1  # served from the retained cache
        assert oracle.retentions == 1


class TestApplyDelta:
    def test_apply_and_undo_roundtrip(self):
        database = Database()
        shop = database.create_relation("shop", ["name"], [("alpha",), ("beta",)])
        token = database.apply_delta(
            [("insert", "shop", ("gamma",)), ("delete", "shop", ("alpha",))]
        )
        assert shop.rows() == frozenset({("beta",), ("gamma",)})
        assert len(token) == 2
        token.undo()
        assert shop.rows() == frozenset({("alpha",), ("beta",)})
        token.undo()  # idempotent
        assert shop.rows() == frozenset({("alpha",), ("beta",)})

    def test_noop_modifications_are_not_recorded(self):
        database = Database()
        shop = database.create_relation("shop", ["name"], [("alpha",)])
        token = database.apply_delta(
            [("insert", "shop", ("alpha",)), ("delete", "shop", ("zeta",))]
        )
        assert token.effective == ()
        token.undo()
        assert shop.rows() == frozenset({("alpha",)})

    def test_context_manager_undoes_on_exit(self):
        database = Database()
        shop = database.create_relation("shop", ["name"], [("alpha",)])
        with database.apply_delta([("insert", "shop", ("gamma",))]):
            assert ("gamma",) in shop
        assert ("gamma",) not in shop

    def test_only_touched_relations_bump_their_version(self):
        database = Database()
        a = database.create_relation("a", ["x"], [(1,)])
        b = database.create_relation("b", ["y"], [(2,)])
        b_version = b.version
        token = database.apply_delta([("insert", "a", (5,))])
        assert b.version == b_version
        token.undo()
        assert b.version == b_version

    def test_invalid_row_raises_model_error_before_any_change(self):
        from repro.relational.errors import ModelError

        database = Database()
        shop = database.create_relation("shop", ["name", "city"], [("alpha", "nyc")])
        with pytest.raises(ModelError, match="invalid insert into relation 'shop'"):
            database.apply_delta(
                [("insert", "shop", ("gamma", "sfo")), ("insert", "shop", ("bad",))]
            )
        # validation is up front: the valid first modification was not applied
        assert shop.rows() == frozenset({("alpha", "nyc")})

    def test_unknown_relation_and_kind_rejected(self):
        from repro.relational.errors import ModelError

        database = Database()
        database.create_relation("shop", ["name"])
        with pytest.raises(UnknownRelationError):
            database.apply_delta([("insert", "nowhere", ("x",))])
        with pytest.raises(ModelError, match="unknown modification kind"):
            database.apply_delta([("rename", "shop", ("x",))])


class TestDatabaseVersion:
    def test_version_snapshots_change_on_mutation(self):
        database = Database()
        relation = database.create_relation("a", ["x"], [(1,)])
        before = database.version()
        assert database.version() == before  # stable while unchanged
        relation.add((2,))
        assert database.version() != before

    def test_invalidate_indexes_walks_every_relation(self):
        database = Database()
        a = database.create_relation("a", ["x"], [(1,)])
        b = database.create_relation("b", ["y"], [(2,)])
        a.index_on((0,))
        b.index_on((0,))
        database.invalidate_indexes()
        assert a.indexed_position_sets() == ()
        assert b.indexed_position_sets() == ()
