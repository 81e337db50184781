"""Tests for the PR 4 cost-based planning substrate.

Covers the four layers the optimizer spans:

* **Relational** — maintained statistics and range probes: correct after
  construction, maintained *in place* under point mutations and
  ``apply_delta`` streams (including undo round-trips), dropped by bulk
  mutations, and honest about what they cannot answer (mixed-type columns).
* **Planner** — statistics-driven atom ordering with the historical fallback,
  range-probe compilation, the GYO join tree, and the plan cache.
* **Executor** — range probes and semi-join reduction return exactly the
  reference answers (spot checks here; the bulk lives in the differential
  suite's axes matrix).
* **Consumers** — :class:`~repro.incremental.MaintainedQuery` delta rules
  drive range probes through the pre-state view and stay equivalent to
  recompute across update streams.
"""

from __future__ import annotations

import random

import pytest

from repro.incremental import MaintainedQuery, apply_maintained
from repro.queries.ast import Comparison, ComparisonOp, RelationAtom, Var
from repro.queries.bindings import enumerate_bindings, enumerate_bindings_naive
from repro.queries.cq import ConjunctiveQuery
from repro.queries.plan import (
    cached_plan,
    clear_plan_cache,
    plan_cache_info,
    plan_conjunction,
)
from repro.relational.database import Database, Relation
from repro.relational.schema import RelationSchema

A, B, P, Q, X, Y = Var("a"), Var("b"), Var("p"), Var("q"), Var("x"), Var("y")

RANGE_OPS = ("<", "<=", ">", ">=", "=")


def _brute_range(relation, position, op_symbol, bound):
    op = ComparisonOp.from_symbol(op_symbol)
    return {row for row in relation if op.apply(row[position], bound)}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
class TestRelationStatistics:
    def test_snapshot_reports_cardinality_and_distincts(self):
        relation = Relation(
            RelationSchema("r", ["a", "b"]), [(1, "x"), (2, "x"), (3, "y")]
        )
        stats = relation.statistics()
        assert stats.cardinality == 3
        assert stats.distinct_counts == (3, 2)
        assert stats.distinct(1) == 2

    def test_point_mutations_maintain_statistics_in_place(self):
        relation = Relation(RelationSchema("r", ["a", "b"]), [(1, "x"), (2, "y")])
        relation.statistics()  # materialise the backing counts
        relation.add((3, "x"))
        assert relation.statistics().distinct_counts == (3, 2)
        relation.discard((2, "y"))
        assert relation.statistics().distinct_counts == (2, 1)
        assert relation.statistics() == Relation(relation.schema, relation.rows()).statistics()

    def test_bulk_mutations_drop_the_backing_counts(self):
        relation = Relation(RelationSchema("r", ["a"]), [(1,), (2,)])
        relation.statistics()
        relation.replace_rows({(5,), (6,), (7,)})
        assert relation.statistics().distinct_counts == (3,)
        assert relation.statistics().max_frequencies == (1,)

    def test_statistics_follow_apply_delta_and_undo(self):
        database = Database()
        relation = database.create_relation("r", ["a", "b"], [(1, 1), (2, 1)])
        relation.statistics()
        token = database.apply_delta(
            [("insert", "r", (3, 2)), ("delete", "r", (1, 1))]
        )
        assert relation.statistics() == Relation(relation.schema, relation.rows()).statistics()
        token.undo()
        assert relation.statistics().cardinality == 2
        assert relation.statistics().distinct_counts == (2, 1)

    def test_max_frequencies_track_the_heavy_hitter(self):
        relation = Relation(
            RelationSchema("r", ["a", "b"]), [(1, "x"), (2, "x"), (3, "y")]
        )
        stats = relation.statistics()
        assert stats.max_frequencies == (1, 2)
        assert stats.max_frequency(1) == 2

    def test_max_frequencies_maintained_in_place_and_dirtied_by_deletes(self):
        relation = Relation(RelationSchema("r", ["a"]), [(1,), (2,)])
        relation.statistics()
        # Inserting rows of one value raises the max in O(1) per update.
        relation.add((3,))
        assert relation.statistics().max_frequencies == (1,)
        relation2 = Relation(RelationSchema("s", ["a", "b"]), [(1, 9), (2, 9)])
        relation2.statistics()
        relation2.add((3, 9))
        assert relation2.statistics().max_frequencies == (1, 3)
        # Deleting a row of the maximal value dirties the position; the next
        # snapshot recomputes it (another value may share the max).
        relation2.discard((3, 9))
        assert relation2.statistics().max_frequencies == (1, 2)
        # A snapshot equals a from-scratch build after any of it.
        fresh = Relation(relation2.schema, relation2.rows())
        assert relation2.statistics() == fresh.statistics()

    def test_snapshots_are_hashable_and_comparable(self):
        relation = Relation(RelationSchema("r", ["a"]), [(1,)])
        first = relation.statistics()
        assert relation.statistics() == first
        relation.add((2,))
        assert relation.statistics() != first
        assert len({first, relation.statistics()}) == 2


# ---------------------------------------------------------------------------
# Sorted indexes and range probes
# ---------------------------------------------------------------------------
class TestSortedIndex:
    @pytest.mark.parametrize("op_symbol", RANGE_OPS)
    def test_range_rows_matches_brute_force(self, op_symbol):
        rng = random.Random(17)
        relation = Relation(
            RelationSchema("r", ["a", "p"]),
            [(i, rng.randrange(20)) for i in range(60)],
        )
        for bound in (-1, 0, 7, 19, 25):
            rows = relation.range_rows(1, op_symbol, bound)
            assert rows is not None
            assert set(rows) == _brute_range(relation, 1, op_symbol, bound)

    def test_bool_and_float_compare_numerically(self):
        relation = Relation(
            RelationSchema("r", ["v"]), [(True,), (0,), (2.5,), (3,)]
        )
        assert set(relation.range_rows(0, "<", 2)) == {(True,), (0,)}
        assert set(relation.range_rows(0, "<=", 2.5)) == {(True,), (0,), (2.5,)}
        assert set(relation.range_rows(0, "=", 1)) == {(True,)}

    def test_string_columns_are_served(self):
        relation = Relation(RelationSchema("r", ["v"]), [("apple",), ("pear",), ("fig",)])
        assert set(relation.range_rows(0, ">=", "fig")) == {("fig",), ("pear",)}

    def test_mixed_type_column_declines(self):
        """A scan would raise TypeError; the probe must not silently filter."""
        relation = Relation(RelationSchema("r", ["v"]), [(1,), ("one",)])
        assert relation.range_rows(0, "<", 5) is None

    def test_homogeneous_column_declines_a_mismatched_bound(self):
        relation = Relation(RelationSchema("r", ["v"]), [("a",), ("b",)])
        assert relation.range_rows(0, "<", 5) is None

    def test_unsupported_values_mark_the_index_dead(self):
        relation = Relation(RelationSchema("r", ["v"]), [((1, 2),)])
        assert relation.range_rows(0, "<", (9, 9)) is None
        assert not relation.trie_index_on((0,)).ok

    def test_point_mutations_maintain_the_sorted_index(self):
        relation = Relation(RelationSchema("r", ["v"]), [(3,), (7,)])
        relation.range_rows(0, "<", 0)
        relation.add((5,))
        relation.add((5,))  # duplicate value via a second row? set semantics: no-op
        relation.discard((7,))
        assert relation.trie_indexed_position_sets() == ((0,),)  # never dropped
        assert set(relation.range_rows(0, "<=", 5)) == {(3,), (5,)}
        assert relation.range_rows(0, ">", 5) == ()

    def test_bulk_mutations_drop_the_sorted_index(self):
        relation = Relation(RelationSchema("r", ["v"]), [(3,)])
        relation.range_rows(0, "<", 0)
        relation.replace_rows({(8,), (9,)})
        assert relation.trie_indexed_position_sets() == ()
        assert set(relation.range_rows(0, ">", 8)) == {(9,)}

    def test_random_delta_stream_keeps_index_and_brute_force_aligned(self):
        """Point mutations through apply_delta + undo never desync the index."""
        rng = random.Random(23)
        database = Database()
        relation = database.create_relation(
            "r", ["a", "p"], [(i, rng.randrange(12)) for i in range(25)]
        )
        relation.range_rows(1, "<", 0)
        relation.statistics()
        for step in range(40):
            if rng.random() < 0.5 and len(relation):
                row = rng.choice(sorted(relation.rows()))
                delta = [("delete", "r", row)]
            else:
                delta = [("insert", "r", (rng.randrange(50), rng.randrange(12)))]
            token = database.apply_delta(delta)
            for op_symbol in RANGE_OPS:
                bound = rng.randrange(-1, 14)
                assert set(relation.range_rows(1, op_symbol, bound)) == _brute_range(
                    relation, 1, op_symbol, bound
                )
            fresh = Relation(relation.schema, relation.rows())
            assert relation.statistics() == fresh.statistics()
            if step % 3 == 0:
                token.undo()
                assert set(relation.range_rows(1, "<", 6)) == _brute_range(
                    relation, 1, "<", 6
                )

    def test_duplicate_values_survive_partial_removal(self):
        relation = Relation(RelationSchema("r", ["a", "v"]), [(1, 4), (2, 4), (3, 9)])
        assert set(relation.range_rows(1, "<", 5)) == {(1, 4), (2, 4)}
        relation.discard((1, 4))
        assert relation.range_rows(1, "<", 5) == ((2, 4),)
        relation.discard((2, 4))
        assert relation.range_rows(1, "<", 5) == ()
        assert relation.range_rows(1, ">=", 0) == ((3, 9),)


# ---------------------------------------------------------------------------
# Planner: ordering, range compilation, join tree, cache
# ---------------------------------------------------------------------------
class TestCostBasedPlanner:
    def _stats(self, database, atoms):
        return {
            atom.relation: database.relation(atom.relation).statistics()
            for atom in atoms
        }

    def test_statistics_reorder_towards_the_small_relation(self):
        database = Database()
        database.create_relation("big", ["b", "c"], [(i % 40, i) for i in range(400)])
        database.create_relation("small", ["a", "b"], [(i, i % 5) for i in range(8)])
        atoms = [RelationAtom("big", [B, Var("c")]), RelationAtom("small", [A, B])]
        fallback = plan_conjunction(atoms)
        assert fallback.steps[0].atom.relation == "big"  # first-wins tie-break
        costed = plan_conjunction(atoms, statistics=self._stats(database, atoms))
        assert costed.steps[0].atom.relation == "small"
        assert costed.steps[1].uses_index  # big is probed on the join variable

    def test_missing_statistics_fall_back_wholesale(self):
        database = Database()
        database.create_relation("r", ["a"], [(1,)])
        atoms = [RelationAtom("r", [A]), RelationAtom("s", [A])]
        partial = {"r": database.relation("r").statistics()}  # no stats for s
        plan = plan_conjunction(atoms, statistics=partial)
        assert plan.steps[0].atom.relation == "r"  # the historical static order

    def test_ground_one_sided_comparison_compiles_to_a_range_probe(self):
        atoms = [RelationAtom("item", [A, P])]
        plan = plan_conjunction(atoms, [Comparison(ComparisonOp.LT, P, 30)])
        probe = plan.steps[0].range_probe
        assert probe is not None
        assert (probe.position, probe.op) == (1, ComparisonOp.LT)
        assert "range item" in plan.describe()
        # The comparison stays scheduled: the probe is an access path only.
        assert plan.comparison_schedule == ((), (0,))

    def test_flipped_comparison_is_normalised(self):
        atoms = [RelationAtom("item", [A, P])]
        plan = plan_conjunction(atoms, [Comparison(ComparisonOp.GT, 30, P)])
        probe = plan.steps[0].range_probe
        assert (probe.position, probe.op) == (1, ComparisonOp.LT)

    def test_hash_probe_and_two_sided_comparisons_suppress_the_range(self):
        probed = plan_conjunction(
            [RelationAtom("item", [A, P])],
            [Comparison(ComparisonOp.LT, P, 30)],
            bound_variables={"a"},
        )
        assert probed.steps[0].uses_index and probed.steps[0].range_probe is None
        two_sided = plan_conjunction(
            [RelationAtom("item", [A, P])], [Comparison(ComparisonOp.LT, A, P)]
        )
        assert two_sided.steps[0].range_probe is None

    def test_compile_ranges_false_reproduces_the_pr1_plan(self):
        atoms = [RelationAtom("item", [A, P])]
        plan = plan_conjunction(
            atoms, [Comparison(ComparisonOp.LT, P, 30)], compile_ranges=False
        )
        assert plan.steps[0].range_probe is None

    def test_acyclic_chain_gets_a_join_tree_and_cyclic_does_not(self):
        chain = plan_conjunction(
            [
                RelationAtom("r", [X, Y]),
                RelationAtom("s", [Y, A]),
                RelationAtom("t", [A, B]),
            ]
        )
        assert chain.semijoin_tree
        triangle = plan_conjunction(
            [
                RelationAtom("r", [X, Y]),
                RelationAtom("s", [Y, A]),
                RelationAtom("t", [A, X]),
            ]
        )
        assert triangle.semijoin_tree == ()
        assert not triangle.run_semijoin

    def test_plan_cache_hits_until_statistics_drift_crosses_a_bucket(self):
        clear_plan_cache()
        database = Database()
        relation = database.create_relation(
            "r", ["a", "p"], [(i, i % 7) for i in range(20)]
        )
        atoms = (RelationAtom("r", [A, P]),)
        comparisons = (Comparison(ComparisonOp.LT, P, 4),)
        list(enumerate_bindings(database, atoms, comparisons))
        first = plan_cache_info()
        assert first["misses"] == 1
        # A single-tuple delta stays inside the log2 bucket: still a hit.
        relation.add((99, 3))
        list(enumerate_bindings(database, atoms, comparisons))
        assert plan_cache_info()["hits"] == first["hits"] + 1
        assert plan_cache_info()["misses"] == first["misses"]
        # Doubling the relation crosses the bucket: replan.
        relation.add_all((200 + i, i % 7) for i in range(30))
        list(enumerate_bindings(database, atoms, comparisons))
        assert plan_cache_info()["misses"] == first["misses"] + 1

    def test_qc_style_answer_swaps_do_not_churn_the_cache(self):
        """Per-probe ``replace_rows`` swaps of a small answer relation reuse plans."""
        clear_plan_cache()
        database = Database()
        answer = database.create_relation("RQ", ["a"], [(0,)])
        database.create_relation("item", ["a", "p"], [(i, i % 9) for i in range(40)])
        atoms = (RelationAtom("RQ", [A]), RelationAtom("item", [A, P]))
        for size in (2, 3, 2, 3, 2, 3):
            answer.replace_rows({(i,) for i in range(size)})
            list(enumerate_bindings(database, atoms))
        info = plan_cache_info()
        assert info["hits"] >= 4  # packages of bucket-equal size share one plan

    def test_cached_plan_is_shared_across_identically_shaped_databases(self):
        clear_plan_cache()
        atoms = (RelationAtom("r", [A, P]),)

        def build():
            database = Database()
            database.create_relation("r", ["a", "p"], [(i, i) for i in range(5)])
            return database

        stats_a = {"r": build().relation("r").statistics()}
        stats_b = {"r": build().relation("r").statistics()}
        plan_a = cached_plan(atoms, (), frozenset(), statistics=stats_a)
        plan_b = cached_plan(atoms, (), frozenset(), statistics=stats_b)
        assert plan_a is plan_b


# ---------------------------------------------------------------------------
# Executor spot checks
# ---------------------------------------------------------------------------
class TestExecutorAccessPaths:
    def test_range_probe_builds_a_sorted_index_and_matches_naive(self):
        database = Database()
        database.create_relation("item", ["a", "p"], [(i, i % 13) for i in range(40)])
        atoms = [RelationAtom("item", [A, P])]
        comparisons = [Comparison(ComparisonOp.GE, P, 9)]
        planned = sorted(
            tuple(sorted(b.items()))
            for b in enumerate_bindings(database, atoms, comparisons)
        )
        naive = sorted(
            tuple(sorted(b.items()))
            for b in enumerate_bindings_naive(database, atoms, comparisons)
        )
        assert planned == naive
        assert database.relation("item").trie_indexed_position_sets() == ((1,),)

    def test_range_probe_bound_by_an_earlier_atom_variable(self):
        database = Database()
        database.create_relation("limit", ["l"], [(4,)])
        database.create_relation("item", ["a", "p"], [(i, i) for i in range(10)])
        atoms = [RelationAtom("limit", [Q]), RelationAtom("item", [A, P])]
        comparisons = [Comparison(ComparisonOp.LT, P, Q)]
        planned = sorted(
            b["a"] for b in enumerate_bindings(database, atoms, comparisons)
        )
        assert planned == [0, 1, 2, 3]

    def test_semijoin_reduction_prunes_without_changing_answers(self):
        database = Database()
        database.create_relation("r", ["a", "x"], [(i, i % 4) for i in range(12)])
        database.create_relation("s", ["x", "y"], [(i % 4, i % 3) for i in range(12)])
        database.create_relation("t", ["y", "c"], [(0, 99)])
        atoms = [
            RelationAtom("r", [A, X]),
            RelationAtom("s", [X, Y]),
            RelationAtom("t", [Y, Var("c")]),
        ]
        on = sorted(
            tuple(sorted(b.items()))
            for b in enumerate_bindings(database, atoms, use_semijoin=True)
        )
        off = sorted(
            tuple(sorted(b.items()))
            for b in enumerate_bindings(database, atoms, use_semijoin=False)
        )
        naive = sorted(
            tuple(sorted(b.items())) for b in enumerate_bindings_naive(database, atoms)
        )
        assert on == off == naive


# ---------------------------------------------------------------------------
# MaintainedQuery delta rules drive the new access paths
# ---------------------------------------------------------------------------
class TestMaintainedRangeQueries:
    def _workload(self, seed=31):
        rng = random.Random(seed)
        database = Database()
        database.create_relation(
            "r", ["a", "p"], {(rng.randrange(30), rng.randrange(20)) for _ in range(25)}
        )
        database.create_relation(
            "s", ["b", "q"], {(rng.randrange(30), rng.randrange(20)) for _ in range(25)}
        )
        query = ConjunctiveQuery(
            [A, B],
            [RelationAtom("r", [A, P]), RelationAtom("s", [B, Q])],
            [
                Comparison(ComparisonOp.LT, P, 8),
                Comparison(ComparisonOp.GE, Q, 12),
            ],
            name="range_pairs",
        )
        return rng, database, query

    def test_delta_rules_compile_range_probes(self):
        _, database, query = self._workload()
        view = MaintainedQuery(query, database)
        assert view.is_incremental
        rules = view._maintainer._insert_rules["r"]
        # The rule seeded on r leaves s(b, q) with q >= 12 as the remaining
        # atom: no bound variable, so it must carry the range access path.
        assert any(
            step.range_probe is not None
            for rule in rules
            for step in rule.plan.steps
        )

    def test_maintained_range_query_tracks_recompute_over_a_stream(self):
        rng, database, query = self._workload()
        view = MaintainedQuery(query, database)
        for _ in range(60):
            name = rng.choice(["r", "s"])
            relation = database.relation(name)
            if rng.random() < 0.45 and len(relation):
                row = rng.choice(sorted(relation.rows()))
                mods = [("delete", name, row)]
            else:
                mods = [("insert", name, (rng.randrange(30), rng.randrange(20)))]
            apply_maintained(database, mods, (view,))
            assert view.answer_rows() == query.evaluate(database).rows()

    def test_maintained_range_query_undo_round_trip(self):
        rng, database, query = self._workload(seed=77)
        view = MaintainedQuery(query, database)
        before = view.answer_rows()
        token = apply_maintained(
            database,
            [
                ("insert", "r", (99, 0)),
                ("insert", "s", (98, 19)),
                ("delete", "r", sorted(database.relation("r").rows())[0]),
            ],
            (view,),
        )
        assert view.answer_rows() == query.evaluate(database).rows()
        token.undo()
        assert view.answer_rows() == before
        assert view.answer_rows() == query.evaluate(database).rows()

    def test_pre_state_view_range_rows_adjust_by_one_row(self):
        from repro.incremental.views import _PreStateView

        relation = Relation(RelationSchema("r", ["a", "p"]), [(1, 5), (2, 9)])
        added = _PreStateView(relation, extra_row=(3, 7))
        assert set(added.range_rows(1, "<", 8)) == {(1, 5), (3, 7)}
        removed = _PreStateView(relation, removed_row=(2, 9))
        assert set(removed.range_rows(1, ">", 1)) == {(1, 5)}
