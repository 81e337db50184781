"""Property tests for the composite trie-index maintenance contract.

The trie indexes behind the worst-case-optimal multiway join
(:meth:`repro.relational.database.Relation.trie_index_on`) follow the same
contract as every other lazy cache on :class:`Relation`: built lazily,
maintained *in place* by point mutations and ``apply_delta`` streams
(including undo round-trips), dropped wholesale by bulk mutations, and
honest about unsupported data — a value outside the orderable families at
any level marks the trie dead so the executor's binary fallback reproduces
reference semantics.

The pinned property: after any random interleaving of point mutations,
multi-modification deltas, undos and bulk mutations, every maintained trie
is *identical* (as a nested value→subtrie rendering with leaf counts) to a
trie freshly built from the live rows.
"""

from __future__ import annotations

import random

import pytest

from repro.relational.database import Database, Relation
from repro.relational.errors import SchemaError
from repro.relational.schema import RelationSchema
from repro.relational.statistics import TrieIndex, leapfrog_intersect


def _fresh(relation: Relation, positions) -> TrieIndex:
    return TrieIndex(positions, relation.rows())


POSITION_ORDERS = ((0, 1), (1, 0), (0, 1, 2), (2, 0, 1), (1,))


class TestTrieMaintenance:
    def test_build_nests_positions_in_the_requested_order(self):
        relation = Relation(
            RelationSchema("r", ["a", "b"]), [(1, "x"), (1, "y"), (2, "x")]
        )
        forward = relation.trie_index_on((0, 1))
        assert forward.as_nested() == {1: {"x": 1, "y": 1}, 2: {"x": 1}}
        backward = relation.trie_index_on((1, 0))
        assert backward.as_nested() == {"x": {1: 1, 2: 1}, "y": {1: 1}}
        # The two orders are distinct cached tries.
        assert relation.trie_indexed_position_sets() == ((0, 1), (1, 0))

    def test_zero_positions_are_rejected(self):
        relation = Relation(RelationSchema("r", ["a"]), [(1,)])
        with pytest.raises(SchemaError):
            relation.trie_index_on(())

    @pytest.mark.parametrize("seed", range(20))
    def test_random_interleavings_match_fresh_builds(self, seed):
        """Point mutations, deltas, undos and bulk mutations never desync."""
        rng = random.Random(seed)
        database = Database()
        relation = database.create_relation(
            "r",
            ["a", "b", "c"],
            {
                (rng.randrange(4), rng.randrange(4), rng.randrange(4))
                for _ in range(rng.randint(0, 10))
            },
        )
        orders = rng.sample(POSITION_ORDERS, rng.randint(1, 3))
        for positions in orders:
            relation.trie_index_on(positions)

        def random_row():
            return (rng.randrange(4), rng.randrange(4), rng.randrange(4))

        undo_stack = []
        for _ in range(60):
            action = rng.randrange(6)
            if action == 0:
                relation.add(random_row())
            elif action == 1 and len(relation):
                relation.discard(rng.choice(sorted(relation.rows())))
            elif action == 2:
                token = database.apply_delta(
                    [
                        (rng.choice(["insert", "delete"]), "r", random_row())
                        for _ in range(rng.randint(1, 3))
                    ]
                )
                undo_stack.append(token)
            elif action == 3 and undo_stack:
                undo_stack.pop().undo()
            elif action == 4 and rng.random() < 0.15:
                # A bulk mutation drops every trie; rebuild lazily below.
                relation.replace_rows({random_row() for _ in range(rng.randint(0, 6))})
                assert relation.trie_indexed_position_sets() == ()
                undo_stack.clear()  # tokens across a bulk rewrite are stale
                for positions in orders:
                    relation.trie_index_on(positions)
            for positions in orders:
                maintained = relation.trie_index_on(positions)
                assert maintained.ok
                assert maintained.as_nested() == _fresh(relation, positions).as_nested(), (
                    f"trie on {positions} diverged from a fresh build"
                )

    def test_undo_round_trip_restores_the_exact_trie(self):
        database = Database()
        relation = database.create_relation("r", ["a", "b"], [(1, 2), (3, 4)])
        trie = relation.trie_index_on((0, 1))
        before = trie.as_nested()
        token = database.apply_delta(
            [("insert", "r", (5, 6)), ("delete", "r", (1, 2)), ("insert", "r", (1, 9))]
        )
        assert trie.as_nested() == _fresh(relation, (0, 1)).as_nested()
        token.undo()
        assert trie.as_nested() == before

    def test_duplicate_projections_keep_counts_exact(self):
        """Rows sharing a prefix must not vanish until the last one is gone."""
        relation = Relation(RelationSchema("r", ["a", "b"]), [(1, 1), (1, 2)])
        trie = relation.trie_index_on((0,))
        assert trie.as_nested() == {1: 2}
        relation.discard((1, 1))
        assert trie.as_nested() == {1: 1}
        assert trie.root.values() == (1,)
        relation.discard((1, 2))
        assert trie.as_nested() == {}


class TestTrieDecline:
    def test_mixed_type_column_marks_the_trie_dead(self):
        relation = Relation(RelationSchema("r", ["a", "b"]), [(1, 2), ("x", 3)])
        trie = relation.trie_index_on((0, 1))
        assert not trie.ok
        assert trie.descend((1,)) is None

    def test_unsupported_value_during_maintenance_kills_cleanly(self):
        relation = Relation(RelationSchema("r", ["a"]), [(1,)])
        trie = relation.trie_index_on((0,))
        assert trie.ok
        relation.add(((1, 2),))  # a tuple value: no total order with ints
        assert not trie.ok
        # Dead tries ignore further maintenance instead of corrupting.
        relation.add((7,))
        relation.discard((1,))
        assert not trie.ok
        # A bulk mutation drops the dead trie; clean rows rebuild a live one.
        relation.replace_rows({(5,), (6,)})
        assert relation.trie_index_on((0,)).ok

    def test_emptied_trie_refixes_families_like_a_fresh_build(self):
        """Deleting the last row frees every level's family for the next row."""
        relation = Relation(RelationSchema("r", ["a", "b"]), [(1, 2)])
        trie = relation.trie_index_on((0, 1))
        relation.range_rows(0, ">", 0)
        relation.discard((1, 2))
        relation.add(("a", "b"))
        assert trie.ok
        assert trie.as_nested() == _fresh(relation, (0, 1)).as_nested()
        assert relation.trie_index_on((0,)).ok
        assert relation.range_rows(0, ">=", "a") == (("a", "b"),)

    def test_mixed_numeric_families_stay_alive(self):
        """bool/int/float share the numeric order family."""
        relation = Relation(RelationSchema("r", ["a"]), [(True,), (2,), (2.5,)])
        trie = relation.trie_index_on((0,))
        assert trie.ok
        assert trie.root.values() == (True, 2, 2.5)


class TestLeapfrogIntersect:
    def _node(self, values):
        trie = TrieIndex((0,), [(v,) for v in values])
        return trie.root

    def test_intersection_is_sorted_and_exact(self):
        a = self._node([1, 3, 5, 7, 9])
        b = self._node([3, 4, 5, 9])
        c = self._node([0, 3, 5, 9, 11])
        assert list(leapfrog_intersect([a, b, c])) == [3, 5, 9]

    def test_single_node_streams_its_level(self):
        a = self._node([2, 4, 6])
        assert list(leapfrog_intersect([a])) == [2, 4, 6]

    def test_empty_level_short_circuits(self):
        a = self._node([1, 2])
        b = self._node([])
        assert list(leapfrog_intersect([a, b])) == []
        assert list(leapfrog_intersect([])) == []

    def test_numerically_equal_values_align_across_nodes(self):
        a = self._node([1, 2.0, 3])
        b = self._node([True, 2, 4])
        assert list(leapfrog_intersect([a, b])) == [1, 2.0]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_intersections_match_set_semantics(self, seed):
        rng = random.Random(seed)
        pools = [
            sorted({rng.randrange(30) for _ in range(rng.randint(0, 20))})
            for _ in range(rng.randint(2, 4))
        ]
        nodes = [self._node(pool) for pool in pools]
        expected = sorted(set.intersection(*(set(pool) for pool in pools)))
        assert list(leapfrog_intersect(nodes)) == expected
