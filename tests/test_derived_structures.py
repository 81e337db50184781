"""A stateful property test of every derived structure a relation registers.

:class:`~repro.relational.database.Relation` keeps its hash indexes, tries,
columnar encoding and statistics in one registry and maintains them through
one loop.  This Hypothesis state machine drives a :class:`Database` through
random point mutations (direct and through ``apply_delta``), undos, bulk
mutations, invalidations, snapshot pins and drops, and commits crashed by
the chaos harness, and after every step checks three invariants:

* every structure built on a live relation equals a fresh build from its
  rows, or declines — and never declines on a relation whose every column
  has always held one order family at a time;
* ``range_rows`` never answers where a scan would raise ``TypeError`` (and
  answers exactly when it answers at all);
* every pinned snapshot's rows are unchanged, and every structure built on
  them equals a fresh build from the pinned rows.

A structure class the canonical rendering below does not know fails the
test, so registering a new structure forces it into this suite.  Durability
(WAL, recovery) stays out: the byte-level crash sweeps cover it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.queries.ast import ComparisonOp
from repro.relational.columnar import ColumnarRelation
from repro.relational.database import Database
from repro.relational.statistics import HashIndex, PositionCounts, TrieIndex, order_key
from repro.resilience import FaultPlan, FaultRule, InjectedFault, chaos

#: "clean" keeps one order family per column, so its structures stay alive;
#: "mixed" mixes numeric types, numbers with strings and an unorderable tuple
#: value, so its structures decline.  A third relation, "phased", is written
#: by the ``phase`` rule only: it holds all-int or all-str rows and is
#: drained by point deletions before it switches, so its structures must
#: re-fix their families and stay alive too.
COLUMNS = {
    "clean": (
        st.integers(0, 4),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 2),
    ),
    "mixed": (
        st.sampled_from([0, 1, True, 2.5]),
        st.sampled_from([0, "x"]),
        st.sampled_from(["p", (1, 2)]),
    ),
}
NAMES = st.sampled_from(sorted(COLUMNS))
RELATIONS = (*sorted(COLUMNS), "phased")
ALWAYS_SERVED = ("clean", "phased")
ARITY = 3
POSITION_TUPLES = st.sampled_from([(0,), (1,), (2,), (0, 1), (2, 0), (1, 2, 0)])
RANGE_OPS = {op: ComparisonOp.from_symbol(op).apply for op in ("<", "<=", ">", ">=", "=")}
BOUNDS = (0, 2.5, "b", (1, 2))

DECLINED = "declined"


def _rows_of(name):
    return st.tuples(*COLUMNS[name])


ROWS = NAMES.flatmap(lambda name: st.tuples(st.just(name), _rows_of(name)))


def _typed(rows):
    return frozenset(tuple((type(v), v) for v in row) for row in rows)


def _canonical(structure):
    """A history-independent rendering of one registered structure."""
    if isinstance(structure, HashIndex):
        return {values: frozenset(bucket) for values, bucket in structure.items()}
    if isinstance(structure, TrieIndex):
        return structure.as_nested() if structure.ok else DECLINED
    if isinstance(structure, ColumnarRelation):
        if not structure.ok:
            return DECLINED
        decoded = structure.decoded_rows()
        return _typed(decoded), structure.families() if decoded else None
    if isinstance(structure, PositionCounts):
        return structure.snapshot()
    raise AssertionError(f"unregistered derived structure {type(structure).__name__}")


def _fresh(structure, name, rows):
    """The same structure built from scratch over ``rows``."""
    if isinstance(structure, HashIndex):
        return HashIndex(structure.positions, rows)
    if isinstance(structure, TrieIndex):
        return TrieIndex(structure.positions, rows)
    if isinstance(structure, ColumnarRelation):
        return ColumnarRelation(ARITY, rows)
    if isinstance(structure, PositionCounts):
        return PositionCounts(name, ARITY, rows)
    raise AssertionError(f"unregistered derived structure {type(structure).__name__}")


def _check_structures(relation, rows):
    for structure in list(relation._derived.values()):
        maintained = _canonical(structure)
        if maintained is DECLINED:
            assert relation.name not in ALWAYS_SERVED, (
                f"{type(structure).__name__} on {relation.name!r} declined"
            )
            continue
        assert maintained == _canonical(_fresh(structure, relation.name, rows)), (
            f"{type(structure).__name__} on {relation.name!r} diverged from a fresh build"
        )


def _scan(rows, position, apply, bound):
    try:
        return {row for row in rows if apply(row[position], bound)}
    except TypeError:
        return None


def _one_family(rows, position, bound):
    """Whether the bound and every value at ``position`` share one order family."""
    bound_key = order_key(bound)
    return bound_key is not None and all(
        order_key(row[position])[0] == bound_key[0] for row in rows
    )


class DerivedStructureMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.database = Database()
        for name in RELATIONS:
            self.database.create_relation(name, ["a", "b", "c"])
        self.tokens = []
        #: (snapshot, {name: pinned rows}, {name: pinned statistics})
        self.snapshots = []

    def _pinned(self, name):
        relation = self.database.relation(name)
        return any(snap.relation(name) is relation for snap, _, _ in self.snapshots)

    def _targets(self):
        yield self.database
        for snapshot, _, _ in self.snapshots:
            yield snapshot

    # -- mutations -------------------------------------------------------------
    @rule(entry=ROWS)
    def add(self, entry):
        name, row = entry
        if not self._pinned(name):  # direct writes bypass copy-on-write
            self.database.relation(name).add(row)

    @rule(name=NAMES, choice=st.integers(0, 50))
    def discard(self, name, choice):
        relation = self.database.relation(name)
        if len(relation) and not self._pinned(name):
            relation.discard(relation.sorted_rows()[choice % len(relation)])

    @rule(
        inserts=st.lists(ROWS, max_size=3),
        deletes=st.lists(st.tuples(NAMES, st.integers(0, 50)), max_size=2),
    )
    def apply_delta(self, inserts, deletes):
        delta = [("insert", name, row) for name, row in inserts]
        for name, choice in deletes:
            rows = self.database.relation(name).sorted_rows()
            if rows:
                delta.append(("delete", name, rows[choice % len(rows)]))
        self.tokens.append(self.database.apply_delta(delta))

    @rule()
    def undo(self):
        if self.tokens:
            self.tokens.pop().undo()

    @rule(name=NAMES, data=st.data())
    def replace_rows(self, name, data):
        if not self._pinned(name):
            new_rows = data.draw(st.lists(_rows_of(name), max_size=5))
            self.database.relation(name).replace_rows(set(new_rows))

    @rule(
        strings=st.booleans(),
        values=st.lists(st.integers(0, 2), min_size=ARITY, max_size=ARITY),
        through_delta=st.booleans(),
    )
    def phase(self, strings, values, through_delta):
        """Insert into "phased", first draining it if the row's family differs."""
        row = tuple("abc"[v] for v in values) if strings else tuple(values)
        relation = self.database.relation("phased")
        stale = [old for old in relation.rows() if isinstance(old[0], str) != strings]
        if through_delta:
            self.database.apply_delta(
                [("delete", "phased", old) for old in stale] + [("insert", "phased", row)]
            )
        elif not self._pinned("phased"):
            for old in stale:
                relation.discard(old)
            relation.add(row)

    @rule()
    def invalidate_indexes(self):
        self.database.invalidate_indexes()

    @rule(entries=st.lists(ROWS, min_size=1, max_size=4), data=st.data())
    def crashed_commit(self, entries, data):
        delta = [("insert", name, row) for name, row in entries]
        crash_at = data.draw(st.integers(0, len(delta) - 1))
        before = {name: self.database.relation(name).rows() for name in RELATIONS}
        epoch = self.database.epoch
        plan = FaultPlan({"commit.modification": FaultRule(at={crash_at})}, seed=0)
        with chaos(plan):
            with pytest.raises(InjectedFault):
                self.database.apply_delta(delta)
        assert self.database.epoch == epoch
        assert {name: self.database.relation(name).rows() for name in RELATIONS} == before

    # -- snapshots and lazy builds ---------------------------------------------
    @rule()
    def pin(self):
        snapshot = self.database.snapshot()
        rows = {name: snapshot.relation(name).rows() for name in RELATIONS}
        stats = {name: snapshot.relation(name).statistics() for name in RELATIONS}
        self.snapshots.append((snapshot, rows, stats))

    @rule(choice=st.integers(0, 10))
    def drop(self, choice):
        if self.snapshots:
            del self.snapshots[choice % len(self.snapshots)]

    @rule(
        name=st.sampled_from(RELATIONS),
        where=st.integers(0, 10),
        kind=st.sampled_from(["index", "trie", "columnar", "statistics"]),
        positions=POSITION_TUPLES,
    )
    def build(self, name, where, kind, positions):
        databases = list(self._targets())
        relation = databases[where % len(databases)].relation(name)
        if kind == "index":
            relation.index_on(positions)
        elif kind == "trie":
            relation.trie_index_on(positions)
        elif kind == "columnar":
            relation.columnar()
        else:
            relation.statistics()

    # -- invariants -------------------------------------------------------------
    @invariant()
    def live_structures_match_fresh_builds(self):
        for name in RELATIONS:
            relation = self.database.relation(name)
            relation.statistics()  # maintained from here on, like the
            relation.columnar()  # tries and indexes range_rows builds below
            _check_structures(relation, relation.rows())

    @invariant()
    def range_rows_answer_exactly_or_decline(self):
        for name in RELATIONS:
            relation = self.database.relation(name)
            rows = relation.rows()
            for position in range(ARITY):
                for op_symbol, apply in RANGE_OPS.items():
                    for bound in BOUNDS:
                        answer = relation.range_rows(position, op_symbol, bound)
                        expected = _scan(rows, position, apply, bound)
                        if answer is None:
                            assert not (
                                name in ALWAYS_SERVED and _one_family(rows, position, bound)
                            ), f"range_rows declined {name}[{position}] {op_symbol} {bound!r}"
                            continue
                        assert expected is not None, (
                            f"range_rows answered {name}[{position}] {op_symbol} "
                            f"{bound!r} where a scan raises TypeError"
                        )
                        assert len(answer) == len(set(answer))
                        assert set(answer) == expected

    @invariant()
    def pinned_snapshots_are_unchanged(self):
        for snapshot, rows, stats in self.snapshots:
            for name in RELATIONS:
                relation = snapshot.relation(name)
                assert relation.rows() == rows[name]
                assert relation.statistics() == stats[name]
                _check_structures(relation, rows[name])


DerivedStructureMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDerivedStructures = DerivedStructureMachine.TestCase
