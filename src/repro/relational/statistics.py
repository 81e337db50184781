"""The derived structures a relation maintains: statistics, hash indexes, tries.

Every structure here is built from a relation's rows and kept in the
relation's one derived-structure registry
(:class:`~repro.relational.database.Relation`).  Each has the same small
surface — a constructor that builds it from the rows, ``add(row)`` and
``remove(row)`` for point maintenance, and ``ok`` where it can decline — so
the relation maintains all of them through one loop: point mutations update
every built structure in place, bulk mutations drop the registry for a lazy
rebuild.

* **Statistics** — how many rows a relation holds, how many *distinct*
  values each attribute position carries, and how often the *most frequent*
  value of each position occurs (the heavy-hitter degree bound behind the
  planner's worst-case intermediate estimates).  :class:`PositionCounts` is
  the maintained backing; :class:`RelationStatistics` is the immutable
  snapshot the planner (:mod:`repro.queries.plan`) consumes.

* **Hash indexes** — a :class:`HashIndex` maps the values at some positions
  to the rows carrying them; the executor's probes are one lookup in it.

* **Tries** — a :class:`TrieIndex` nests the distinct values of one or more
  attribute positions, in a caller-chosen variable order, with the values at
  every level kept sorted.  This is the storage side of the worst-case-optimal
  multiway join: the leapfrog executor intersects the sorted child lists of
  one trie level per participating atom instead of materialising binary
  intermediate results.  The root of a one-position trie is also the sorted
  index behind range probes: :meth:`TrieNode.range_values` answers a ground
  one-sided comparison (``price < 30``) with two bisections, and the rows
  come from the hash index on that position.

Range probes must be *exactly* equivalent to post-filtering a scan, including
error behaviour: a scan over a column mixing strings and numbers raises
``TypeError`` when the comparison is evaluated, so a trie level holds one
type family only and :meth:`TrieNode.range_values` refuses (returns ``None``)
a bound of another family.  Only numbers (bool/int/float compare
numerically) and strings are ordered; a value outside those families — or a
level mixing them — at *any* level marks the whole trie dead
(:attr:`TrieIndex.ok` false) until the next rebuild, so range probes fall
back to the scan and the multiway executor to the binary plan, both of which
reproduce reference semantics.

Under snapshot isolation all structures double as *per-epoch* caches for
free: a :class:`~repro.relational.database.DatabaseSnapshot` pins its
relation objects, the commit path's copy-on-write guarantees a pinned
relation is never mutated again, so any structure built through a snapshot
describes its pinned epoch forever and may be shared between reader threads
without invalidation.  The maintenance contract above applies to the *live*
relation (or its copy-on-write clone) only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relational.schema import Value

#: Type families a trie level can order totally and consistently with the
#: comparison predicates' own semantics.  ``bool`` joins the numeric family
#: because Python compares it numerically (``True < 30``).
_TAG_NUMBER = "num"
_TAG_STRING = "str"


def order_key(value: Value) -> Optional[Tuple[str, Value]]:
    """The trie-level sort key of a value, or ``None`` when unsupported.

    Supported values map to ``(family, value)`` pairs: all numbers compare
    numerically within the ``num`` family (so ``1``, ``1.0`` and ``True`` sort
    together, matching ``==``/``<`` semantics), strings lexicographically
    within ``str``.  NaN is rejected — it would break the total order bisect
    relies on.
    """
    if isinstance(value, (bool, int, float)):
        if isinstance(value, float) and value != value:  # NaN
            return None
        return (_TAG_NUMBER, value)
    if isinstance(value, str):
        return (_TAG_STRING, value)
    return None


@dataclass(frozen=True)
class RelationStatistics:
    """A cheap snapshot of one relation's planner-relevant statistics.

    ``distinct_counts[p]`` is the number of distinct values at attribute
    position ``p``; ``max_frequencies[p]`` is the number of rows carrying the
    most frequent value there (the degree bound worst-case intermediate
    estimates multiply by).  Snapshots are immutable and hashable, which is
    what lets the plan cache key compiled plans directly on the statistics
    they were costed with (two databases with identical statistics share
    plans — a plan is semantically valid for *any* database, statistics only
    steer cost).
    """

    relation: str
    cardinality: int
    distinct_counts: Tuple[int, ...]
    max_frequencies: Tuple[int, ...] = ()

    def as_dict(self) -> "dict[str, object]":
        """A JSON-serialisable rendering (benchmark reports embed these)."""
        return {
            "relation": self.relation,
            "cardinality": self.cardinality,
            "distinct_counts": list(self.distinct_counts),
            "max_frequencies": list(self.max_frequencies),
        }

    def distinct(self, position: int) -> int:
        """Distinct values at ``position`` (0 for an empty relation)."""
        return self.distinct_counts[position]

    def max_frequency(self, position: int) -> int:
        """Rows carrying the most frequent value at ``position``.

        Falls back to the cardinality (the trivially correct degree bound)
        when the snapshot predates the heavy-hitter counts.
        """
        if position < len(self.max_frequencies):
            return self.max_frequencies[position]
        return self.cardinality


class PositionCounts:
    """Per-position value counts: the maintained backing of :class:`RelationStatistics`.

    Built completely from the rows before the relation stores it, so a
    concurrent reader of a pinned relation finds either no counts or a whole
    object, never one half-initialised.  Point maintenance is O(arity): an
    insertion can only raise a position's max-frequency, while a deletion of
    a row carrying the maximal value may or may not lower it (another value
    can share it), so that position is marked dirty (``None``) and
    recomputed at the next :meth:`snapshot`.
    """

    __slots__ = ("relation", "cardinality", "_counts", "_maxes", "_snapshot")

    def __init__(self, relation: str, arity: int, rows: Collection[Sequence[Value]] = ()) -> None:
        counts: List[Dict[Value, int]] = []
        for position in range(arity):
            column: Dict[Value, int] = {}
            for row in rows:
                value = row[position]
                column[value] = column.get(value, 0) + 1
            counts.append(column)
        self.relation = relation
        self.cardinality = len(rows)
        self._counts = counts
        #: ``None`` marks a position whose max-frequency is recomputed at
        #: the next :meth:`snapshot` (every position, after a build).
        self._maxes: List[Optional[int]] = [None] * arity
        self._snapshot: Optional[RelationStatistics] = None

    def add(self, row: Sequence[Value]) -> None:
        """Count one inserted row."""
        self.cardinality += 1
        self._snapshot = None
        maxes = self._maxes
        for position, counts in enumerate(self._counts):
            value = row[position]
            count = counts.get(value, 0) + 1
            counts[value] = count
            current = maxes[position]
            if current is not None and count > current:
                maxes[position] = count

    def remove(self, row: Sequence[Value]) -> None:
        """Uncount one deleted row."""
        self.cardinality -= 1
        self._snapshot = None
        maxes = self._maxes
        for position, counts in enumerate(self._counts):
            value = row[position]
            remaining = counts.get(value, 0) - 1
            if remaining > 0:
                counts[value] = remaining
            else:
                counts.pop(value, None)
            if maxes[position] == remaining + 1:
                maxes[position] = None

    def snapshot(self) -> RelationStatistics:
        """The immutable statistics, memoized until the next point mutation."""
        stats = self._snapshot
        if stats is None:
            maxes = self._maxes
            counts = self._counts
            for position, current in enumerate(maxes):
                if current is None:
                    maxes[position] = max(counts[position].values(), default=0)
            stats = RelationStatistics(
                self.relation, self.cardinality, tuple(map(len, counts)), tuple(maxes)
            )
            self._snapshot = stats
        return stats


class HashIndex(dict):
    """Position-values → the rows carrying them: the relation's hash index.

    A plain ``dict`` to its readers, so a probe stays one dictionary lookup;
    :meth:`add` and :meth:`remove` fold a point mutation into one bucket.
    """

    __slots__ = ("positions",)

    def __init__(self, positions: Tuple[int, ...], rows: Iterable[Sequence[Value]] = ()) -> None:
        self.positions = positions
        buckets: Dict[Tuple[Value, ...], list] = {}
        for row in rows:
            buckets.setdefault(tuple(row[p] for p in positions), []).append(row)
        for values, bucket in buckets.items():
            self[values] = tuple(bucket)

    def add(self, row: Tuple[Value, ...]) -> None:
        """File one inserted row under its values."""
        values = tuple(row[p] for p in self.positions)
        self[values] = self.get(values, ()) + (row,)

    def remove(self, row: Tuple[Value, ...]) -> None:
        """Take one deleted row out of its bucket, dropping an emptied bucket."""
        values = tuple(row[p] for p in self.positions)
        bucket = tuple(r for r in self.get(values, ()) if r != row)
        if bucket:
            self[values] = bucket
        else:
            self.pop(values, None)


# ---------------------------------------------------------------------------
# Composite trie indexes (the multiway-join access path)
# ---------------------------------------------------------------------------
class TrieNode:
    """One level of a :class:`TrieIndex`: sorted distinct values → children.

    ``_keys`` holds the :func:`order_key` of every child value in sorted
    order, ``_values`` the values themselves in the matching positions, so
    the leapfrog executor's sorted intersection, the point lookups
    (:meth:`child`) and the range probes (:meth:`range_values`) share one
    structure — the root of a one-position trie *is* the sorted index of
    that position.  A leaf node (the last indexed position) has no
    children; :attr:`count` tracks how many rows reach the node, which is
    what lets point deletions prune emptied paths exactly.
    """

    __slots__ = ("_children", "_keys", "_values", "count")

    def __init__(self) -> None:
        self._children: Dict[Value, "TrieNode"] = {}
        self._keys: List[Tuple[str, Value]] = []
        self._values: List[Value] = []
        self.count = 0

    def child(self, value: Value) -> Optional["TrieNode"]:
        """The child reached by ``value``, or ``None`` (a point lookup)."""
        return self._children.get(value)

    def values(self) -> Tuple[Value, ...]:
        """The distinct child values, ascending in :func:`order_key` order."""
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def range_values(self, op_symbol: str, bound: Value) -> Optional[List[Value]]:
        """Distinct child values satisfying ``value <op> bound``, ascending.

        Returns ``None`` when the level cannot answer *exactly*: an
        unsupported bound, or values that do not all share the bound's type
        family (a scan would raise ``TypeError`` there, and the range probe
        must not silently succeed where the scan errors).
        """
        bound_key = order_key(bound)
        if bound_key is None:
            return None
        keys = self._keys
        if keys and (keys[0][0] != bound_key[0] or keys[-1][0] != bound_key[0]):
            return None
        if op_symbol == "<":
            return self._values[: bisect_left(keys, bound_key)]
        if op_symbol == "<=":
            return self._values[: bisect_right(keys, bound_key)]
        if op_symbol == ">":
            return self._values[bisect_right(keys, bound_key) :]
        if op_symbol == ">=":
            return self._values[bisect_left(keys, bound_key) :]
        if op_symbol == "=":
            return self._values[bisect_left(keys, bound_key) : bisect_right(keys, bound_key)]
        return None

    # -- maintenance ---------------------------------------------------------
    def _ensure_child(self, value: Value) -> Optional["TrieNode"]:
        child = self._children.get(value)
        if child is None:
            key = order_key(value)
            if key is None:
                return None
            child = TrieNode()
            self._children[value] = child
            index = bisect_left(self._keys, key)
            self._keys.insert(index, key)
            self._values.insert(index, value)
        return child

    def _drop_child(self, value: Value) -> None:
        self._children.pop(value, None)
        key = order_key(value)
        if key is None:  # pragma: no cover - unsupported values never stored
            return
        index = bisect_left(self._keys, key)
        while index < len(self._keys) and self._keys[index] == key:
            if self._values[index] == value:
                del self._keys[index]
                del self._values[index]
                return
            index += 1  # pragma: no cover - equal values collapse in the dict


def leapfrog_intersect(nodes: "Sequence[TrieNode]") -> "Iterator[Value]":
    """Values present at *every* node's level, ascending in key order.

    The unified-iterator core of the leapfrog triejoin: one cursor per node,
    the lagging cursors repeatedly seek (bisect) to the largest current key,
    and a value is emitted whenever all cursors agree.  Work is
    O(k · min(level sizes) · log) — independent of the sizes of the larger
    levels, which is what makes the multiway join worst-case optimal.
    """
    if not nodes:
        return
    keys = [node._keys for node in nodes]
    if any(not level for level in keys):
        return
    if len(nodes) == 1:
        yield from nodes[0]._values
        return
    cursors = [0] * len(nodes)
    while True:
        hi = max(keys[i][cursors[i]] for i in range(len(keys)))
        aligned = True
        for i in range(len(keys)):
            if keys[i][cursors[i]] != hi:
                cursors[i] = bisect_left(keys[i], hi, cursors[i])
                if cursors[i] >= len(keys[i]):
                    return
                if keys[i][cursors[i]] != hi:
                    aligned = False
        if not aligned:
            continue
        yield nodes[0]._values[cursors[0]]
        for i in range(len(keys)):
            cursors[i] += 1
            if cursors[i] >= len(keys[i]):
                return


class TrieIndex:
    """Distinct value tuples of several positions, nested in a fixed order.

    The composite index behind the worst-case-optimal multiway join: for
    positions ``(p0, ..., pk)`` the trie's level ``i`` holds the sorted
    distinct values at ``p_i`` among the rows matching the path so far, so a
    leapfrog join can intersect one level per participating atom.  The
    *variable order* is the caller's: the same relation may carry several
    tries over the same positions in different orders
    (:meth:`~repro.relational.database.Relation.trie_index_on` caches one per
    position tuple).

    Maintenance follows the derived-structure contract of
    :class:`~repro.relational.database.Relation`: built once from the live
    rows, :meth:`add`/:meth:`remove` keep it current under point mutations
    (bulk mutations drop the whole trie), and a value outside the supported
    order families at any level marks the trie dead (:attr:`ok` false) —
    dead tries answer nothing and the executor falls back to the binary
    plan, which reproduces reference semantics including ``TypeError``s.
    """

    __slots__ = ("positions", "root", "_ok", "_families")

    def __init__(self, positions: Iterable[int], rows: Iterable[Iterable[Value]] = ()) -> None:
        self.positions = tuple(positions)
        self.root = TrieNode()
        self._ok = True
        #: The order family every value of each level must share; a level
        #: mixing numbers and strings declines — the trie must never be the
        #: reason a comparison that would raise ``TypeError`` under a scan
        #: silently evaluates.
        self._families: List[Optional[str]] = [None] * len(self.positions)
        for row in rows:
            self.add(row)
            if not self._ok:
                break

    @property
    def ok(self) -> bool:
        """Whether the trie can serve the multiway executor at all."""
        return self._ok

    def _mark_dead(self) -> None:
        self._ok = False
        self.root = TrieNode()

    # -- point maintenance ---------------------------------------------------
    def add(self, row: "Iterable[Value]") -> None:
        """Fold one inserted row's indexed positions into the trie."""
        if not self._ok:
            return
        row = tuple(row)
        node = self.root
        node.count += 1
        for level, position in enumerate(self.positions):
            value = row[position]
            key = order_key(value)
            if key is None or self._families[level] not in (None, key[0]):
                self._mark_dead()
                return
            self._families[level] = key[0]
            node = node._ensure_child(value)
            assert node is not None  # order_key succeeded above
            node.count += 1

    def remove(self, row: "Iterable[Value]") -> None:
        """Remove one row's indexed positions, pruning emptied paths."""
        if not self._ok:
            return
        row = tuple(row)
        node = self.root
        node.count -= 1
        if node.count == 0:
            # The last row is gone: an emptied trie accepts whatever a fresh
            # build from the same (empty) row set would.
            self._families = [None] * len(self.positions)
        for position in self.positions:
            value = row[position]
            child = node.child(value)
            if child is None:  # pragma: no cover - adds and removes are paired
                return
            child.count -= 1
            if child.count == 0:
                node._drop_child(value)
                return
            node = child

    # -- probes ---------------------------------------------------------------
    def descend(self, values: "Iterable[Value]") -> Optional[TrieNode]:
        """The node reached by following ``values`` from the root, or ``None``.

        ``None`` either because the trie is dead or because no row carries the
        prefix; callers that must distinguish check :attr:`ok` first.
        """
        if not self._ok:
            return None
        node: Optional[TrieNode] = self.root
        for value in values:
            node = node.child(value)
            if node is None:
                return None
        return node

    def as_nested(self) -> "Dict[Value, object] | int":
        """The whole trie as nested ``{value: subtrie}`` dicts with leaf counts.

        A canonical rendering for the maintenance property tests: two tries
        agree iff their nested forms are equal.
        """

        def render(node: TrieNode, depth: int) -> "Dict[Value, object] | int":
            if depth == len(self.positions):
                return node.count
            return {value: render(node.child(value), depth + 1) for value in node.values()}

        return render(self.root, 0)
