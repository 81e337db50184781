"""Per-position columnar encoding of a relation, with vectorized kernels.

At million-tuple scale the tuple-set executor pays interpreter dispatch per
row: every scan step funnels each candidate tuple through the Python row
matcher and the comparison schedule.  :class:`ColumnarRelation` re-encodes a
relation column by column — stdlib :mod:`array` columns for ints, floats and
booleans, dictionary encoding for strings — so the scan/filter inner loops
can run as a handful of vectorized operations over contiguous buffers
(NumPy when importable, a pure-Python loop over the same columns otherwise)
instead of one interpreter round-trip per row.

The encoding is one of the derived structures in
:class:`~repro.relational.database.Relation`'s registry, under the
maintenance contract it shares with the hash indexes, tries and statistics:

* built on first use (:meth:`Relation.columnar`), kept in the registry;
* maintained *in place* by point mutations and ``apply_delta`` streams —
  :meth:`add` appends one row to every column, :meth:`remove` swap-removes
  it, both O(arity), so undo round-trips restore the exact encoded contents;
* dropped wholesale by bulk mutations (``clear`` / ``replace_rows``);
* **declining** on value families it cannot encode exactly: each column must
  hold one exact type family (``bool``, int-within-int64, ``float`` or
  ``str``) — a mixed or unsupported column marks the whole encoding dead
  (:attr:`ok` false) and the tuple-set path stays the semantic reference.

The families are deliberately *exact-type*, unlike the tries' numeric
order family: the encoding must round-trip values bit-exactly (``1`` must
never come back as ``1.0``), so ``bool``/``int``/``float`` are three
distinct families here even though they compare numerically.

Honesty of the kernels mirrors the range probes: :meth:`select` applies a
pushed-down predicate only when its bound shares the column's exact family
(where NumPy/Python comparison semantics provably agree); anything else is
simply *not applied* — the predicate stays in the executor's comparison
schedule, which rechecks every surfaced row, so a comparison that would
raise ``TypeError`` under a scan still raises, and a cross-family numeric
bound is still decided by Python's exact arithmetic.  Kernels therefore
surface a superset of the matching rows and never filter where the
reference path would error.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.relational.schema import Value

try:  # optional acceleration; every kernel has a pure-Python fallback
    import numpy as _np
except ImportError:  # pragma: no cover - the container ships numpy
    _np = None

Row = Tuple[Value, ...]

#: Exact-type column families.  ``bool`` is checked before ``int`` (it is a
#: subclass) and ints must fit a signed 64-bit machine word to encode.
FAMILY_BOOL = "bool"
FAMILY_INT = "int"
FAMILY_FLOAT = "float"
FAMILY_STR = "str"

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: array typecode per family; string columns store dictionary codes.
_TYPECODES = {FAMILY_BOOL: "b", FAMILY_INT: "q", FAMILY_FLOAT: "d", FAMILY_STR: "q"}

_NUMPY_DTYPES = (
    {FAMILY_BOOL: "int8", FAMILY_INT: "int64", FAMILY_FLOAT: "float64", FAMILY_STR: "int64"}
    if _np is not None
    else {}
)


def value_family(value: Value) -> Optional[str]:
    """The exact-type column family of a value, or ``None`` if unencodable."""
    kind = type(value)
    if kind is bool:
        return FAMILY_BOOL
    if kind is int:
        return FAMILY_INT if _INT64_MIN <= value <= _INT64_MAX else None
    if kind is float:
        return FAMILY_FLOAT
    if kind is str:
        return FAMILY_STR
    return None


class ColumnarRelation:
    """The per-position columnar encoding of one relation's row set.

    ``_rows_list`` keeps the original row tuples in column order, so kernels
    yield the very objects the tuple-set path would — no decode on the hot
    path (decoding exists for the round-trip property tests only).
    ``_positions`` maps each row to its slot, which is what makes point
    deletion an O(arity) swap-remove instead of an O(rows) rebuild; the
    internal order is therefore maintenance-history dependent, and all
    equality checks on encodings must be order-insensitive.
    """

    __slots__ = (
        "arity",
        "_rows_list",
        "_positions",
        "_families",
        "_columns",
        "_codes",
        "_decode",
        "_ok",
    )

    def __init__(self, arity: int, rows: Iterable[Row] = ()) -> None:
        self.arity = arity
        self._rows_list: List[Row] = []
        self._positions: Dict[Row, int] = {}
        #: Per-column family, fixed by the first row encoded.
        self._families: List[Optional[str]] = [None] * arity
        self._columns: List[array] = []
        #: Per-column string dictionary (value → code); ``None`` off str columns.
        self._codes: List[Optional[Dict[str, int]]] = [None] * arity
        #: The inverse dictionaries (code → value), for decoding.
        self._decode: List[Optional[List[str]]] = [None] * arity
        # A nullary relation has nothing to vectorize over; decline up front
        # so the executor's membership-test semantics stay on the row set.
        self._ok = arity > 0
        for row in rows:
            self.add(row)
            if not self._ok:
                break

    @property
    def ok(self) -> bool:
        """Whether the encoding can serve kernels at all."""
        return self._ok

    def __len__(self) -> int:
        return len(self._rows_list)

    def _mark_dead(self) -> None:
        self._ok = False
        self._rows_list = []
        self._positions = {}
        self._columns = []

    # -- point maintenance ----------------------------------------------------
    def add(self, row: Row) -> None:
        """Append one inserted row to every column (O(arity))."""
        if not self._ok:
            return
        if not self._rows_list:
            # First row — or first after the last removal: (re-)fix the
            # column families, so an emptied encoding accepts whatever a
            # fresh build from the same (empty) row set would.
            families = [value_family(value) for value in row]
            if None in families:
                self._mark_dead()
                return
            self._families = families
            self._columns = [array(_TYPECODES[family]) for family in families]
            self._codes = [None] * self.arity
            self._decode = [None] * self.arity
            for position, family in enumerate(families):
                if family is FAMILY_STR:
                    self._codes[position] = {}
                    self._decode[position] = []
        encoded: List[object] = []
        for position, value in enumerate(row):
            if value_family(value) != self._families[position]:
                self._mark_dead()
                return
            if self._families[position] is FAMILY_STR:
                codes = self._codes[position]
                code = codes.get(value)
                if code is None:
                    code = codes[value] = len(codes)
                    self._decode[position].append(value)
                encoded.append(code)
            else:
                encoded.append(value)
        for column, item in zip(self._columns, encoded):
            column.append(item)
        self._positions[row] = len(self._rows_list)
        self._rows_list.append(row)

    def remove(self, row: Row) -> None:
        """Swap-remove one deleted row from every column (O(arity))."""
        if not self._ok:
            return
        index = self._positions.pop(row, None)
        if index is None:  # pragma: no cover - adds and removes are paired
            return
        last = len(self._rows_list) - 1
        if index != last:
            moved = self._rows_list[last]
            self._rows_list[index] = moved
            self._positions[moved] = index
            for column in self._columns:
                column[index] = column[last]
        del self._rows_list[last]
        for column in self._columns:
            del column[last]

    # -- kernels ---------------------------------------------------------------
    def _column_view(self, position: int):
        """The column as a NumPy view over the array's buffer (zero-copy)."""
        return _np.frombuffer(
            memoryview(self._columns[position]), dtype=_NUMPY_DTYPES[self._families[position]]
        )

    def _predicate_mask(self, position: int, op_symbol: str, bound: Value):
        """A boolean mask for ``column[position] <op> bound``, or ``None``.

        ``None`` declines the predicate: the bound's exact family differs
        from the column's (NumPy promotion or cross-family semantics could
        then diverge from Python's per-row arithmetic), so the caller leaves
        it to the executor's comparison schedule.  An applied mask is exact —
        same-family ``int64``/``float64``/string comparisons agree with
        Python bit for bit (NaN included: incomparable under both).
        """
        family = self._families[position]
        if value_family(bound) != family:
            return None
        if family is FAMILY_STR:
            codes = self._codes[position]
            if op_symbol == "=":
                code = codes.get(bound)
                qualifying = [code] if code is not None else []
            else:
                # Ordering over strings: decide each distinct dictionary
                # value in Python (exact lexicographic semantics), then match
                # codes — O(distinct) Python work, O(rows) vector work.
                compare = {
                    "<": lambda v: v < bound,
                    "<=": lambda v: v <= bound,
                    ">": lambda v: v > bound,
                    ">=": lambda v: v >= bound,
                }.get(op_symbol)
                if compare is None:
                    return None
                qualifying = [
                    code for code, value in enumerate(self._decode[position]) if compare(value)
                ]
            if _np is not None:
                view = self._column_view(position)
                if not qualifying:
                    return _np.zeros(len(view), dtype=bool)
                if len(qualifying) == 1:
                    return view == qualifying[0]
                return _np.isin(view, _np.asarray(qualifying, dtype="int64"))
            wanted = set(qualifying)
            return [code in wanted for code in self._columns[position]]
        target = int(bound) if family is FAMILY_BOOL else bound
        if _np is not None:
            view = self._column_view(position)
            if op_symbol == "<":
                return view < target
            if op_symbol == "<=":
                return view <= target
            if op_symbol == ">":
                return view > target
            if op_symbol == ">=":
                return view >= target
            if op_symbol == "=":
                return view == target
            return None
        compare = {
            "<": lambda v: v < target,
            "<=": lambda v: v <= target,
            ">": lambda v: v > target,
            ">=": lambda v: v >= target,
            "=": lambda v: v == target,
        }.get(op_symbol)
        if compare is None:
            return None
        return [compare(value) for value in self._columns[position]]

    def select(
        self, predicates: Sequence[Tuple[int, str, Value]]
    ) -> Optional[Tuple[Row, ...]]:
        """Rows satisfying every *applicable* pushed-down predicate.

        ``predicates`` are ``(position, op_symbol, bound)`` triples.  Each is
        applied only when :meth:`_predicate_mask` can answer it exactly;
        inapplicable predicates are skipped, so the result is a superset of
        the rows satisfying all of them — the executor's row matcher and
        comparison schedule recheck every surfaced row, preserving reference
        semantics (including ``TypeError`` on family-mismatched predicates).
        Returns ``None`` only when the encoding is dead.
        """
        if not self._ok:
            return None
        rows = self._rows_list
        if not rows:
            return ()
        mask = None
        for position, op_symbol, bound in predicates:
            predicate_mask = self._predicate_mask(position, op_symbol, bound)
            if predicate_mask is None:
                continue
            if mask is None:
                mask = predicate_mask
            elif _np is not None:
                mask &= predicate_mask
            else:
                mask = [a and b for a, b in zip(mask, predicate_mask)]
        if mask is None:
            return tuple(rows)
        if _np is not None:
            return tuple(rows[int(i)] for i in _np.nonzero(mask)[0])
        return tuple(row for row, keep in zip(rows, mask) if keep)

    def match_rows(
        self,
        const_eqs: Sequence[Tuple[int, Value]],
        pair_eqs: Sequence[Tuple[int, int]],
    ) -> Optional[Tuple[Row, ...]]:
        """The vectorized atom-match filter behind the semi-join passes.

        ``const_eqs`` are ``(position, value)`` equality constraints
        (constants in the atom, or variables ground under the initial
        binding); ``pair_eqs`` are ``(position, position)`` equalities from
        repeated variables.  Same-family constraints are decided exactly;
        a cross-family constant can equal nothing in an exact-family column
        *except* across the numeric families (``True == 1 == 1.0``), where
        NumPy promotion could diverge from Python's exact arithmetic — those
        decline (return ``None``) and the caller falls back to the row-wise
        matcher.  Every surfaced row is re-matched by the executor, so a
        superset is safe; a subset never is, hence the declines.
        """
        if not self._ok:
            return None
        rows = self._rows_list
        if not rows:
            return ()
        numeric = (FAMILY_BOOL, FAMILY_INT, FAMILY_FLOAT)
        mask = None

        def conjoin(mask, predicate_mask):
            if mask is None:
                return predicate_mask
            if _np is not None:
                mask &= predicate_mask
                return mask
            return [a and b for a, b in zip(mask, predicate_mask)]

        for position, value in const_eqs:
            family = value_family(value)
            column_family = self._families[position]
            if family != column_family:
                if family in numeric and column_family in numeric:
                    return None  # exact cross-numeric equality: Python decides
                if family is None:
                    return None  # arbitrary __eq__: only the matcher is exact
                return ()  # disjoint families (e.g. str vs int): nothing matches
            predicate_mask = self._predicate_mask(position, "=", value)
            if predicate_mask is None:  # pragma: no cover - families match above
                return None
            mask = conjoin(mask, predicate_mask)
        for left, right in pair_eqs:
            if self._families[left] != self._families[right]:
                return None  # cross-family row equality: Python decides
            if self._families[left] is FAMILY_STR:
                # Per-column dictionaries assign codes independently, so raw
                # code equality across columns is meaningless: translate the
                # left column's codes into the right column's code space
                # (O(distinct) Python work; -1 marks values the right column
                # never saw, which no right code can equal).
                right_codes = self._codes[right]
                translation = [
                    right_codes.get(value, -1) for value in self._decode[left]
                ]
                if _np is not None:
                    translated = _np.asarray(translation, dtype="int64")[
                        self._column_view(left)
                    ]
                    predicate_mask = translated == self._column_view(right)
                else:
                    predicate_mask = [
                        translation[a] == b
                        for a, b in zip(self._columns[left], self._columns[right])
                    ]
            elif _np is not None:
                predicate_mask = self._column_view(left) == self._column_view(right)
            else:
                predicate_mask = [
                    a == b for a, b in zip(self._columns[left], self._columns[right])
                ]
            mask = conjoin(mask, predicate_mask)
        if mask is None:
            return tuple(rows)
        if _np is not None:
            return tuple(rows[int(i)] for i in _np.nonzero(mask)[0])
        return tuple(row for row, keep in zip(rows, mask) if keep)

    # -- round-trip / introspection (tests) ------------------------------------
    def families(self) -> Tuple[Optional[str], ...]:
        """The per-column families (``None`` before the first row fixes them)."""
        return tuple(self._families)

    def decoded_rows(self) -> Tuple[Row, ...]:
        """Every row decoded from the columns, in internal (swap) order.

        The round-trip the property tests pin: decoding must reproduce the
        original tuples exactly, types included (``bool`` columns come back
        as ``bool``, never ``int``; string codes resolve through the
        dictionary).
        """
        if not self._ok:
            return ()
        decoded: List[Row] = []
        for index in range(len(self._rows_list)):
            values: List[Value] = []
            for position, family in enumerate(self._families):
                raw = self._columns[position][index]
                if family is FAMILY_BOOL:
                    values.append(bool(raw))
                elif family is FAMILY_STR:
                    values.append(self._decode[position][raw])
                else:
                    values.append(raw)
            decoded.append(tuple(values))
        return tuple(decoded)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "ok" if self._ok else "declined"
        return f"ColumnarRelation(arity={self.arity}, {len(self._rows_list)} rows, {state})"
