"""The benchmark's workloads: seeded generators, sessions and checks.

Every input the program sees is generated here from the run's seed: the item
rows, the churn deltas, the request stream and the commit stream.  A
:class:`Session` owns one set-up instance of a workload (database, server,
durability directory); the runner in ``run.py`` drives :meth:`Session.step`
in a closed loop, then :meth:`Session.finish` closes and recovers, and
:meth:`Session.check` verifies every output outside the timed region.

Every run starts from the same item catalogue, and churn replaces an item by
a fresh one of the same category and price class.  The size of ``Q(D)``,
hence of the package lattice, is then the same in every run and every epoch,
so a run's cost does not drift with the epoch or jump with the seed; the
seed drives the churn and the request stream.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import durability
from repro.core import AttributeSumCost, AttributeSumRating, RecommendationProblem
from repro.core.compatibility import QueryConstraint
from repro.core.model import ConstantBound
from repro.core.oracle import ExistPackOracle
from repro.durability import DurabilityConfig, encode_row
from repro.queries.ast import Comparison, ComparisonOp, RelationAtom, Var
from repro.queries.cq import ConjunctiveQuery
from repro.relational.database import Database, Relation
from repro.serving import ServeRequest, SnapshotServer, execute_request
from repro.workloads.synthetic import item_schema, item_selection_query

_perf = time.perf_counter

CATEGORIES = ("a", "b", "c", "d")
#: The selection query keeps items priced at most this much.
MAX_PRICE = 30
#: Share of each category's items that pass the price filter.
QUALIFYING_SHARE = 0.6
#: Seed of the initial catalogue, which every run shares.
CATALOGUE_SEED = 0
#: How many times ``finish`` runs ``recover``; the median is reported.
RECOVER_REPEATS = 3


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
def catalogue(num_items: int) -> List[Tuple]:
    """The initial ``items`` rows ``(iid, category, price, quality)``.

    The same for every seed, so set-up does the same work in every run; the
    run's seed drives the churn and the requests.  Each category holds a
    quarter of the items, :data:`QUALIFYING_SHARE` of them pass the price
    filter, and prices and qualities are spread evenly and paired at random.
    """
    rng = random.Random(CATALOGUE_SEED)
    per_category = num_items // len(CATEGORIES)
    qualifying = round(per_category * QUALIFYING_SHARE)
    rows: List[Tuple] = []
    for category in CATEGORIES:
        prices = _spread(1, MAX_PRICE, qualifying) + _spread(
            MAX_PRICE + 1, 49, per_category - qualifying
        )
        qualities = _spread(1, 19, per_category)
        rng.shuffle(qualities)
        for price, quality in zip(prices, qualities):
            rows.append((len(rows), category, price, quality))
    return rows


def _spread(low: int, high: int, count: int) -> List[int]:
    """``count`` integers spread evenly over ``[low, high]``."""
    if count == 1:
        return [low]
    return [low + index * (high - low) // (count - 1) for index in range(count)]


class FreshItems:
    """Seeded new rows: each like a given row in category and price class."""

    def __init__(self, rng: random.Random, next_iid: int) -> None:
        self.rng = rng
        self.next_iid = next_iid

    def like(self, row: Tuple) -> Tuple:
        rng = self.rng
        if row[2] <= MAX_PRICE:
            price = rng.randrange(1, MAX_PRICE + 1)
        else:
            price = rng.randrange(MAX_PRICE + 1, 50)
        fresh = (self.next_iid, row[1], price, rng.randrange(1, 20))
        self.next_iid += 1
        return fresh


class LiveRows:
    """The generator's model of a relation's rows, with O(1) random picks."""

    def __init__(self, rows: Sequence[Tuple]) -> None:
        self.rows = list(rows)

    def pop_random(self, rng: random.Random, keep: frozenset = frozenset()) -> Tuple:
        """Remove and return a random row that is not in ``keep``."""
        index = rng.randrange(len(self.rows))
        while self.rows[index] in keep:
            index = rng.randrange(len(self.rows))
        self.rows[index], self.rows[-1] = self.rows[-1], self.rows[index]
        return self.rows.pop()

    def add(self, row: Tuple) -> None:
        self.rows.append(row)


def items_database(rows: Sequence[Tuple]) -> Database:
    return Database([Relation(item_schema(), rows)])


def duplicate_category_violation() -> QueryConstraint:
    """``Qc``: a CQ over ``RQ`` finding two items of one category.

    A query constraint, so every verdict-cache miss runs the planner and the
    executor on the package.
    """
    iid1, iid2, category = Var("iid1"), Var("iid2"), Var("category")
    p1, q1, p2, q2 = Var("p1"), Var("q1"), Var("p2"), Var("q2")
    violation = ConjunctiveQuery(
        [],
        [
            RelationAtom("RQ", [iid1, category, p1, q1]),
            RelationAtom("RQ", [iid2, category, p2, q2]),
        ],
        [Comparison(ComparisonOp.NE, iid1, iid2)],
        name="duplicate_category",
    )
    return QueryConstraint(violation, answer_relation="RQ")


def serving_problem(database: Database) -> RecommendationProblem:
    """Top-2 packages of at most two compatible items within a budget of 45."""
    return RecommendationProblem(
        database=database,
        query=item_selection_query(max_price=MAX_PRICE),
        cost=AttributeSumCost("price"),
        val=AttributeSumRating("quality"),
        budget=45.0,
        k=2,
        compatibility=duplicate_category_violation(),
        size_bound=ConstantBound(2),
        monotone_cost=True,
        antimonotone_compatibility=True,
        monotone_val=True,
        name="stackbench serving problem",
    )


def user_bytes(modifications) -> int:
    """Encoded size of a delta's rows: what a user asked to make durable."""
    return sum(len(encode_row(row)) for _, _, row in modifications)


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------
@dataclass
class Step:
    """One closed-loop step as the client saw it."""

    wall_s: float
    op_latencies_s: Tuple[float, ...]
    ops: int
    attempted: int
    failed: int


@dataclass
class Finish:
    """What ``close`` + ``recover`` cost and left behind."""

    recover_s: List[float]
    wal_bytes_at_close: int
    recovered: Database = field(repr=False)
    recovered_epoch: int = 0


class Session:
    """One set-up instance of a workload."""

    name = ""
    #: Latency percentile reported as ``op_tail_ms``.
    tail_percentile = 95
    checkpoint_every: Optional[int] = None

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.user_bytes = 0
        self.commits = 0
        self.records: List[Tuple[int, ServeRequest, Optional[tuple]]] = []

    # The subclass builds ``self.server`` in ``__init__``.
    server: SnapshotServer

    def step(self) -> Step:
        raise NotImplementedError

    def _commit(self, delta) -> Tuple[float, bool]:
        """Apply one durable commit; returns (latency, ok)."""
        start = _perf()
        try:
            applied = self.server.apply(delta)
        except Exception:  # a failed commit is counted, never fatal
            return _perf() - start, False
        latency = _perf() - start
        self.commits += 1
        self.user_bytes += user_bytes(applied.effective)
        return latency, True

    def _record(self, results) -> int:
        """Keep every answer for the checks; returns how many requests failed."""
        failed = 0
        for result in results:
            if result.ok:
                self.records.append((result.epoch, result.request, result.answer))
            else:
                failed += 1
        return failed

    def finish(self) -> Finish:
        """Close the server (the last ack is durable), then time ``recover``."""
        self.server.close()
        wal_bytes = durability.wal_path(self.directory).stat().st_size
        times = []
        result = None
        for _ in range(RECOVER_REPEATS):
            start = _perf()
            result = durability.recover(self.directory)
            times.append(_perf() - start)
        return Finish(times, wal_bytes, result.database, result.epoch)

    def check(self, finish: Finish) -> List[str]:
        """Every correctness failure of the run, as messages (empty = correct)."""
        return check_recovery(finish.recovered, finish.recovered_epoch, self.server.database)


class ServeChurn(Session):
    """Rounds of one durable commit followed by one skewed batch of requests."""

    name = "serve-churn"
    tail_percentile = 80
    checkpoint_every = 10
    #: Share of the items replaced by each round's commit.  A fifth makes
    #: the data of rounds a few apart nearly independent, so a run averages
    #: over many data states rather than the few its seed starts from.
    churn_share = 0.2

    def __init__(self, seed: int, directory: Path, num_items: int = 120, batch_size: int = 48) -> None:
        super().__init__(directory)
        self.rng = random.Random(seed)
        rows = catalogue(num_items)
        self.items = FreshItems(self.rng, len(rows))
        self.live = LiveRows(rows)
        self.replaced_per_round = max(1, round(num_items * self.churn_share))
        problem = serving_problem(items_database(rows))
        self.batch_size = batch_size
        self.server = SnapshotServer(
            problem,
            durability=DurabilityConfig(directory, checkpoint_every=self.checkpoint_every),
        )
        # The popular requests, weighted as in a skewed request log.  The
        # last, ``check``, asks whether the top-k served in the previous round
        # is still the top-k.  Its items survive the churn, so it always
        # passes validity and runs the optimality search.
        initial_top = execute_request(problem.pinned(), ServeRequest.top_k())
        self.pool = [
            ServeRequest.top_k(),
            ServeRequest.exists(20.0),
            ServeRequest.exists(28.0),
            ServeRequest.exists(34.0),
            ServeRequest.count(26.0),
            ServeRequest.check(initial_top[1]),
        ]
        self.weights = [0.30, 0.12, 0.12, 0.11, 0.20, 0.15]
        database = self.server.database
        self.archive: Dict[int, Database] = {database.epoch: database.copy()}

    def step(self) -> Step:
        rng = self.rng
        shown = frozenset(item for package in self.pool[-1].selection_items for item in package)
        delta = []
        for _ in range(self.replaced_per_round):
            old = self.live.pop_random(rng, shown)
            new = self.items.like(old)
            self.live.add(new)
            delta.append(("delete", "items", old))
            delta.append(("insert", "items", new))
        requests = rng.choices(self.pool, weights=self.weights, k=self.batch_size)
        commit_s, committed = self._commit(delta)
        start = _perf()
        results = self.server.serve_batch(requests)
        batch_s = _perf() - start
        database = self.server.database
        self.archive.setdefault(database.epoch, database.copy())
        for result in results:
            if result.ok and result.request.kind == "top_k" and result.answer[1] is not None:
                self.pool[-1] = ServeRequest.check(result.answer[1])
                break
        failed = self._record(results) + (not committed)
        return Step(commit_s + batch_s, (batch_s,), len(results), len(requests) + 1, failed)

    def check(self, finish: Finish) -> List[str]:
        failures = super().check(finish)
        failures += check_epoch_answers(self.records, self.archive, self.server.problem)
        return failures


class ServeWarm(Session):
    """One epoch, a filled verdict cache, and only distinct requests."""

    name = "serve-warm"
    tail_percentile = 95

    def __init__(self, seed: int, directory: Path, num_items: int = 120, batch_size: int = 10) -> None:
        super().__init__(directory)
        self.rng = random.Random(seed)
        rows = catalogue(num_items)
        problem = serving_problem(items_database(rows))
        self.batch_size = batch_size
        self.server = SnapshotServer(problem, durability=DurabilityConfig(directory))
        # Warm-up: a count below every rating visits the whole lattice, so
        # every verdict of this epoch is cached before timing starts.
        self.server.serve_one(ServeRequest.count(-1.0))

    def _request(self) -> ServeRequest:
        rng = self.rng
        bound = rng.uniform(4.0, 36.0)
        if rng.random() < 0.5:
            return ServeRequest.exists(bound)
        return ServeRequest.count(bound)

    def step(self) -> Step:
        requests = [self._request() for _ in range(self.batch_size)]
        start = _perf()
        results = self.server.serve_batch(requests)
        batch_s = _perf() - start
        return Step(batch_s, (batch_s,), len(results), len(requests), self._record(results))

    def check(self, finish: Finish) -> List[str]:
        failures = super().check(finish)
        failures += check_pinned_answers(self.records, self.server.problem)
        return failures


#: The benchmark's workloads, as ``BENCHMARK.json`` lists them.
WORKLOADS = {cls.name: cls for cls in (ServeChurn, ServeWarm)}


# ---------------------------------------------------------------------------
# Correctness checks (run outside the timed region)
# ---------------------------------------------------------------------------
def check_recovery(recovered: Database, recovered_epoch: int, live: Database) -> List[str]:
    """``recover(dir)`` must equal the live rows and epoch at the last ack."""
    failures = []
    if recovered_epoch != live.epoch:
        failures.append(f"recovered epoch {recovered_epoch} != last acked epoch {live.epoch}")
    if recovered.relation_names() != live.relation_names():
        failures.append("recovered relations differ from the live ones")
        return failures
    for name in live.relation_names():
        if recovered.relation(name).rows() != live.relation(name).rows():
            failures.append(f"recovered rows of {name!r} differ from the live rows")
    return failures


def check_epoch_answers(
    records: Sequence[Tuple[int, ServeRequest, Optional[tuple]]],
    archive: Dict[int, Database],
    template: RecommendationProblem,
) -> List[str]:
    """Each ``(epoch, answer)`` equals a serial re-execution on that epoch's copy."""
    failures = []
    expected: Dict[Tuple[int, ServeRequest], tuple] = {}
    problems: Dict[int, RecommendationProblem] = {}
    for epoch, request, answer in records:
        key = (epoch, request)
        if key not in expected:
            if epoch not in archive:
                failures.append(f"answer tagged with unarchived epoch {epoch}")
                continue
            problem = problems.get(epoch)
            if problem is None:
                problem = problems[epoch] = template.with_database(archive[epoch])
            expected[key] = execute_request(problem, request)
        if answer != expected[key]:
            failures.append(f"{request.describe()} at epoch {epoch}: {answer!r} != {expected[key]!r}")
    return failures


def check_pinned_answers(
    records: Sequence[Tuple[int, ServeRequest, Optional[tuple]]],
    template: RecommendationProblem,
) -> List[str]:
    """Each answer equals a serial re-execution on a fresh pin of its epoch."""
    failures = []
    pin = template.pinned()
    oracle = ExistPackOracle(pin)
    for epoch, request, answer in records:
        if epoch != pin.database.epoch:
            failures.append(f"answer tagged with epoch {epoch}, expected {pin.database.epoch}")
            continue
        expected = execute_request(pin, request, oracle=oracle)
        if answer != expected:
            failures.append(f"{request.describe()}: {answer!r} != {expected!r}")
    return failures
