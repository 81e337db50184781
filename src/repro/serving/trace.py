"""Mixed read/update traces for driving the serving layer.

A trace is the service-shaped workload the paper's solvers never see in the
single-request benchmarks: a stream of *rounds*, each committing one update
batch and then serving a batch of recommendation requests drawn — with the
heavy repetition real request logs show — from a small pool of popular
requests.  ``benchmarks/bench_serving.py``, the ``repro serve`` CLI command
and ``examples/serving_trace.py`` all replay the same generator, so the
numbers they print describe the same workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core import (
    AttributeSumCost,
    AttributeSumRating,
    RecommendationProblem,
    compute_top_k,
)
from repro.core.compatibility import QueryConstraint
from repro.core.model import ConstantBound
from repro.queries.ast import Comparison, ComparisonOp, RelationAtom, Var
from repro.queries.cq import ConjunctiveQuery
from repro.serving.server import ServeRequest
from repro.workloads.synthetic import item_selection_query, random_item_database

Delta = List[Tuple[str, str, Tuple]]


def _duplicate_category_violation() -> QueryConstraint:
    """"At most one item per category", as a CQ violation query over ``RQ``.

    A *query* constraint (not a predicate) on purpose: its probes exercise
    the full evaluator per package, which is the cost profile the serving
    layer's shared verdict cache exists to amortise.
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


def serving_problem(num_items: int, seed: int = 0) -> RecommendationProblem:
    """A package problem sized for serving: random items, a joining ``Qc``."""
    database = random_item_database(num_items, seed=seed)
    return RecommendationProblem(
        database=database,
        query=item_selection_query(max_price=30),
        cost=AttributeSumCost("price"),
        val=AttributeSumRating("quality"),
        budget=45.0,
        k=2,
        compatibility=_duplicate_category_violation(),
        size_bound=ConstantBound(2),
        monotone_cost=True,
        antimonotone_compatibility=True,
        monotone_val=True,
        name=f"serving over {num_items} random items",
    )


@dataclass(frozen=True)
class ServingTrace:
    """A problem plus the rounds to replay against it.

    Each round is ``(delta, requests)``: the writer commits ``delta`` (empty
    in round 0, so the initial epoch is also served), then the batch of
    ``requests`` is served.  Replaying the rounds against two servers built
    over *fresh* :func:`build_trace` calls yields comparable answer
    sequences: the deltas are part of the trace, so both replicas walk the
    identical epoch history.
    """

    problem: RecommendationProblem
    rounds: Tuple[Tuple[Tuple[Tuple[str, str, Tuple], ...], Tuple[ServeRequest, ...]], ...]

    @property
    def num_requests(self) -> int:
        return sum(len(requests) for _, requests in self.rounds)


def build_trace(
    num_items: int,
    num_rounds: int,
    batch_size: int,
    seed: int = 0,
) -> ServingTrace:
    """A deterministic mixed read/update trace over a fresh problem.

    The request pool is small and skewed (popular requests repeat within a
    batch, as in a real request log); the update stream inserts fresh items
    and occasionally deletes one it inserted, so every round commits an
    effective delta and opens a new epoch.
    """
    rng = random.Random(seed)
    problem = serving_problem(num_items, seed=seed)

    # The pool of popular requests.  The ``check`` candidate is the *initial*
    # epoch's top-k selection: as the writer commits, its verdict may flip —
    # a request whose answer is epoch-dependent by construction.
    initial_top = compute_top_k(problem)
    pool: List[ServeRequest] = [ServeRequest.top_k()]
    weights: List[float] = [0.30]
    for bound, weight in ((20.0, 0.12), (28.0, 0.12), (34.0, 0.11)):
        pool.append(ServeRequest.exists(bound))
        weights.append(weight)
    pool.append(ServeRequest.count(26.0))
    weights.append(0.20)
    if initial_top.selection is not None:
        pool.append(
            ServeRequest.check(
                [package.sorted_items() for package in initial_top.selection]
            )
        )
        weights.append(0.15)

    categories = sorted({row[1] for row in problem.database.relation("items").rows()})
    inserted: List[Tuple] = []
    rounds = []
    next_iid = 10_000
    for round_index in range(num_rounds):
        delta: Delta = []
        if round_index > 0:
            for _ in range(rng.randint(1, 3)):
                row = (
                    next_iid,
                    rng.choice(categories),
                    rng.randrange(1, 30),
                    rng.randrange(1, 20),
                )
                next_iid += 1
                inserted.append(row)
                delta.append(("insert", "items", row))
            if inserted and rng.random() < 0.5:
                delta.append(("delete", "items", inserted.pop(rng.randrange(len(inserted)))))
        requests = tuple(rng.choices(pool, weights=weights, k=batch_size))
        rounds.append((tuple(delta), requests))
    return ServingTrace(problem=problem, rounds=tuple(rounds))


def overload_problem(num_items: int, seed: int = 0) -> RecommendationProblem:
    """:func:`serving_problem` with a size-3 package bound: a poison lattice.

    Raising the size bound from 2 to 3 makes the candidate lattice cubic in
    ``|Q(D)|``, so a ``count`` request — which must visit every node — runs
    for orders of magnitude longer than a witness search, while the witness
    searches themselves stay fast.  This is the cost asymmetry the
    resilience benchmark's adversarial trace is built on.
    """
    base = serving_problem(num_items, seed=seed)
    return RecommendationProblem(
        database=base.database,
        query=base.query,
        cost=base.cost,
        val=base.val,
        budget=base.budget,
        k=base.k,
        compatibility=base.compatibility,
        size_bound=ConstantBound(3),
        monotone_cost=True,
        antimonotone_compatibility=True,
        monotone_val=True,
        name=f"overload serving over {num_items} random items",
    )


def build_overload_trace(
    num_items: int,
    num_rounds: int,
    batch_size: int,
    seed: int = 0,
    poison_per_batch: int = 3,
) -> ServingTrace:
    """An adversarial trace: a few poison requests buried in cheap traffic.

    Each round opens with ``poison_per_batch`` *poison* requests — ``count``
    probes with round-unique (hence never-memoized) bounds that must sweep
    the whole size-3 lattice of :func:`overload_problem` — followed by cheap
    witness probes (``exists`` with low bounds) that repeat heavily, so an
    epoch's first computation is amortised by the answer memo.  Poison leads
    the batch on purpose: an unguarded server runs every poison request to
    the end before any cheap request behind it, which is exactly the
    overload a deadline is for.  Deltas are part of the trace, so replicas
    replaying it walk the identical epoch history (faults injected at
    ``serving.worker`` never touch the commit path).
    """
    rng = random.Random(seed)
    problem = overload_problem(num_items, seed=seed)

    cheap_pool: List[ServeRequest] = [
        ServeRequest.exists(1.0),
        ServeRequest.exists(2.0),
        ServeRequest.exists(3.0),
        ServeRequest.exists(4.0),
    ]
    categories = sorted({row[1] for row in problem.database.relation("items").rows()})
    rounds = []
    next_iid = 50_000
    for round_index in range(num_rounds):
        delta: Delta = []
        if round_index > 0:
            row = (
                next_iid,
                rng.choice(categories),
                rng.randrange(1, 30),
                rng.randrange(1, 20),
            )
            next_iid += 1
            delta.append(("insert", "items", row))
        poison = tuple(
            # Distinct negative bounds: every valid package qualifies, the
            # full lattice is swept, and no two poison requests ever share a
            # memo entry.
            ServeRequest.count(-1.0 - round_index * poison_per_batch - slot)
            for slot in range(poison_per_batch)
        )
        cheap = tuple(
            rng.choices(cheap_pool, k=max(0, batch_size - poison_per_batch))
        )
        rounds.append((tuple(delta), poison + cheap))
    return ServingTrace(problem=problem, rounds=tuple(rounds))
