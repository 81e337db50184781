"""The traced run's probe table and per-layer metrics.

:func:`install` wraps the public entry points of the served path, layer by
layer, with a :class:`~tracer.LayerTracer`; :func:`layer_metrics` turns the
tracer's aggregates, the program's own counters (``cache_info()``,
``plan_cache_info()`` and the ``use_metrics`` registry) and the session's
totals into the ``per_layer`` metrics of ``BENCHMARK.json``.

Layers are the ``repro`` packages the requests and commits cross:
``serving``, ``relational``, ``core``, ``queries`` and ``durability``.
A probe key's first dotted segment names its layer.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

import repro.durability as durability_package
import repro.queries.bindings as bindings_module
import repro.queries.cq as cq_module
import repro.serving.server as server_module
from repro.core.compatibility import CompatibilityOracle, QueryConstraint
from repro.core.model import RecommendationProblem
from repro.core.oracle import ExistPackOracle
from repro.core.packages import Package
from repro.durability.wal import WriteAheadLog
from repro.queries.plan import plan_cache_info
from repro.relational.database import Database

from stackbench.tracer import LayerTracer

LAYERS = ("serving", "relational", "core", "queries", "durability")
#: The program's own ``use_metrics`` counters the per-layer metrics read.
REGISTRY_COUNTERS = ("database.cow_clones", "wal.bytes.appended", "wal.fsyncs")


class OracleSeen:
    """A verdict oracle the run used, with its counters when first seen.

    Oracles built during set-up (serve-warm's warmed one) already hold
    entries and misses; the run's share is the growth past the baseline.
    """

    def __init__(self, oracle: CompatibilityOracle) -> None:
        info = oracle.cache_info()
        self.oracle = oracle
        self.misses_before = info["misses"]
        self.entries_before = info["size"]

    def misses(self) -> int:
        return self.oracle.misses - self.misses_before

    def entries(self) -> int:
        return self.oracle.cache_info()["size"]

    def new_entries(self) -> int:
        return self.entries() - self.entries_before


def install(tracer: LayerTracer) -> Dict[int, OracleSeen]:
    """Wrap every probe; returns where the run's verdict oracles are collected."""

    def method(owner: type, name: str, key: str, **options) -> None:
        tracer.patch(owner, name, tracer.wrap(key, owner.__dict__[name], **options))

    def function(module, name: str, key: str, **options) -> None:
        tracer.patch(module, name, tracer.wrap(key, getattr(module, name), **options))

    server = server_module.SnapshotServer
    method(server, "serve_batch", "serving.batch", keep_spans=True)
    method(server, "serve_one", "serving.request", keep_spans=True)
    method(server, "apply", "serving.apply")
    method(server, "checkpoint", "serving.checkpoint")
    method(server, "close", "serving.close")
    function(server_module, "execute_request", "serving.execute")

    method(Database, "snapshot", "relational.pin")
    method(
        Database,
        "apply_delta",
        "relational.commit",
        rekey={"durability.recover": "durability.recover.replay"},
    )

    method(QueryConstraint, "is_satisfied", "core.qc.eval")
    method(Package, "as_relation", "core.package.as_relation")
    method(CompatibilityOracle, "is_satisfied", "core.oracle.lookup")
    method(RecommendationProblem, "candidate_items", "core.candidates")
    for name in ("compute_top_k", "count_valid_packages", "is_top_k_selection"):
        function(server_module, name, "core.search")
    method(ExistPackOracle, "__call__", "core.search")
    # Every search engine fetches its oracle through this method, so every
    # oracle a request uses is seen, including one warmed during set-up.
    oracles: Dict[int, OracleSeen] = {}

    def seen(oracle: CompatibilityOracle) -> None:
        if id(oracle) not in oracles:
            oracles.setdefault(id(oracle), OracleSeen(oracle))

    tracer.observe(RecommendationProblem, "compatibility_oracle", seen)

    function(bindings_module, "cached_plan", "queries.plan")
    tracer.patch(
        cq_module,
        "enumerate_bindings",
        tracer.wrap_generator("queries.exec", cq_module.enumerate_bindings),
    )

    method(WriteAheadLog, "append", "durability.wal.append")
    method(WriteAheadLog, "sync", "durability.wal.sync")
    method(WriteAheadLog, "truncate_through", "durability.wal.truncate")
    method(WriteAheadLog, "close", "durability.wal.close")
    function(durability_package, "write_checkpoint", "durability.checkpoint")
    function(durability_package, "recover", "durability.recover")
    return oracles


def _batch_split(
    batches: Sequence[Tuple[float, float]], requests: Sequence[Tuple[float, float]]
) -> Tuple[float, float]:
    """``(batch self time, queue wait)`` summed over batches.

    Batches come from one generator thread, so they never overlap and each
    request interval starts inside exactly one batch.  A batch's self time
    is the part of it no request interval covers (pool start-up and
    teardown, deduplication, dispatch); a request's queue wait runs from its
    batch's entry to its own start.
    """
    batches = sorted(batches)
    starts = [start for start, _ in batches]
    grouped: Dict[int, List[Tuple[float, float]]] = {}
    for interval in requests:
        index = bisect.bisect_right(starts, interval[0]) - 1
        if index >= 0:
            grouped.setdefault(index, []).append(interval)
    self_s = 0.0
    wait_s = 0.0
    for index, (start, end) in enumerate(batches):
        covered = 0.0
        cursor = start
        for request_start, request_end in sorted(grouped.get(index, ())):
            wait_s += request_start - start
            low, high = max(request_start, cursor), min(request_end, end)
            if high > low:
                covered += high - low
                cursor = high
        self_s += (end - start) - covered
    return self_s, wait_s


def layer_metrics(
    tracer: LayerTracer,
    oracles: Dict[int, OracleSeen],
    counters: Dict[str, int],
    plan_before: Dict[str, int],
    *,
    requests: int,
    user_bytes: int,
    wal_bytes_at_close: int,
    recover_calls: int,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric but ``trace_overhead``, as ``name -> (value, unit)``.

    Call it right after the traced pass: the plan-cache counters are
    process-wide, so later work (the checks, the replay) would leak in.
    """
    totals = tracer.totals()

    def self_s(key: str) -> float:
        stats = totals.get(key)
        return stats.self_s if stats is not None else 0.0

    def inclusive_s(key: str) -> float:
        stats = totals.get(key)
        return stats.inclusive_s if stats is not None else 0.0

    def calls(key: str) -> int:
        stats = totals.get(key)
        return stats.calls if stats is not None else 0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    batches = tracer.spans.get("serving.batch", [])
    request_spans = tracer.spans.get("serving.request", [])
    batch_self_s, queue_wait_s = _batch_split(batches, request_spans)
    batch_wall = sum(end - start for start, end in batches)
    busy = sum(end - start for start, end in request_spans)

    probes = calls("core.oracle.lookup")
    misses = sum(seen.misses() for seen in oracles.values())
    new_entries = sum(seen.new_entries() for seen in oracles.values())
    largest = max((seen.entries() for seen in oracles.values()), default=0)
    plan_after = plan_cache_info()
    plan_hits = plan_after["hits"] - plan_before["hits"]
    plan_misses = plan_after["misses"] - plan_before["misses"]
    commits = calls("relational.commit")

    reports = tracer.thread_reports()
    layers = {layer: 0.0 for layer in LAYERS}
    for report in reports:
        for layer, seconds in report["layers"].items():
            layers[layer] += seconds
    other_s = sum(report["other_s"] for report in reports)

    metrics: Dict[str, Tuple[float, str]] = {
        "serving.batch_self_s": (batch_self_s, "s"),
        "serving.queue_wait_s": (queue_wait_s, "s"),
        "serving.executions": (calls("serving.execute"), "count"),
        "serving.exec_share": (share(calls("serving.execute"), requests), "ratio"),
        "serving.busy_threads": (share(busy, batch_wall), "threads"),
        "relational.pin_s": (self_s("relational.pin"), "s"),
        "relational.pins": (calls("relational.pin"), "count"),
        "relational.commit_self_s": (self_s("relational.commit"), "s"),
        "relational.commits": (commits, "count"),
        "relational.cow_clones": (counters.get("database.cow_clones", 0), "count"),
        "core.qc.eval_self_s": (self_s("core.qc.eval"), "s"),
        "core.package.as_relation_s": (self_s("core.package.as_relation"), "s"),
        "core.oracle.probes": (probes, "count"),
        "core.oracle.misses": (misses, "count"),
        "core.oracle.hit_share": (share(probes - misses, probes), "ratio"),
        "core.oracle.lookup_self_s": (self_s("core.oracle.lookup"), "s"),
        "core.oracle.cache_entries": (largest, "count"),
        "core.oracle.dup_misses": (misses - new_entries, "count"),
        "core.candidates_s": (self_s("core.candidates"), "s"),
        "core.search_self_s": (self_s("core.search"), "s"),
        "queries.plan_s": (self_s("queries.plan"), "s"),
        "queries.plan.hit_share": (share(plan_hits, plan_hits + plan_misses), "ratio"),
        "queries.exec_s": (self_s("queries.exec"), "s"),
        "queries.exec.calls": (calls("queries.exec"), "count"),
        "durability.wal.append_s": (self_s("durability.wal.append"), "s"),
        "durability.wal.records": (calls("durability.wal.append"), "count"),
        "durability.wal.bytes_per_user_byte": (
            share(counters.get("wal.bytes.appended", 0), user_bytes),
            "ratio",
        ),
        "durability.wal.sync_s": (self_s("durability.wal.sync"), "s"),
        "durability.wal.fsyncs_per_commit": (share(counters.get("wal.fsyncs", 0), commits), "ratio"),
        "durability.checkpoint_s": (self_s("durability.checkpoint"), "s"),
        "durability.checkpoints": (calls("durability.checkpoint"), "count"),
        "durability.wal.truncate_s": (self_s("durability.wal.truncate"), "s"),
        "durability.wal_bytes_at_close": (wal_bytes_at_close, "bytes"),
        "durability.recover_s": (share(inclusive_s("durability.recover"), recover_calls), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layers[layer], "s")
    metrics["other_s"] = (other_s, "s")
    return metrics


def assert_layer_identity(tracer: LayerTracer, tolerance_s: float = 1e-6) -> None:
    """Per thread, layer self times plus ``other`` equal the thread's window."""
    for report in tracer.thread_reports():
        total = sum(report["layers"].values()) + report["other_s"]
        if abs(total - report["window_s"]) > tolerance_s * max(1.0, report["window_s"]):
            raise AssertionError(f"thread {report['thread']}: {total} != {report['window_s']}")
        unknown = set(report["layers"]) - set(LAYERS)
        if unknown:
            raise AssertionError(f"probes outside the known layers: {sorted(unknown)}")
