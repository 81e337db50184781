"""The ``repro`` command-line interface.

Four small commands expose the library's deliverables without writing code:

``python -m repro tables``
    Print the paper's Tables 8.1 and 8.2 (the machine-readable copies the
    library carries) plus the Section 9 findings.

``python -m repro demo``
    Solve the quickstart POI problem and print the four POI problems (FRP,
    RPP, MBP, CPP) on it — the fastest way to see the model in action.

``python -m repro experiments [--output PATH] [--full] [--only ID ...]``
    Run the experiment sweeps behind EXPERIMENTS.md and write the report.

``python -m repro example NAME``
    Run one of the bundled example scripts (quickstart, travel_planning,
    course_packages, team_formation, query_relaxation, adjustment,
    query_languages, complexity_tables) by importing and calling its ``main``.

``python -m repro explain QUERY``
    Compile a workload query against its synthetic database and print the
    cost-based :class:`~repro.queries.plan.JoinPlan` — atom order, probe
    kinds (hash / range / scan), comparison schedule, the semi-join verdict
    and, for cyclic queries (``triangle``, ``four_cycle``), the
    worst-case-optimal multiway step with its variable elimination order —
    plus the statistics the planner costed it with.

``python -m repro serve [--items N] [--rounds R] [--batch B] ...``
    Replay a mixed read/update trace through the snapshot-isolated serving
    layer (:mod:`repro.serving`) and print per-round throughput plus the
    p50/p99 request latency; ``--baseline`` also replays the identical
    trace through the global-lock reference server, checks the answer
    sequences match exactly, and reports the speedup; ``--wal PATH`` serves
    durably, write-ahead logging every commit under ``PATH``.

``python -m repro recover PATH``
    Rebuild the database a durable ``serve --wal PATH`` run (crashed or
    clean) left behind: load the checkpoint, replay the WAL tail, discard
    any torn trailing record, and print the recovered epoch and row counts.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro import __version__


#: Workload queries ``repro explain`` can compile and describe.
EXPLAIN_QUERIES = ("path2", "path3", "triangle", "four_cycle", "items", "items_under_30")


#: Example scripts shipped under ``examples/`` that ``repro example`` can run.
EXAMPLE_NAMES = (
    "quickstart",
    "travel_planning",
    "course_packages",
    "team_formation",
    "query_relaxation",
    "adjustment",
    "streaming_updates",
    "serving_trace",
    "crash_recovery",
    "group_recommendation",
    "query_languages",
    "complexity_tables",
)


def _positive_int(text: str) -> int:
    """An argparse type for counts that must be at least one."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On the Complexity of Package Recommendation Problems' "
            "(Deng, Fan, Geerts; PODS 2012)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command")

    commands.add_parser("tables", help="print Tables 8.1 and 8.2 and the Section 9 findings")

    demo = commands.add_parser("demo", help="solve the quickstart POI problem end to end")
    demo.add_argument("--k", type=int, default=3, help="how many packages to recommend")
    demo.add_argument("--budget", type=float, default=8.0, help="the cost budget C (visiting hours)")

    experiments = commands.add_parser(
        "experiments", help="run the experiment sweeps and write EXPERIMENTS.md"
    )
    experiments.add_argument(
        "--output", default="EXPERIMENTS.md", help="where to write the report (default: EXPERIMENTS.md)"
    )
    experiments.add_argument(
        "--full", action="store_true", help="use the larger sweep sizes (slower)"
    )
    experiments.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="EXP-ID",
        help="run only the named experiments (e.g. EXP-T8.1 EXP-S7)",
    )
    experiments.add_argument(
        "--stdout", action="store_true", help="print the report instead of writing the file"
    )

    example = commands.add_parser("example", help="run one of the bundled example scripts")
    example.add_argument("name", choices=EXAMPLE_NAMES, help="which example to run")

    explain = commands.add_parser(
        "explain", help="print the compiled join plan for a workload query"
    )
    explain.add_argument(
        "query", choices=EXPLAIN_QUERIES, help="which workload query to compile"
    )
    explain.add_argument(
        "--seed", type=int, default=7, help="seed for the synthetic database"
    )
    explain.add_argument(
        "--no-statistics",
        action="store_true",
        help="compile with the statistics-blind fallback order instead",
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="also execute the plan and print actual rows and time per step "
        "next to the planner's estimates",
    )

    serve = commands.add_parser(
        "serve", help="replay a mixed read/update trace through the snapshot server"
    )
    serve.add_argument("--items", type=int, default=80, help="catalog size (random items)")
    serve.add_argument("--rounds", type=int, default=4, help="trace rounds (one commit each)")
    serve.add_argument("--batch", type=int, default=24, help="requests per round")
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="serve each batch on a thread pool of this size (default: the "
        "servers' own; the snapshot server then runs batches inline, or on "
        "8 threads when --deadline-ms is set)",
    )
    serve.add_argument("--seed", type=int, default=7, help="trace seed")
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline in milliseconds (expired requests return a "
        "typed timeout error instead of running forever)",
    )
    serve.add_argument(
        "--baseline",
        action="store_true",
        help="also replay through the global-lock reference server and report the speedup",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="serve with the metrics registry active and print the instrument "
        "summary (per-code errors, retries/sheds, counters) after the replay",
    )
    serve.add_argument(
        "--wal",
        metavar="PATH",
        default=None,
        help="serve durably: write-ahead log every commit under this "
        "directory (created if missing; must be fresh — serving refuses a "
        "directory already holding another run's history) and ack writes "
        "only after the fsync; recover later with `repro recover PATH`",
    )

    recover = commands.add_parser(
        "recover",
        help="rebuild the database a crashed durable server left behind",
    )
    recover.add_argument(
        "path", help="the durability directory a `serve --wal PATH` run wrote"
    )

    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------
def _command_tables() -> int:
    from repro.complexity import paper_findings, render_table_8_1, render_table_8_2

    print(render_table_8_1())
    print()
    print(render_table_8_2())
    print()
    print("Section 9 findings:")
    for finding in paper_findings():
        print(f"  - {finding}")
    return 0


def _command_demo(k: int, budget: float) -> int:
    from repro import Database, RecommendationProblem, compute_top_k
    from repro.core import (
        AttributeSumCost,
        AttributeSumRating,
        PolynomialBound,
        at_most_k_with_value,
        count_valid_packages,
        is_top_k_selection,
        maximum_bound,
    )
    from repro.queries import identity_query_for

    database = Database()
    poi = database.create_relation(
        "poi",
        ["name", "kind", "ticket", "time"],
        [
            ("met", "museum", 25, 3),
            ("moma", "museum", 25, 2),
            ("guggenheim", "museum", 22, 2),
            ("broadway", "theater", 120, 3),
            ("high_line", "park", 0, 2),
            ("central_park", "park", 0, 3),
        ],
    )
    problem = RecommendationProblem(
        database=database,
        query=identity_query_for(poi),
        cost=AttributeSumCost("time"),
        val=AttributeSumRating("ticket", sign=-1.0),
        budget=budget,
        k=k,
        compatibility=at_most_k_with_value("kind", "museum", 1),
        size_bound=PolynomialBound(1.0, 1),
        name="demo day plans",
        monotone_cost=True,
        antimonotone_compatibility=True,
    )
    print(problem.describe())
    print()

    result = compute_top_k(problem)
    if not result.found:
        print("FRP: no top-k selection exists")
        return 1
    print(f"FRP: top-{k} day plans (cheapest tickets within {budget} visiting hours):")
    for rank, package in enumerate(result.selection, start=1):
        names = ", ".join(item[0] for item in package.sorted_items())
        print(f"  {rank}. [{names}]  val = {problem.val(package):.0f}")
    print()
    rpp = is_top_k_selection(problem, result.selection)
    print(f"RPP: is that selection really top-{k}?  {rpp.is_top_k}")
    bound = maximum_bound(problem)
    print(f"MBP: the maximum rating bound admitting a top-{k} selection is {bound}")
    cpp = count_valid_packages(problem, bound if bound is not None else 0.0)
    print(f"CPP: {cpp.count} valid packages are rated at least that bound")
    return 0


def _command_experiments(
    output: str, full: bool, only: Optional[Sequence[str]], to_stdout: bool
) -> int:
    from repro.bench.experiments import render_markdown, run_all_experiments

    results = run_all_experiments(quick=not full, only=only)
    if not results:
        print("no experiments matched --only; known ids:", file=sys.stderr)
        from repro.bench.experiments import ALL_EXPERIMENTS

        for experiment_id, _ in ALL_EXPERIMENTS:
            print(f"  {experiment_id}", file=sys.stderr)
        return 2
    text = render_markdown(results, quick=not full)
    if to_stdout:
        print(text)
    else:
        Path(output).write_text(text, encoding="utf-8")
        print(f"wrote {output} ({len(results)} experiments)")
    disagreements = [result.experiment_id for result in results if not result.agreement]
    if disagreements:
        print(f"WARNING: measured shape disagrees with the paper for: {', '.join(disagreements)}")
        return 1
    return 0


def _command_example(name: str) -> int:
    examples_dir = Path(__file__).resolve().parent.parent.parent / "examples"
    script = examples_dir / f"{name}.py"
    if script.exists():
        # Run the example exactly as `python examples/<name>.py` would.
        namespace = {"__name__": "__main__", "__file__": str(script)}
        code = compile(script.read_text(encoding="utf-8"), str(script), "exec")
        exec(code, namespace)  # noqa: S102 - running our own bundled example
        return 0
    # Installed without the examples directory: fall back to an import attempt.
    try:
        module = importlib.import_module(f"examples.{name}")
    except ModuleNotFoundError:
        print(
            f"example {name!r} not found; examples are shipped in the source checkout under "
            "examples/",
            file=sys.stderr,
        )
        return 2
    module.main()
    return 0


def _command_explain(
    query_name: str, seed: int, no_statistics: bool, analyze: bool = False
) -> int:
    from repro.queries.plan import plan_conjunction
    from repro.workloads.synthetic import (
        cycle_query,
        item_selection_query,
        path_query,
        random_graph_database,
        random_item_database,
        triangle_query,
    )

    if query_name in ("path2", "path3"):
        length = int(query_name[-1])
        database = random_graph_database(60, 180, seed=seed)
        query = path_query(length)
    elif query_name in ("triangle", "four_cycle"):
        database = random_graph_database(60, 180, seed=seed)
        query = triangle_query() if query_name == "triangle" else cycle_query(4)
    else:
        database = random_item_database(200, seed=seed)
        max_price = 30 if query_name == "items_under_30" else None
        query = item_selection_query(max_price).to_cq()

    statistics = None
    if not no_statistics:
        statistics = {
            atom.relation: database.relation(atom.relation).statistics()
            for atom in query.atoms
        }
    plan = plan_conjunction(query.atoms, query.comparisons, statistics=statistics)

    print(f"query: {query}")
    for name in sorted({atom.relation for atom in query.atoms}):
        stats = database.relation(name).statistics()
        distinct = ", ".join(str(count) for count in stats.distinct_counts)
        print(f"relation {name}: {stats.cardinality} rows, distinct per position [{distinct}]")
    mode = "statistics-blind fallback order" if no_statistics else "cost-based order"
    print(f"plan ({mode}):")
    print(plan.describe())
    if analyze:
        from repro.observability.explain import explain_analyze

        analysis = explain_analyze(
            database,
            query.atoms,
            query.comparisons,
            use_statistics=False if no_statistics else None,
            plan=plan,
        )
        print()
        print("analyze (actual vs estimated):")
        print(analysis.render())
    return 0


def _command_serve(
    items: int,
    rounds: int,
    batch: int,
    workers: Optional[int],
    seed: int,
    baseline: bool,
    deadline_ms: Optional[float] = None,
    metrics: bool = False,
    wal: Optional[str] = None,
) -> int:
    import time
    from contextlib import nullcontext

    from repro.serving import (
        GlobalLockServer,
        ResilienceConfig,
        SnapshotServer,
        build_trace,
        latency_percentiles,
    )

    registry = None
    scope = nullcontext()
    if metrics:
        from repro.observability import MetricsRegistry, use_metrics

        registry = MetricsRegistry()
        scope = use_metrics(registry)

    resilience = (
        ResilienceConfig(deadline_s=deadline_ms / 1000.0)
        if deadline_ms is not None
        else None
    )
    durability = None
    if wal is not None:
        from repro.durability import DurabilityConfig

        durability = DurabilityConfig(wal)
    # Left unset, both servers keep their own default pool size.
    pool = {} if workers is None else {"max_workers": workers}
    trace = build_trace(items, rounds, batch, seed=seed)
    try:
        server = SnapshotServer(
            trace.problem,
            **pool,
            resilience=resilience,
            durability=durability,
        )
    except Exception as error:
        from repro.durability import CorruptRecordError

        if durability is None or not isinstance(error, CorruptRecordError):
            raise
        # A pre-existing durability directory whose epoch does not match the
        # fresh trace database: serving over it would fork its history.
        print(f"refusing to serve: {error}", file=sys.stderr)
        print(
            f"recover it with `repro recover {durability.directory}` or "
            f"point --wal at a fresh directory",
            file=sys.stderr,
        )
        return 1
    print(trace.problem.describe())
    print(f"trace: {rounds} rounds x {batch} requests, one delta commit per round")
    if resilience is not None:
        print(f"resilience: per-request deadline {deadline_ms:g}ms")
    if durability is not None:
        print(f"durability: write-ahead log under {durability.directory}")

    snapshot_results = []
    with scope:
        start = time.perf_counter()
        for round_index, (delta, requests) in enumerate(trace.rounds):
            if delta:
                server.apply(list(delta))
            round_start = time.perf_counter()
            results = server.serve_batch(requests)
            round_seconds = time.perf_counter() - round_start
            snapshot_results.extend(results)
            unique = len(set(requests))
            print(
                f"  round {round_index}: epoch {server.epoch}, {len(requests)} requests "
                f"({unique} unique) in {round_seconds * 1000:.0f}ms"
            )
        snapshot_seconds = time.perf_counter() - start
    latency = latency_percentiles(snapshot_results)
    errors = sum(1 for result in snapshot_results if not result.ok)
    answered = len(snapshot_results) - errors
    print(
        f"snapshot server: {answered / snapshot_seconds:.0f} answered requests/s "
        f"({errors} typed errors), "
        f"p50 = {latency['p50'] * 1000:.1f}ms, p99 = {latency['p99'] * 1000:.1f}ms"
    )
    if registry is not None:
        breakdown = registry.labelled_counts("serving.errors")
        if breakdown:
            codes = ", ".join(
                f"{code}={count}" for code, count in sorted(breakdown.items())
            )
            print(f"errors by code: {codes}")
        print(
            f"retries = {registry.counter('serving.retries')}, "
            f"sheds = {registry.counter('serving.sheds')}"
        )
        print("metrics:")
        print(registry.render_table())

    if durability is not None:
        server.close()
        print(
            f"durable through epoch {server.epoch}: recover with "
            f"`repro recover {durability.directory}`"
        )

    if not baseline:
        return 0

    reference_trace = build_trace(items, rounds, batch, seed=seed)
    reference = GlobalLockServer(reference_trace.problem, **pool)
    baseline_results = []
    start = time.perf_counter()
    for delta, requests in reference_trace.rounds:
        if delta:
            reference.apply(list(delta))
        baseline_results.extend(reference.serve_batch(requests))
    baseline_seconds = time.perf_counter() - start
    # Under a deadline some snapshot results are typed errors, which the
    # unguarded baseline never produces; the agreement check covers every
    # answered request (deadline off ≡ the historical full identity check).
    identical = all(
        (ours.epoch, ours.answer) == (theirs.epoch, theirs.answer)
        for ours, theirs in zip(snapshot_results, baseline_results)
        if ours.ok
    ) and len(snapshot_results) == len(baseline_results)
    print(
        f"global-lock baseline: {len(baseline_results) / baseline_seconds:.0f} requests/s; "
        f"identical answers = {identical}; "
        f"speedup = {baseline_seconds / snapshot_seconds:.1f}x"
    )
    if not identical:
        print("ERROR: snapshot and baseline answer sequences diverged", file=sys.stderr)
        return 1
    return 0


def _command_recover(path: str) -> int:
    from repro.durability import CorruptRecordError, recover

    try:
        result = recover(path)
    except CorruptRecordError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1
    database = result.database
    print(f"recovered {path} to epoch {result.epoch}")
    print(
        f"  checkpoint epoch {result.checkpoint_epoch}, "
        f"{result.records_replayed} WAL records replayed, "
        f"{result.records_skipped} already in the checkpoint"
    )
    if result.torn_tail_bytes:
        print(
            f"  discarded a torn tail of {result.torn_tail_bytes} bytes "
            f"(an unacked commit interrupted mid-write)"
        )
    for name in database.relation_names():
        print(f"  {name}: {len(database.relation(name))} rows")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    if args.command == "tables":
        return _command_tables()
    if args.command == "demo":
        return _command_demo(args.k, args.budget)
    if args.command == "experiments":
        return _command_experiments(args.output, args.full, args.only, args.stdout)
    if args.command == "example":
        return _command_example(args.name)
    if args.command == "explain":
        return _command_explain(args.query, args.seed, args.no_statistics, args.analyze)
    if args.command == "serve":
        return _command_serve(
            args.items,
            args.rounds,
            args.batch,
            args.workers,
            args.seed,
            args.baseline,
            args.deadline_ms,
            args.metrics,
            args.wal,
        )
    if args.command == "recover":
        return _command_recover(args.path)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover - argparse guards this
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
