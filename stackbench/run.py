"""The repo benchmark: seeded served and durable workloads over the whole stack.

Usage, from the repository root::

    python3 stackbench/run.py --workload serve-churn --seed 1 --seconds 25 --trace 0
    python3 stackbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the workload under the layer tracer and reports the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name with its unit and sample count, and the host and
configuration envelope.  The exit code is 1 when a correctness check fails
and 2 when the program cannot be imported.  See ``stackbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Iterations of the fixed loop that gauges the host's speed.
CALIBRATION_LOOP = 1_500_000

_perf = time.perf_counter


def _import_program():
    """Put the checkout's ``src`` and the benchmark on the path, or exit 2."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"stackbench: no program source under {SOURCE}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SOURCE), str(ROOT)]


def envelope(session_cls) -> dict:
    """The host and configuration the numbers belong to."""
    from repro.durability import DurabilityConfig
    from repro.serving import SnapshotServer

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    server_defaults = inspect.signature(SnapshotServer.__init__).parameters
    durability_defaults = inspect.signature(DurabilityConfig).parameters
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "source_sha256": digest.hexdigest()[:16],
        "max_workers": server_defaults["max_workers"].default,
        "group_commit": durability_defaults["group_commit"].default,
        "checkpoint_every": session_cls.checkpoint_every,
    }


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host ran just then.

    The host's speed drifts by more than the bounds (README.md, "Host noise
    and measured spread"), so runs compare only when these times agree.
    """
    start = _perf()
    total = 0
    for index in range(CALIBRATION_LOOP):
        total += index * index % 7
    return _perf() - start


def _git_rev():
    """HEAD's commit, read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


# ---------------------------------------------------------------------------
# Peak resident memory of the timed part of a run
# ---------------------------------------------------------------------------
def reset_peak_rss() -> bool:
    """Restart the kernel's resident high-water mark at the current RSS.

    Returns False when the kernel refuses, in which case the peak also
    covers the set-ups before the loop.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
class Run:
    """Set-up, closed loop, finish and check of one workload in a work directory."""

    def __init__(self, workload: str, seed: int, workdir: Path, sizes: Dict[str, int]) -> None:
        from stackbench.workloads import WORKLOADS

        self.cls = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self._count = 0

    def setup(self):
        self._count += 1
        directory = self.workdir / f"setup-{self._count}"
        start = _perf()
        session = self.cls(self.seed, directory, **self.sizes)
        return session, _perf() - start

    @staticmethod
    def loop(session, seconds: Optional[float] = None, steps: Optional[int] = None):
        """Drive ``session`` for ``seconds`` of wall time, or for ``steps`` steps."""
        done = []
        start = _perf()
        while len(done) < steps if steps is not None else _perf() - start < seconds:
            done.append(session.step())
        return done


def _summarise(steps, tail_percentile: int) -> Dict[str, float]:
    from repro.observability.summary import percentile_summary

    latencies = [latency for step in steps for latency in step.op_latencies_s]
    summary = percentile_summary(latencies, (50.0, float(tail_percentile)))
    wall = sum(step.wall_s for step in steps)
    return {
        "ops": sum(step.ops for step in steps),
        "wall_s": wall,
        "samples": len(latencies),
        "p50_s": summary["p50"],
        "tail_s": summary[f"p{tail_percentile:g}"],
        "attempted": sum(step.attempted for step in steps),
        "failed": sum(step.failed for step in steps),
    }


def run_untraced(
    workload: str, seed: int, seconds: float, workdir: Path, sizes: Dict[str, int]
) -> Tuple[dict, List[str], dict]:
    """Median set-up time, then the closed loop, finish and checks, untraced."""
    run = Run(workload, seed, workdir, sizes)
    setup_times = []
    session = None
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.server.close()
        session, seconds_taken = run.setup()
        setup_times.append(seconds_taken)
    peak_reset = reset_peak_rss()
    steps = run.loop(session, seconds=seconds)
    finish = session.finish()
    peak = peak_rss_mb()
    failures = session.check(finish)
    summary = _summarise(steps, session.tail_percentile)
    ops_per_s = summary["ops"] / summary["wall_s"] if summary["wall_s"] else 0.0
    n = summary["samples"]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", SETUP_REPEATS),
        "ops_per_s": (ops_per_s, "1/s", len(steps)),
        "op_p50_ms": (summary["p50_s"] * 1e3, "ms", n),
        "op_tail_ms": (summary["tail_s"] * 1e3, "ms", n),
        "peak_rss_mb": (peak, "MB", 1),
    }
    beyond = n - math.ceil(n * session.tail_percentile / 100)
    counts = {
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "peak_rss_reset": peak_reset,
        "notes": [
            f"op_tail_ms is p{session.tail_percentile}, with {beyond} samples beyond it",
            # Not gated: the figure depends on where close() falls in the
            # background checkpoint's cycle (README.md, "Dropped").
            f"recover_s = {statistics.median(finish.recover_s):.6g} s "
            f"(n={len(finish.recover_s)}, WAL {finish.wal_bytes_at_close} bytes at close)",
        ],
    }
    return metrics, failures, counts


def run_traced(
    workload: str, seed: int, seconds: float, workdir: Path, sizes: Dict[str, int]
) -> Tuple[dict, List[str], dict]:
    """A traced pass for ``seconds``, then the same steps untraced for the overhead."""
    from repro.observability.metrics import MetricsRegistry, use_metrics
    from repro.queries.plan import plan_cache_info

    from stackbench import layers
    from stackbench.tracer import LayerTracer

    run = Run(workload, seed, workdir, sizes)
    session, _ = run.setup()
    tracer = LayerTracer()
    oracles = layers.install(tracer)
    registry = MetricsRegistry()
    plan_before = plan_cache_info()
    try:
        with use_metrics(registry):
            tracer.start()
            steps = run.loop(session, seconds=seconds)
            finish = session.finish()
            tracer.stop()
    finally:
        tracer.uninstall()
    layers.assert_layer_identity(tracer)
    traced = _summarise(steps, session.tail_percentile)
    values = layers.layer_metrics(
        tracer,
        oracles,
        {name: registry.counter(name) for name in layers.REGISTRY_COUNTERS},
        plan_before,
        requests=traced["ops"],
        user_bytes=session.user_bytes,
        wal_bytes_at_close=finish.wal_bytes_at_close,
        recover_calls=len(finish.recover_s),
    )
    failures = session.check(finish)

    baseline_session, _ = run.setup()
    baseline = _summarise(run.loop(baseline_session, steps=len(steps)), session.tail_percentile)
    baseline_session.finish()
    values["trace_overhead"] = (traced["wall_s"] / baseline["wall_s"], "ratio")
    metrics = {name: (value, unit, len(steps)) for name, (value, unit) in values.items()}
    counts = {"attempted": traced["attempted"], "failed": traced["failed"],
              "peak_rss_reset": None, "notes": []}
    return metrics, failures, counts


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, sizes: Optional[Dict[str, int]] = None
) -> Tuple[dict, List[str], dict]:
    """One workload in a fresh work directory under ``.bench_build``, removed after.

    Returns ``(metrics, check failures, counts)``; ``metrics`` maps a name to
    ``(value, unit, sample count)``, and ``counts`` holds ``attempted``,
    ``failed``, ``peak_rss_reset`` (whether the memory high-water mark was
    restarted after set-up; None when traced) and the ungated ``notes``
    printed beside the metrics.  ``sizes`` overrides the workload's default
    sizes (the benchmark's tests run small ones).
    """
    workdir = ROOT / ".bench_build" / f"stackbench-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = run_traced if trace else run_untraced
        return runner(workload, seed, seconds, workdir, sizes or {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every kept workload, each in a process of its own, merged into one result.

    A separate process per workload keeps each one's peak memory, heap and
    process-wide caches (the plan cache) from depending on what ran before.
    """
    from stackbench.workloads import WORKLOADS

    merged: Dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in sorted(WORKLOADS):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"stackbench: {name} printed no result (exit {completed.returncode})", file=sys.stderr)
            return completed.returncode or 1
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and completed.returncode == 0
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    _import_program()
    from stackbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    name = args.workload
    before = calibration_s()
    metrics, failures, counts = run_workload(name, args.seed, args.seconds, bool(args.trace))
    report = envelope(WORKLOADS[name])
    report["peak_rss_reset"] = counts["peak_rss_reset"]
    report["calibration_s"] = [before, calibration_s()]
    print(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace, "envelope": report}))
    for message in failures[:20]:
        print(f"CHECK FAILED [{name}]: {message}", file=sys.stderr)
    share = counts["failed"] / counts["attempted"] if counts["attempted"] else 0.0
    print(f"{name}: failed_share {share:.6g} ({counts['failed']} of {counts['attempted']})"
          f"; checks {'passed' if not failures else f'FAILED ({len(failures)})'}")
    for note in counts["notes"]:
        print(f"{name}: {note}")
    for metric, (value, unit, samples) in metrics.items():
        print(f"{name}: {metric} = {value:.6g} {unit} (n={samples})")
    print(json.dumps({"correct": not failures, "attempted": counts["attempted"], "failed": counts["failed"],
                      "metrics": {metric: {"value": value, "unit": unit}
                                  for metric, (value, unit, _) in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
