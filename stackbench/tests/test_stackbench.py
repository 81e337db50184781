"""The benchmark's own tests: small runs, check sensitivity, trace accounting.

Run with ``python -m pytest stackbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import pytest

import repro.durability as durability
import repro.serving.server as server_module
from repro.durability import record_boundaries
from repro.relational.database import Database

from stackbench import layers
from stackbench.run import ROOT, run_workload
from stackbench.tracer import LayerTracer
from stackbench.workloads import (
    ServeChurn,
    ServeWarm,
    WORKLOADS,
    check_epoch_answers,
    check_pinned_answers,
    check_recovery,
    items_database,
)

SMALL = {
    "serve-churn": {"num_items": 24, "batch_size": 8},
    "serve-warm": {"num_items": 24, "batch_size": 4},
}


def _drive(session, steps):
    for _ in range(steps):
        session.step()
    return session.finish()


# ---------------------------------------------------------------------------
# A small size of each workload runs end to end
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_small_workload_runs_end_to_end(workload, trace):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, failures, counts = run_workload(workload, 3, 0.3, trace, SMALL[workload])
    assert failures == []
    assert counts["failed"] == 0 and counts["attempted"] > 0
    listed = contract["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {metric["name"] for metric in listed}
    assert all(metrics[m["name"]][1] == m["unit"] for m in listed)
    if trace:
        assert metrics["trace_overhead"][0] > 0.0
        assert metrics["core.self_s"][0] > 0.0
    else:
        assert all(value > 0.0 for value, _, _ in metrics.values())


def test_benchmark_lists_the_kept_workloads():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in contract["workloads"]] == sorted(WORKLOADS)


def test_command_line_prints_the_result_line_last():
    completed = subprocess.run(
        [sys.executable, "stackbench/run.py", "--workload", "serve-warm",
         "--seed", "5", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert "op_tail_ms (n=" not in completed.stdout.splitlines()[-1]
    assert any(line.startswith("serve-warm: op_p50_ms = ") for line in completed.stdout.splitlines())
    header = json.loads(completed.stdout.splitlines()[0])
    assert header["envelope"]["peak_rss_reset"] is True
    assert len(header["envelope"]["calibration_s"]) == 2
    assert all(seconds > 0.0 for seconds in header["envelope"]["calibration_s"])


def test_all_runs_every_workload_in_its_own_process():
    completed = subprocess.run(
        [sys.executable, "stackbench/run.py", "--workload", "all",
         "--seed", "5", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {
        f"{workload}.{metric['name']}" for workload in WORKLOADS for metric in contract["end_to_end"]
    }
    headers = [json.loads(line) for line in lines if line.startswith('{"workload"')]
    assert sorted(header["workload"] for header in headers) == sorted(WORKLOADS)


def test_churn_check_candidate_is_the_last_served_top_k(tmp_path):
    session = ServeChurn(2, tmp_path / "d", **SMALL["serve-churn"])
    try:
        for _ in range(6):
            session.step()
        served = [answer for _, request, answer in session.records if request.kind == "top_k"]
        checks = [answer for _, request, answer in session.records if request.kind == "check"]
        assert session.pool[-1].selection_items == served[-1][1]
        assert checks and all("not valid" not in reason for _, _, reason in checks)
    finally:
        session.server.close()


def test_same_seed_gives_same_inputs(tmp_path):
    first = ServeChurn(7, tmp_path / "a", **SMALL["serve-churn"])
    second = ServeChurn(7, tmp_path / "b", **SMALL["serve-churn"])
    try:
        assert first.server.database == second.server.database
        assert first.pool == second.pool
        first.step()
        second.step()
        assert first.records == second.records
    finally:
        first.server.close()
        second.server.close()


# ---------------------------------------------------------------------------
# Each correctness check rejects a perturbed answer and a truncated recovery
# ---------------------------------------------------------------------------
def _perturb(records):
    epoch, request, answer = records[0]
    return [(epoch, request, answer + ("perturbed",))] + records[1:]


def test_churn_check_rejects_a_perturbed_answer(tmp_path):
    session = ServeChurn(1, tmp_path / "d", **SMALL["serve-churn"])
    finish = _drive(session, 3)
    assert session.check(finish) == []
    assert check_epoch_answers(_perturb(session.records), session.archive, session.server.problem)


def test_warm_check_rejects_a_perturbed_answer(tmp_path):
    session = ServeWarm(1, tmp_path / "d", **SMALL["serve-warm"])
    finish = _drive(session, 3)
    assert session.check(finish) == []
    assert check_pinned_answers(_perturb(session.records), session.server.problem)


def test_recovery_check_rejects_a_truncated_recovery(tmp_path):
    # Fewer commits than ``checkpoint_every``, so the WAL holds them all.
    session = ServeChurn(1, tmp_path / "d", **SMALL["serve-churn"])
    finish = _drive(session, 5)
    assert session.check(finish) == []
    wal = durability.wal_path(session.directory)
    boundaries = record_boundaries(wal)
    assert len(boundaries) >= 2
    # Drop the last record, as a lost write would.
    with open(wal, "r+b") as handle:
        handle.truncate(boundaries[-2])
    recovered = durability.recover(session.directory)
    failures = check_recovery(recovered.database, recovered.epoch, session.server.database)
    assert any("epoch" in failure for failure in failures)
    assert any("rows" in failure for failure in failures)


def test_recovery_check_rejects_different_rows():
    ours = items_database([(1, "a", 2, 3)])
    theirs = items_database([(1, "a", 2, 4)])
    assert check_recovery(theirs, ours.epoch, ours)
    assert check_recovery(ours, ours.epoch, ours) == []


# ---------------------------------------------------------------------------
# On each thread, per-layer self times plus other_s sum to the traced time
# ---------------------------------------------------------------------------
def test_tracer_self_time_is_exclusive_per_thread():
    tracer = LayerTracer()

    def leaf():
        time.sleep(0.01)

    def middle():
        time.sleep(0.01)
        wrapped_leaf()

    wrapped_leaf = tracer.wrap("queries.leaf", leaf)
    wrapped_middle = tracer.wrap("core.middle", middle)
    tracer.start()
    worker = threading.Thread(target=wrapped_middle)
    worker.start()
    wrapped_middle()
    worker.join(timeout=10)
    assert not worker.is_alive()
    time.sleep(0.01)
    tracer.stop()
    totals = tracer.totals()
    assert totals["core.middle"].calls == 2 and totals["queries.leaf"].calls == 2
    assert totals["core.middle"].self_s == pytest.approx(0.02, abs=0.01)
    assert totals["core.middle"].inclusive_s == pytest.approx(
        totals["core.middle"].self_s + totals["queries.leaf"].self_s, rel=1e-9
    )
    reports = tracer.thread_reports()
    assert len(reports) == 2
    for report in reports:
        assert sum(report["layers"].values()) + report["other_s"] == pytest.approx(
            report["window_s"], abs=1e-9
        )
    main = next(r for r in reports if r["thread"] == threading.current_thread().name)
    assert main["other_s"] >= 0.01


def test_generator_probe_times_only_its_resumptions():
    tracer = LayerTracer()

    def numbers():
        for value in range(3):
            time.sleep(0.005)
            yield value

    wrapped = tracer.wrap_generator("queries.exec", numbers)
    tracer.start()
    for _ in wrapped():
        time.sleep(0.01)  # the consumer's time is not the generator's
    first = next(iter(wrapped()))
    tracer.stop()
    assert first == 0
    stats = tracer.totals()["queries.exec"]
    assert stats.calls == 2
    assert 0.015 <= stats.self_s < 0.03


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_workload_accounts_every_thread(workload, tmp_path):
    session = WORKLOADS[workload](3, tmp_path / "d", **SMALL[workload])
    originals = (Database.__dict__["apply_delta"], server_module.execute_request,
                 durability.recover)
    tracer = LayerTracer()
    layers.install(tracer)
    try:
        tracer.start()
        finish = _drive(session, 12)
        tracer.stop()
    finally:
        tracer.uninstall()
    assert (Database.__dict__["apply_delta"], server_module.execute_request,
            durability.recover) == originals
    assert session.check(finish) == []
    layers.assert_layer_identity(tracer)
    reports = tracer.thread_reports()
    assert len(reports) >= 2
    for report in reports:
        assert set(report["layers"]) <= set(layers.LAYERS)
        assert sum(report["layers"].values()) + report["other_s"] == pytest.approx(
            report["window_s"], rel=1e-9, abs=1e-9
        )
        assert report["other_s"] >= -1e-9
