"""Tests of the benchmark's own code: statistics, host normalisation,
the span ledger and the repeatability of count metrics.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import ast
import gc
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tpcwbench import driver, host, stats
from tpcwbench.ledger import Ledger, union_length
from repro.tpcw.population import PopulationScale

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent


# -- the percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_SAMPLES_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_percentile_name():
    assert stats.percentile_name("write_latency", 99.0) == "write_latency_p99_ms"
    assert stats.percentile_name("write_latency", 99.9) == "write_latency_p99.9_ms"


def test_write_tail_is_named_by_its_sample_count():
    phase = driver.Phase(latencies=[0.001] * 1000, kernel_ms=[host.REFERENCE_KERNEL_MS] * 101)
    phase.write_latencies = [(2 * index, 0.002) for index in range(485)]
    rows = {row[0]: row for row in driver.extra_end_to_end(phase, {"round_trips": 3000}, 1000)}
    assert "write_latency_p99_ms" not in rows
    name, value, unit, samples = rows["write_latency_p95_ms"]
    assert (value, unit, samples) == (pytest.approx(2.0), "ms", 485)
    assert rows["round_trips_per_interaction"][1] == 3.0
    assert rows["failed_share"][1:] == (0.0, "ratio", 1000)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.quartiles(values) == (1.5, 3.0, 4.5)
    assert stats.relative_spread(values) == pytest.approx(3.0 / 3.0)
    assert stats.relative_spread([2.0, 2.0, 2.0]) == 0.0


# -- host normalisation --------------------------------------------------------


def test_host_factor_arithmetic():
    assert host.host_factor([1.0, 3.0], reference_ms=2.0) == 1.0
    assert host.host_factor([4.0], reference_ms=2.0) == 0.5
    with pytest.raises(ValueError):
        host.host_factor([])


def test_batch_factors_use_the_readings_around_each_batch():
    readings = [2.0, 2.0, 4.0, 4.0]  # three batches between four readings
    assert host.batch_factors(readings, window=0, reference_ms=2.0) == [1.0, pytest.approx(2 / 3), 0.5]
    assert host.batch_factors(readings, window=5, reference_ms=2.0) == [pytest.approx(2 / 3)] * 3


def test_end_to_end_timings_scale_with_the_host_factor():
    # A host running the kernel at twice the reference time is twice as
    # slow: its 1 ms interactions normalise to 0.5 ms, 1,000/s to 2,000/s.
    phase = driver.Phase(
        latencies=[0.001] * 1000,
        kernel_ms=[2 * host.REFERENCE_KERNEL_MS] * 101,
        batch_cpu_s=[0.02] * 100,
    )
    metrics, samples = driver.end_to_end(phase, [0.4, 0.3, 0.5], {"statements": 4500}, 1000)
    assert metrics["throughput_ips"] == pytest.approx(2000.0)
    assert metrics["latency_p50_ms"] == pytest.approx(0.5)
    assert metrics["latency_p99_ms"] == pytest.approx(0.5)
    assert metrics["cpu_ms_per_interaction"] == pytest.approx(1.0)
    assert metrics["statements_per_interaction"] == 4.5
    assert metrics["setup_s"] == 0.4
    assert samples["latency_p99_ms"] == 1000 and samples["setup_s"] == 3


def test_kernel_module_imports_nothing_from_the_program():
    tree = ast.parse(Path(host.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name == "repro" or name.startswith("repro.") for name in imported), imported
    assert imported <= {"__future__", "time"}


def test_kernel_allocates_no_gc_tracked_objects():
    host.kernel(100)  # warm up
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        host.kernel()
        assert gc.get_count()[0] == before
    finally:
        if was_enabled:
            gc.enable()


# -- self time -----------------------------------------------------------------


class FakeSpan:
    def __init__(self, span_id, parent, layer, name, thread, start, end):
        self.id, self.parent, self.layer, self.name = span_id, parent, layer, name
        self.thread, self.start, self.end = thread, start, end


def test_union_length_merges_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert union_length([], 0, 10) == 0
    assert union_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        FakeSpan(1, 0, "tpcw", "getName", 1, 0.0, 10.0),
        FakeSpan(2, 1, "orm", "a", 1, 1.0, 4.0),
        FakeSpan(3, 1, "orm", "b", 1, 3.0, 6.0),
        FakeSpan(4, 1, "orm", "c", 1, 8.0, 12.0),
    ]
    ledger = Ledger(spans, client_thread=1)
    assert ledger.self_time[1] == pytest.approx(3.0)
    assert ledger.self_time[2] == pytest.approx(3.0)


def test_server_thread_span_is_charged_to_the_waiting_request():
    spans = [
        FakeSpan(1, 0, "tpcw", "getName", 1, 0.0, 10.0),
        FakeSpan(2, 1, "netclient", "WireClient.request", 1, 1.0, 9.0),
        FakeSpan(3, 2, "server", "server.wait", 1, 2.0, 8.0),
        # The server handler thread executes the statement meanwhile.
        FakeSpan(4, 0, "sqlengine", "Session.execute", 2, 3.0, 6.0),
        # An idle server-side span outside any wait is not charged.
        FakeSpan(5, 0, "sqlengine", "Session.execute", 2, 11.0, 12.0),
    ]
    ledger = Ledger(spans, client_thread=1)
    assert ledger.parent_of[4] == 3
    assert [s.id for s in ledger.unattributed] == [5]
    assert ledger.self_time[3] == pytest.approx(3.0)
    totals = ledger.layer_self_time({1})
    assert totals == pytest.approx({"tpcw": 2.0, "netclient": 2.0, "server": 3.0, "sqlengine": 3.0})


def test_shard_call_on_a_fanout_thread_is_charged_to_the_coordinator():
    spans = [
        FakeSpan(1, 0, "sharding", "ShardedSession.execute", 2, 0.0, 10.0),
        FakeSpan(2, 0, "netclient", "WireClient.request", 3, 1.0, 5.0),
        FakeSpan(3, 2, "server", "server.wait", 3, 1.5, 4.5),
        FakeSpan(4, 0, "sqlengine", "Session.execute", 4, 2.0, 4.0),
    ]
    ledger = Ledger(spans, client_thread=1)
    assert ledger.parent_of[2] == 1
    assert ledger.parent_of[4] == 3


# -- exact, repeatable counts --------------------------------------------------


COUNT_KEYS = ("statements", "engine_statements", "round_trips", "syncs_issued", "log_bytes")


def _tiny_window(workload: str, work_dir: Path) -> dict:
    config = driver.RunConfig(
        workload=workload,
        seed=5,
        seconds=0.0,
        scale=PopulationScale.tiny(),
        work_dir=str(work_dir),
        setup_repeats=1,
        count_window=60,
        min_interactions=60,
    )
    measurement = driver.measure(config)
    assert measurement.problems == []
    assert measurement.phase.failed == 0
    return measurement.window


@pytest.mark.parametrize("workload", ["browse-inproc", "browse-remote", "ordering-sharded"])
def test_count_metrics_repeat_exactly_for_a_seed(workload, tmp_path):
    first = _tiny_window(workload, tmp_path / "first")
    second = _tiny_window(workload, tmp_path / "second")
    counted = {key: value for key, value in first.items() if key in COUNT_KEYS or key.startswith("route_")}
    assert counted["statements"] > 60
    if workload != "browse-inproc":
        assert counted["round_trips"] > 60
    if workload == "ordering-sharded":
        assert counted["syncs_issued"] > 0 and counted["route_single"] > 0
    assert counted == {key: second[key] for key in counted}


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    config = driver.RunConfig(
        workload="ordering-sharded",
        seed=3,
        seconds=0.0,
        trace=True,
        scale=PopulationScale.tiny(),
        work_dir=str(tmp_path),
        setup_repeats=1,
        count_window=200,
        min_interactions=200,
    )
    config.spans_path = str(tmp_path / "spans" / "ordering-sharded.jsonl.gz")
    result = driver.run(config, out=open(tmp_path / "report.txt", "w"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in spec["per_layer"]}
    assert 0 < result["metrics"]["tpcw.share"]["value"] < 0.2
    assert "unattributed spans 0" in (tmp_path / "report.txt").read_text()
    spans = [json.loads(line) for line in gzip.open(config.spans_path, "rt")]
    assert spans and {"name", "start", "end", "parent", "thread"} <= set(spans[0])


def test_untraced_metrics_match_the_benchmark_spec(tmp_path):
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    config = driver.RunConfig(
        workload="browse-inproc",
        seed=3,
        seconds=0.0,
        scale=PopulationScale.tiny(),
        work_dir=str(tmp_path),
        setup_repeats=2,
    )
    result = driver.run(config, out=open(tmp_path / "report.txt", "w"))
    assert result["correct"] and result["attempted"] >= driver.MIN_INTERACTIONS
    assert set(result["metrics"]) == {metric["name"] for metric in spec["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "browse-inproc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
