"""One benchmark run: set-up, the timed closed loop, checks and metrics."""

from __future__ import annotations

import gc
import gzip
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.obs.trace import TracingOptions
from repro.tpcw.population import PopulationScale
from repro.tpcw.queries_queryll import QUERY_FUNCTIONS

from . import host, stats, workloads
from .ledger import Ledger

#: Interactions between two calibration-kernel readings.
BATCH = 10

#: The first this-many interactions of every run are the count window:
#: count metrics are deltas over exactly these, so they repeat exactly
#: for a seed whatever the host speed.
COUNT_WINDOW = 1000

#: A run keeps going past ``--seconds`` until it has this many timed
#: interactions, so that >= 10 samples lie beyond the p99.
MIN_INTERACTIONS = 1000

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"browse-inproc": 9, "browse-remote": 9, "ordering-sharded": 15}

#: Traced runs alternate untraced and traced blocks of this many
#: interactions (the untraced ones are the overhead baseline) ...
TRACE_BLOCK = 100

#: ... until this many blocks were traced, which bounds the spans held in
#: memory; the rest of the run is untraced.
MAX_TRACED_BLOCKS = 10

_ENGINE_TRACE_BUFFER = 1 << 16

#: The benchmark spec; the units of the printed metrics come from it.
SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@dataclass
class RunConfig:
    workload: str
    seed: int
    seconds: float
    trace: bool = False
    scale: PopulationScale = field(default_factory=PopulationScale)
    work_dir: str = ".perfbench_work"
    setup_repeats: Optional[int] = None
    count_window: int = COUNT_WINDOW
    min_interactions: int = MIN_INTERACTIONS
    #: Traced runs: write every span here at the end, as gzipped JSON lines.
    spans_path: Optional[str] = None


@dataclass
class Phase:
    """What the timed loop observed."""

    kinds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    write_latencies: list = field(default_factory=list)
    kernel_ms: list = field(default_factory=list)
    #: Process CPU seconds of each batch (kernel runs excluded).
    batch_cpu_s: list = field(default_factory=list)
    wall_s: float = 0.0
    failed: int = 0
    errors: list = field(default_factory=list)
    browse_records: list = field(default_factory=list)
    transfers: list = field(default_factory=list)
    window_commits: int = 0
    window_writes: int = 0
    counters_start: dict = field(default_factory=dict)
    counters_window: dict = field(default_factory=dict)
    #: Peak resident set through set-up and the count window (later
    #: growth only stores the records the checks replay).
    peak_rss_mb: float = 0.0
    engine_spans: dict = field(default_factory=lambda: {
        "statements": 0, "parse": 0.0, "plan": 0.0, "execute": 0.0, "moded": 0, "batch": 0,
    })


# -- counters ------------------------------------------------------------------


def counters(target: workloads.Target) -> dict:
    """Every counter the layers expose, read through public surfaces."""
    values: dict = {}
    engine_stats = [engine.stats() for engine in target.engines]
    values["engine_statements"] = sum(s["statements_executed"] for s in engine_stats)
    for key in ("plans_computed", "hits", "misses"):
        values[f"cache_{key}"] = sum(s["statement_cache"][key] for s in engine_stats)
    for key in ("conflicts", "retries", "aborts", "commits", "gc_backlog"):
        values[f"mvcc_{key}"] = sum(s["mvcc"][key] for s in engine_stats)
    for key in ("syncs_issued", "log_bytes"):
        values[key] = sum(s["durability"].get(key, 0) for s in engine_stats)
    if target.coordinator is not None:
        coordinator = target.coordinator.stats()
        values["statements"] = coordinator["statements_executed"]
        for route, count in coordinator["routes"].items():
            values[f"route_{route}"] = count
    else:
        values["statements"] = values["engine_statements"]
    if target.pool is not None:
        pool = target.pool.stats()
        for key in ("round_trips", "checkouts", "bytes_sent", "bytes_received"):
            values[key] = pool[key]
    values["rewritten_calls"] = sum(f.rewritten_calls for f in QUERY_FUNCTIONS.values())
    values["fallback_calls"] = sum(f.fallback_calls for f in QUERY_FUNCTIONS.values())
    return values


def deltas(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


# -- set-up --------------------------------------------------------------------


def _kernel_readings(count: int = 10) -> list[float]:
    return [host.time_kernel() for _ in range(count)]


def set_up(config: RunConfig, repeats: int, mappings: list) -> tuple[workloads.Target, list[float], list[float]]:
    """Build the system ``repeats`` times; keep the last build.

    Each set-up is timed from the first population statement to the end
    of :func:`workloads.first_calls` (a cold lowering and analysis of every
    ``@query`` function, then its first call), and normalised by kernel
    readings taken right before and right after it.  Returns the kept
    target, the normalised and the raw set-up times.  ``mappings`` keeps
    every build's ORM mapping alive: the ``@query`` analysis caches are
    keyed by mapping identity, and a recycled id would skip the analysis
    of a later build.
    """
    normalised, raw = [], []
    target = None
    for _ in range(repeats):
        if target is not None:
            target.stop()
            target = None
        gc.collect()
        before = _kernel_readings()
        started = time.perf_counter()
        target = workloads.build_target(config.workload, config.scale, config.work_dir)
        workloads.first_calls(target)
        elapsed = time.perf_counter() - started
        after = _kernel_readings()
        mappings.append(target.mapping)
        raw.append(elapsed)
        normalised.append(elapsed * host.host_factor(before + after))
    return target, normalised, raw


def cold_rewrite_ms(target: workloads.Target, repeats: int = 3) -> float:
    """Median time of :func:`workloads.cold_rewrite` on the run's mapping."""
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        workloads.cold_rewrite(target.mapping)
        timings.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(timings)


# -- the timed closed loop -----------------------------------------------------


def _set_engine_tracing(target: workloads.Target, enabled: bool) -> None:
    for engine in target.engines:
        engine.set_tracing(TracingOptions(enabled=enabled, buffer_size=_ENGINE_TRACE_BUFFER))


def _drain_engine_spans(target: workloads.Target, totals: dict) -> None:
    for engine in target.engines:
        for span in engine.traces():
            if span["name"] != "statement":
                continue
            totals["statements"] += 1
            phases = span["phases"]
            for phase in ("parse", "plan", "execute"):
                totals[phase] += phases.get(phase, 0.0)
            mode = span["tags"].get("mode")
            if mode is not None:
                totals["moded"] += 1
                totals["batch"] += mode == "batch"
        engine.trace_buffer.clear()


def timed_phase(config: RunConfig, target: workloads.Target, recorder=None) -> Phase:
    phase = Phase()
    stream = workloads.InteractionStream(config.scale, config.seed, target.transfer_fraction)
    clock = time.perf_counter
    cpu_clock = time.process_time
    phase.counters_start = counters(target)
    traced_block = False
    done = 0
    started = clock()
    while True:
        phase.kernel_ms.append(host.time_kernel())
        if recorder is not None and done % TRACE_BLOCK == 0:
            if traced_block:
                recorder.active = False
                _drain_engine_spans(target, phase.engine_spans)
                _set_engine_tracing(target, False)
            block = done // TRACE_BLOCK
            traced_block = block % 2 == 1 and block < 2 * MAX_TRACED_BLOCKS
            if traced_block:
                _set_engine_tracing(target, True)
                recorder.active = True
        cpu_started = cpu_clock()
        for _ in range(BATCH):
            kind, parameter = stream.next()
            span = recorder.open("tpcw", kind) if traced_block else None
            t0 = clock()
            try:
                if kind == "transfer":
                    outcome = workloads.transfer(target, parameter, t0, clock)
                    phase.transfers.append((parameter, outcome.committed))
                    if outcome.committed:
                        phase.write_latencies.append((done, outcome.ack_s))
                    if done < config.count_window:
                        phase.window_writes += 1
                        phase.window_commits += outcome.committed
                else:
                    result = workloads.browse(target, kind, parameter)
                    phase.browse_records.append((kind, parameter, result))
            except Exception as error:  # noqa: BLE001 - counted, reported
                phase.failed += 1
                if len(phase.errors) < 5:
                    phase.errors.append(f"{kind}({parameter!r}): {type(error).__name__}: {error}")
            t1 = clock()
            if span is not None:
                recorder.close(span)
            phase.kinds.append(kind)
            phase.latencies.append(t1 - t0)
            phase.traced.append(traced_block)
            done += 1
            if done == config.count_window:
                phase.counters_window = counters(target)
                phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phase.batch_cpu_s.append(cpu_clock() - cpu_started)
        if clock() - started >= config.seconds and done >= max(config.min_interactions, config.count_window):
            break
    phase.wall_s = clock() - started
    phase.kernel_ms.append(host.time_kernel())
    if recorder is not None:
        recorder.active = False
        if traced_block:
            _drain_engine_spans(target, phase.engine_spans)
        _set_engine_tracing(target, False)
    return phase


# -- checks --------------------------------------------------------------------


def check(target: workloads.Target, phase: Phase, stock_before) -> list[str]:
    """Correctness of everything the timed phase did (run after it)."""
    problems = workloads.check_browse(target, phase.browse_records)
    if stock_before is not None:
        start, start_sum = stock_before
        problems += workloads.check_ledger(
            start,
            start_sum,
            workloads.item_stock(target),
            workloads.shard_stock_sum(target),
            phase.transfers,
        )
    return problems


# -- metrics -------------------------------------------------------------------


def normalised_latencies(phase: Phase) -> list[float]:
    """Interaction latencies in ms, each scaled by its batch's host factor."""
    factors = host.batch_factors(phase.kernel_ms)
    return [value * 1000.0 * factors[index // BATCH] for index, value in enumerate(phase.latencies)]


def end_to_end(phase: Phase, setup_normalised: list[float], window: dict, interactions_in_window: int) -> tuple[dict, dict]:
    """(metrics, samples): end-to-end values and their sample counts."""
    latencies_ms = normalised_latencies(phase)
    factors = host.batch_factors(phase.kernel_ms)
    n = len(latencies_ms)
    completed = n - phase.failed
    cpu_ms = sum(cpu * 1000.0 * factor for cpu, factor in zip(phase.batch_cpu_s, factors))
    metrics = {
        "throughput_ips": completed / (sum(latencies_ms) / 1000.0),
        "latency_p50_ms": stats.percentile(latencies_ms, 50),
        "latency_p99_ms": stats.percentile(latencies_ms, 99),
        "statements_per_interaction": window["statements"] / interactions_in_window,
        "cpu_ms_per_interaction": cpu_ms / n,
        "peak_rss_mb": phase.peak_rss_mb,
        "setup_s": statistics.median(setup_normalised),
    }
    samples = {
        "throughput_ips": n,
        "latency_p50_ms": n,
        "latency_p99_ms": n,
        "statements_per_interaction": interactions_in_window,
        "cpu_ms_per_interaction": n,
        "peak_rss_mb": 1,
        "setup_s": len(setup_normalised),
    }
    return metrics, samples


def extra_end_to_end(phase: Phase, window: dict, interactions_in_window: int) -> list[tuple[str, float, str, int]]:
    """Workload-specific end-to-end figures the report prints beside the
    common ones: write latency, round trips and the failed share."""
    factors = host.batch_factors(phase.kernel_ms)
    rows = []
    writes_ms = [seconds * 1000.0 * factors[index // BATCH] for index, seconds in phase.write_latencies]
    if writes_ms:
        rows.append(("write_latency_p50_ms", stats.percentile(writes_ms, 50), "ms", len(writes_ms)))
        tail = stats.tail_percentile(len(writes_ms))
        if tail is not None and tail > 50:
            name = stats.percentile_name("write_latency", tail)
            rows.append((name, stats.percentile(writes_ms, tail), "ms", len(writes_ms)))
    if "round_trips" in window:
        rows.append(("round_trips_per_interaction", window["round_trips"] / interactions_in_window, "count", interactions_in_window))
    attempted = len(phase.latencies)
    rows.append(("failed_share", phase.failed / attempted, "ratio", attempted))
    return rows


def _p50_ms(values: list[float]) -> float:
    return stats.percentile(values, 50) * 1000.0 if values else 0.0


def per_layer(
    phase: Phase,
    recorder,
    window: dict,
    interactions_in_window: int,
    cold_rewrite: float,
) -> dict:
    """The per-layer metrics of a traced run."""
    factor = host.host_factor(phase.kernel_ms)
    ledger = Ledger(recorder.spans, recorder.client_thread)
    roots = [s for s in recorder.spans if s.layer == "tpcw" and s.parent == 0 and s.thread == recorder.client_thread]
    root_ids = {s.id for s in roots}
    interactions = len(roots)
    interaction_s = sum(s.end - s.start for s in roots)
    layer_self = ledger.layer_self_time(root_ids)
    in_tree = [s for s in recorder.spans if ledger.root_of(s).id in root_ids]

    def count(predicate) -> int:
        return sum(1 for s in in_tree if predicate(s))

    def share(layer: str) -> float:
        return layer_self.get(layer, 0.0) / interaction_s

    def self_ms_per(layer: str, denominator: int) -> float:
        return layer_self.get(layer, 0.0) * 1000.0 * factor / denominator if denominator else 0.0

    def per_window(value: float) -> float:
        return value / interactions_in_window

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict = {}
    by_kind: dict = {}
    for span in roots:
        by_kind.setdefault(span.name, []).append(span.end - span.start)
    for kind in workloads.BROWSE_KINDS + ("transfer",):
        metrics[f"tpcw.{kind}.latency_p50_ms"] = _p50_ms(by_kind.get(kind, [])) * factor
    metrics["tpcw.share"] = share("tpcw")

    metrics["pyfrontend.self_ms_per_interaction"] = self_ms_per("pyfrontend", interactions)
    metrics["pyfrontend.share"] = share("pyfrontend")
    calls = window["rewritten_calls"] + window["fallback_calls"]
    metrics["pyfrontend.fallback_share"] = ratio(window["fallback_calls"], calls)
    metrics["core.cold_rewrite_ms"] = cold_rewrite * factor

    em_statements = [s for s in in_tree if s.name == "EntityManager.execute_sql"]
    loop = sum(
        1
        for s in em_statements
        if any(a.name in ("execute_generated_query", "SqlBackedQuery.load[generated]") for a in ledger.ancestors(s))
    )
    metrics["orm.self_ms_per_interaction"] = self_ms_per("orm", interactions)
    metrics["orm.share"] = share("orm")
    metrics["orm.entities_per_interaction"] = ratio(count(lambda s: s.name == "EntityManager.materialise_entity"), interactions)
    metrics["orm.loop_statements_per_interaction"] = ratio(loop, interactions)
    metrics["orm.lazy_statements_per_interaction"] = ratio(len(em_statements) - loop, interactions)

    dbapi_statements = count(
        lambda s: s.layer == "dbapi" and s.name.split(".")[-1] in ("execute_query", "execute_update", "commit", "rollback")
    )
    metrics["dbapi.self_ms_per_statement"] = self_ms_per("dbapi", dbapi_statements)
    metrics["dbapi.share"] = share("dbapi")

    requests = count(lambda s: s.name == "WireClient.request")
    waits = count(lambda s: s.name == "server.wait")
    metrics["netclient.self_ms_per_round_trip"] = self_ms_per("netclient", requests)
    metrics["netclient.share"] = share("netclient")
    metrics["netclient.round_trips_per_interaction"] = per_window(window.get("round_trips", 0))
    metrics["netclient.round_trips_per_statement"] = ratio(window.get("round_trips", 0), window["statements"])
    metrics["netclient.checkouts_per_interaction"] = per_window(window.get("checkouts", 0))
    metrics["netclient.bytes_sent_per_interaction"] = per_window(window.get("bytes_sent", 0))
    metrics["netclient.bytes_received_per_interaction"] = per_window(window.get("bytes_received", 0))
    metrics["server.wait_ms_per_round_trip"] = self_ms_per("server", waits)
    metrics["server.share"] = share("server")

    coordinator_statements = count(lambda s: s.name == "ShardedSession.execute")
    metrics["sharding.self_ms_per_statement"] = self_ms_per("sharding", coordinator_statements)
    metrics["sharding.share"] = share("sharding")
    for route in ("single", "any", "fanout", "gather", "broadcast", "split"):
        metrics[f"sharding.route.{route}_per_interaction"] = per_window(window.get(f"route_{route}", 0))
    metrics["sharding.shard_statements_per_statement"] = (
        ratio(window["engine_statements"], window["statements"]) if "route_single" in window else 0.0
    )
    twopc_s = sum(s.end - s.start for s in in_tree if s.name == "ShardedSession.commit" and s.rows == "2pc")
    metrics["sharding.twopc_share"] = twopc_s / interaction_s

    engine_spans = [s for s in in_tree if s.name == "Session.execute"]
    traced_statements = phase.engine_spans["statements"]
    metrics["sqlengine.busy_ms_per_statement"] = self_ms_per("sqlengine", len(engine_spans))
    metrics["sqlengine.share"] = share("sqlengine")
    for name in ("parse", "plan", "execute"):
        metrics[f"sqlengine.{name}_ms_per_statement"] = ratio(phase.engine_spans[name], traced_statements) * factor
    metrics["sqlengine.plans_computed_per_interaction"] = per_window(window["cache_plans_computed"])
    metrics["sqlengine.plan_cache_hit_ratio"] = ratio(window["cache_hits"], window["cache_hits"] + window["cache_misses"])
    metrics["sqlengine.rows_returned_per_statement"] = ratio(sum(s.rows or 0 for s in engine_spans), len(engine_spans))
    metrics["sqlengine.batch_scan_share"] = ratio(phase.engine_spans["batch"], phase.engine_spans["moded"])
    for key in ("conflicts", "retries", "aborts"):
        metrics[f"sqlengine.mvcc.{key}_per_write"] = ratio(window[f"mvcc_{key}"], phase.window_writes)
    metrics["sqlengine.mvcc.gc_backlog"] = phase.counters_window["mvcc_gc_backlog"]

    traced_commits = count(lambda s: s.layer == "dbapi" and s.name.endswith(".commit"))
    fsync_s = sum(s.end - s.start for s in in_tree if s.name == "os.fsync")
    metrics["durability.syncs_per_commit"] = ratio(window["syncs_issued"], phase.window_commits)
    metrics["durability.log_bytes_per_commit"] = ratio(window["log_bytes"], phase.window_commits)
    metrics["durability.fsync_ms_per_commit"] = ratio(fsync_s * 1000.0 * factor, traced_commits)

    # The overhead baseline is the untraced blocks interleaved with the
    # traced ones, not the untraced remainder of the run.
    interleaved = 2 * MAX_TRACED_BLOCKS * TRACE_BLOCK
    traced_lat = [v for v, t in zip(phase.latencies, phase.traced) if t]
    plain_lat = [v for v, t in zip(phase.latencies[:interleaved], phase.traced) if not t]
    metrics["obs.trace_overhead_ratio"] = ratio(statistics.fmean(traced_lat), statistics.fmean(plain_lat))

    metrics["host.calibration_ms"] = statistics.fmean(phase.kernel_ms)
    untraced = [v for v, t in zip(phase.latencies, phase.traced) if not t]
    metrics["host.raw_throughput_ips"] = len(untraced) / sum(untraced)
    metrics["_unattributed_spans"] = len(ledger.unattributed)
    return metrics


# -- the run -------------------------------------------------------------------


def spec_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads(SPEC_PATH.read_text())
    return {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}


@dataclass
class Measurement:
    """Everything one run observed, before metrics are derived."""

    phase: Phase
    setup_normalised: list
    setup_raw: list
    problems: list
    window: dict
    recorder: object = None
    cold_rewrite_ms: float = 0.0


def measure(config: RunConfig) -> Measurement:
    """Set up, run the timed phase, check correctness, tear down.

    Half the set-ups run before the timed phase (the last one is the
    system under test) and half after it, so their median spans host
    phases some ``--seconds`` apart instead of a single one.
    """
    os.makedirs(config.work_dir, exist_ok=True)
    repeats = config.setup_repeats or SETUP_REPEATS[config.workload]
    mappings: list = []
    target, setup_normalised, setup_raw = set_up(config, repeats // 2 + 1, mappings)
    recorder = None
    cold_rewrite = 0.0
    try:
        stock_before = None
        if config.workload == "ordering-sharded":
            stock_before = (workloads.item_stock(target), workloads.shard_stock_sum(target))
        if config.trace:
            from . import tracer

            cold_rewrite = cold_rewrite_ms(target)
            recorder = tracer.install(target.coordinator)
        gc.collect()
        try:
            phase = timed_phase(config, target, recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        problems = check(target, phase, stock_before)
    finally:
        target.stop()
    if repeats > 1:
        later, normalised, raw = set_up(config, repeats // 2, mappings)
        later.stop()
        setup_normalised += normalised
        setup_raw += raw
    window = deltas(phase.counters_start, phase.counters_window)
    return Measurement(phase, setup_normalised, setup_raw, problems, window, recorder, cold_rewrite)


def run(config: RunConfig, out=sys.stdout) -> dict:
    """Run one workload; prints a report and returns the result document
    (the last line the command prints)."""
    measurement = measure(config)
    phase, window, problems = measurement.phase, measurement.window, measurement.problems
    setup_raw, setup_normalised = measurement.setup_raw, measurement.setup_normalised
    recorder = measurement.recorder
    units = spec_units()
    attempted = len(phase.latencies)
    failed = phase.failed + len(problems)
    print(f"workload {config.workload}  seed {config.seed}  trace {int(config.trace)}", file=out)
    print(
        f"interactions {attempted} (count window {config.count_window})  wall {phase.wall_s:.1f} s  "
        f"host.calibration_ms {statistics.fmean(phase.kernel_ms):.4f} over {len(phase.kernel_ms)} kernels  "
        f"host factor {host.host_factor(phase.kernel_ms):.4f}",
        file=out,
    )
    print(
        "setup_s raw " + " ".join(f"{value:.4f}" for value in setup_raw)
        + "  normalised " + " ".join(f"{value:.4f}" for value in setup_normalised),
        file=out,
    )
    if config.trace:
        metrics = per_layer(phase, recorder, window, config.count_window, measurement.cold_rewrite_ms)
        print(f"unattributed spans {metrics.pop('_unattributed_spans')}", file=out)
        if config.spans_path:
            os.makedirs(os.path.dirname(config.spans_path), exist_ok=True)
            with gzip.open(config.spans_path, "wt", encoding="utf-8", compresslevel=1) as spans_file:
                for span in recorder.spans:
                    spans_file.write(json.dumps(span.as_dict()) + "\n")
            print(f"{len(recorder.spans)} spans written to {config.spans_path}", file=out)
        rows = [(name, value, units[name], None) for name, value in metrics.items()]
    else:
        metrics, samples = end_to_end(phase, setup_normalised, window, config.count_window)
        rows = [(name, value, units[name], samples[name]) for name, value in metrics.items()]
        rows += extra_end_to_end(phase, window, config.count_window)
        raw_ips = (attempted - phase.failed) / sum(phase.latencies)
        rows.append(("host.raw_throughput_ips", raw_ips, "1/s", attempted))
        rows.append(("host.calibration_ms", statistics.fmean(phase.kernel_ms), "ms", len(phase.kernel_ms)))
    for name, value, unit, sample_count in rows:
        suffix = "" if sample_count is None else f"  n={sample_count}"
        print(f"  {name:<44} {value:>14.4f} {unit}{suffix}", file=out)
    for message in phase.errors + problems[:5]:
        print(f"FAILED {message}", file=out)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
