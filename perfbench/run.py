"""End-to-end benchmark of Spitz, with a traced per-layer run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 10 --trace 0

Workloads (all closed loop, inputs generated from ``--seed``):

``point-read``       in-process ``SpitzCluster(nodes=2)``, 1 client,
                     100% verified GET, zipf 0.99 over 50,000 records
``update-mix``       in-process durable cluster (WAL fsync per commit),
                     2 clients on disjoint key halves, 50% verified GET
                     and 50% verified PUT, zipf 0.99
``batch-scan-http``  server process via ``serve_cluster``, 2 keep-alive
                     connections: verified MULTI_GET (K=16), SCAN (0.1%)
                     and keyword SEARCH

``--trace 0`` sets up ``SETUP_REPEATS`` times (``setup_s`` is the
median), measures one phase untraced and prints the end-to-end
metrics.  ``--trace 1`` measures one untraced phase (per-kind latency,
error ratio, bytes) and then one traced phase, and prints the
per-layer metrics: counts, per-call times, each layer's self time,
wait time and share of end-to-end time, ``trace.unattributed_share``
and ``trace.overhead`` (untraced over traced ops/s, minus one).  Spans
are written to ``.perfbench_work/spans-<workload>.jsonl``.

Every run checks its outputs: each verified response verifies against
the client's pinned digest, every value equals the benchmark's model
of the last acknowledged write, scans return exactly their span,
searches equal a brute-force filter of the loaded rows, accounting is
exactly-once, and ``update-mix`` recovers every acknowledged write from
its WAL.  The last line of stdout is the JSON result; the line before
it records the seed and the environment.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

import common  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("point-read", "update-mix", "batch-scan-http")


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(setups: List[float], phase, rss_mb: float, wire: float):
    latency = phase.latency_ms()
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(phase.ops_per_s(), "1/s"),
        "p50_ms": _metric(latency["p50"], "ms"),
        "p90_ms": _metric(phase.tail_ms(), "ms"),
        "wire_bytes_per_key": _metric(wire, "B"),
        "rss_peak_mb": _metric(rss_mb, "MB"),
    }


def per_layer(untraced, traced, ladder: spans.Ladder, extra):
    """Every per-layer metric; zero where a layer does no work."""
    m: Dict[str, Dict[str, object]] = {}
    us = "us"
    attempted = untraced.total("attempted") + traced.total("attempted")
    failed = untraced.total("failed") + traced.total("failed")
    m["error_ratio"] = _metric(_ratio(failed, attempted), "ratio")
    for kind in common.OP_KINDS:
        latency = untraced.latency_ms(kind)
        m[f"{kind}_p50_ms"] = _metric(latency["p50"], "ms")
        m[f"{kind}_p99_ms"] = _metric(latency["p99"], "ms")
    m["client.retries"] = _metric(extra["client.retries"], "count")
    m["client.rejected_overload"] = _metric(
        extra["client.rejected_overload"], "count"
    )
    m["node.queue_wait_us"] = _metric(extra["node.queue_wait_us"], us)
    m["node.handoff_us"] = _metric(ladder.mean_self_us("cluster.submit"), us)
    m["node.queue_depth_max"] = _metric(
        extra["maxima"].get("queue.depth", 0.0), "count"
    )
    for kind in common.OP_KINDS:
        m[f"handler.handle_us.{kind}"] = _metric(
            ladder.mean_us("handler.handle", kind), us
        )
    m["txn.commit_lock_wait_us"] = _metric(ladder.mean_us("txn.lock_wait"), us)
    m["txn.commit_lock_hold_us"] = _metric(
        _mean(extra["samples"].get("txn.lock_hold", [])) * 1e6, us
    )
    for kind in ("get", "put", "mget", "scan"):
        m[f"ledger.prove_us.{kind}"] = _metric(
            ladder.mean_us("ledger.prove", kind), us
        )
    m["ledger.append_us"] = _metric(ladder.mean_us("ledger.append"), us)
    writes = traced.total("writes")
    m["ledger.blocks_sealed"] = _metric(
        _ratio(len(ladder.named("ledger.append")), writes), "count/write"
    )
    applies = len(ladder.named("pos_tree.apply"))
    m["pos_tree.apply_us"] = _metric(ladder.mean_us("pos_tree.apply"), us)
    m["pos_tree.nodes_written_per_apply"] = _metric(
        _ratio(ladder.count_under("chunks.put", "pos_tree.apply"), applies),
        "count/apply",
    )
    for op in ("encode", "decode"):
        m[f"siri.{op}_calls"] = _metric(
            _ratio(len(ladder.named(f"siri.{op}")), len(ladder.op_roots)),
            "count/op",
        )
        m[f"siri.{op}_us"] = _metric(ladder.mean_us(f"siri.{op}"), us)
    m["siri.node_bytes"] = _metric(
        _mean(extra["samples"].get("siri.node_bytes", [])), "B"
    )
    user_bytes = traced.total("user_bytes_written")
    storage = traced.growth
    m["chunks.put_us"] = _metric(ladder.mean_us("chunks.put"), us)
    m["chunks.puts_per_write"] = _metric(
        _ratio(len(ladder.named("chunks.put")), writes), "count/write"
    )
    puts = storage.get("chunk_puts", 0)
    m["chunks.dedup_hit_rate"] = _metric(
        1.0 - _ratio(storage.get("unique_chunks", 0), puts) if puts else 0.0,
        "ratio",
    )
    m["chunks.physical_bytes_per_user_byte"] = _metric(
        _ratio(storage.get("physical", 0), user_bytes), "ratio"
    )
    m["wal.append_us"] = _metric(ladder.mean_us("wal.append"), us)
    m["wal.fsync_us"] = _metric(ladder.mean_us("wal.fsync"), us)
    m["wal.fsyncs_per_write"] = _metric(
        _ratio(len(ladder.named("wal.fsync")), writes), "count/write"
    )
    m["wal.bytes_per_user_byte"] = _metric(
        _ratio(storage.get("wal", 0), user_bytes), "ratio"
    )
    m["wal.recovery_s"] = _metric(extra["wal.recovery_s"], "s")
    grown = untraced.growth
    untraced_writes = untraced.total("writes")
    m["stored_bytes_per_user_byte"] = _metric(
        _ratio(
            grown.get("physical", 0) + grown.get("wal", 0),
            untraced.total("user_bytes_written"),
        ),
        "ratio",
    )
    m["memory.rss_growth_per_write_kb"] = _metric(
        _ratio(grown.get("rss_mb", 0.0) * 1024, untraced_writes), "KiB"
    )
    for kind in common.OP_KINDS:
        m[f"verifier.verify_us.{kind}"] = _metric(
            ladder.mean_us("verifier.verify", kind), us
        )
    m["verifier.cache_hit_ratio"] = _metric(extra["verifier.cache_hit_ratio"], "ratio")
    m["codec.encode_us"] = _metric(ladder.mean_us("codec.encode"), us)
    m["codec.decode_us"] = _metric(ladder.mean_us("codec.decode"), us)
    round_trips = len(ladder.named("http.round_trip"))
    http_self = sum(
        ladder.self_time[s[spans.ID]]
        for name in ("http.round_trip", "http.request")
        for s in ladder.named(name)
    )
    m["http.self_us"] = _metric(_ratio(http_self, round_trips) * 1e6, us)
    m["http.response_bytes"] = _metric(
        _ratio(traced.total("response_bytes"), traced.completed), "B"
    )
    m["search.prove_us"] = _metric(ladder.mean_us("search.prove"), us)
    m["search.proof_bytes_per_result"] = _metric(
        _ratio(traced.total("search_bytes"), traced.total("search_results")),
        "B",
    )
    for name, value in ladder.layers().items():
        unit = "ratio" if name.endswith("share") else (
            "count/op" if name.endswith("calls_per_op") else us
        )
        m[name] = _metric(value, unit)
    m["trace.overhead"] = _metric(
        _ratio(untraced.ops_per_s(), traced.ops_per_s()) - 1.0, "ratio"
    )
    return m


def measure(run: common.Run, args):
    """Set up, measure and check one run; returns (metrics, phases)."""
    if not args.trace:
        setups = [run.setup() for _ in range(common.SETUP_REPEATS)]
        phase = run.phase(args.seconds)
        report = run.stop_and_check()
        metrics = end_to_end(
            setups, phase, report["rss_peak_mb"], run.wire_bytes_per_key(phase)
        )
        return metrics, [phase]
    run.setup()
    untraced = run.phase(args.seconds / 2)
    counts_before = [_client_counts(c) for c in run.clients]
    recorder = spans.Recorder()
    run.trace(recorder)
    for client in run.clients:
        client.recorder = recorder
    try:
        traced = run.phase(args.seconds / 2)
    finally:
        recorder.uninstall()
        for client in run.clients:
            client.recorder = None
    extra = _client_extra(
        counts_before, [_client_counts(c) for c in run.clients]
    )
    report = run.stop_and_check()
    extra["wal.recovery_s"] = report.get("wal.recovery_s", 0.0)
    all_spans, layer_extra = run.trace_report(recorder, report)
    extra.update(layer_extra)
    ladder = spans.Ladder(all_spans)
    common.WORK.mkdir(exist_ok=True)
    spans.dump(
        all_spans,
        ladder.request_ids(),
        common.WORK / f"spans-{args.workload}.jsonl",
    )
    return per_layer(untraced, traced, ladder, extra), [untraced, traced]


def _client_counts(client) -> Dict[str, int]:
    stats, verifier = client.client.stats, client.verifier
    return {
        "retries": stats.retries,
        "rejected_overload": stats.rejected_overload,
        "hits": verifier.cache_hits,
        "misses": verifier.cache_misses,
    }


def _client_extra(before: List[Dict[str, int]], after: List[Dict[str, int]]):
    delta = {
        key: sum(a[key] - b[key] for a, b in zip(after, before))
        for key in before[0]
    }
    return {
        "client.retries": delta["retries"],
        "client.rejected_overload": delta["rejected_overload"],
        "verifier.cache_hit_ratio": _ratio(
            delta["hits"], delta["hits"] + delta["misses"]
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()
    checks = common.Checks()
    if args.workload == "batch-scan-http":
        from wire import HttpRun

        run = HttpRun(args.seed, checks)
    else:
        from inproc import InProcessRun

        import_s = time.perf_counter() - _PROCESS_START
        run = InProcessRun(args.workload, args.seed, checks, import_s)
    try:
        metrics, phases = measure(run, args)
    finally:
        run.cleanup()
    attempted = sum(p.total("attempted") for p in phases)
    failed = sum(p.total("failed") for p in phases)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": common.environment(**run.facts()),
        "samples": {
            "total": sum(p.completed for p in phases),
            **{
                kind: len(phases[0].latencies(kind))
                for kind in common.OP_KINDS
                if phases[0].latencies(kind)
            },
        },
        "checks": {"passed": dict(checks.passed), "failures": checks.failures},
    }
    result = {
        "correct": checks.correct and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    common.WORK.mkdir(exist_ok=True)
    with open(
        common.WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json",
        "w",
    ) as out:
        json.dump({**record, **result}, out, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
