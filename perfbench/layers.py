"""The traced run: per-layer metrics from spans around each layer's calls.

``--trace 1`` runs the workload itself with an enabled tracer — its first
half in shadow mode (top-level calls timed, nothing else recorded), the
second half with full spans — and then a layer profile that produces
every per-layer metric of ``BENCHMARK.json``, whichever the workload:

* build stages, from spans around each stage of one traced build;
* the read ladder: the same queries from the same two threads against
  each entry point of the HTTP read path in turn, from the index alone
  up to the balancer, where each rung's self time is that rung minus the
  rung below it;
* the write path: one delta stream replayed in-process stage by stage,
  then acked by the tier directly and over HTTP;
* bulk scoring: the flat index, its top-k selection alone, and the
  sharded tier on the same 64-query batches.

``LAYERS`` records which end-to-end figure each per-layer metric should
move, on which workload.
"""

from __future__ import annotations

import copy
import statistics
import time
from pathlib import Path

import numpy as np

from repro.serving import (
    EmbeddingStore,
    FlatIndex,
    ServingClient,
    ServingSession,
    topk_descending,
)

import build
import inputs
import serving
from harness import Tracer

#: name -> (unit, better, end-to-end figure it should move, workload).
LAYERS: dict[str, tuple[str, str, str, str]] = {
    "extraction.extract_s": ("s", "lower", "p50_ms (build_*_s)", "build"),
    "initialization.init_s": ("s", "lower", "p50_ms", "build"),
    "retro.solve_rn_s": ("s", "lower", "p50_ms (build_rn_s)", "build"),
    "retro.solve_ro_s": ("s", "lower", "p50_ms (build_ro_s)", "build"),
    "retro.rn_iterations": ("count", "lower", "p50_ms (build_rn_s)", "build"),
    "retro.ro_iterations": ("count", "lower", "p50_ms (build_ro_s)", "build"),
    "graph.build_s": ("s", "lower", "p50_ms (build_dw_s)", "build"),
    "graph.walks_s": ("s", "lower", "p50_ms (build_dw_s)", "build"),
    "graph.walk_tokens": ("count", "lower", "p50_ms (build_dw_s)", "build"),
    "deepwalk.sgns_s": ("s", "lower", "p50_ms (build_dw_s)", "build"),
    "store.save_s": ("s", "lower", "p50_ms; setup_s on serving", "build"),
    "store.bytes_per_value": ("bytes", "lower", "setup_s, peak_rss_mb", "build"),
    "index.build_s": ("s", "lower", "p50_ms; setup_s on serving", "build"),
    "index.query_us": ("us", "lower", "p50_ms (read_p50_ms)", "http-read"),
    "session.topk_us": ("us", "lower", "p50_ms (read_p50_ms)", "http-read"),
    "replicated.topk_us": ("us", "lower", "p50_ms (read_p50_ms)", "http-read"),
    "http.front_topk_us": ("us", "lower", "p50_ms (read_p50_ms)", "http-read"),
    "multifront.topk_us": ("us", "lower", "p50_ms (read_p50_ms)", "http-read"),
    "session.self_us": ("us", "lower", "p50_ms (read_p50_ms)", "http-read"),
    "replicated.self_us": ("us", "lower", "p50_ms (read_p50_ms)", "http-read"),
    "http.self_us": ("us", "lower", "ops_per_s (read_qps)", "http-read"),
    "multifront.self_us": ("us", "lower", "ops_per_s (read_qps)", "http-read"),
    "session.cache_hit_rate": ("fraction", "higher", "p50_ms", "http-read"),
    "http.mean_batch_size": ("count", "higher", "ops_per_s (read_qps)", "http-read"),
    "http.batches": ("count", "lower", "ops_per_s (read_qps)", "http-read"),
    "replicated.degraded_queries": ("count", "lower", "ok_frac", "http-read"),
    "multifront.balancer_connections": ("count", "lower", "ops_per_s (read_qps)", "http-read"),
    "db.apply_s": ("s", "lower", "write_ack_p50_ms", "http-mixed"),
    "extraction.delta_s": ("s", "lower", "write_ack_p50_ms", "http-mixed"),
    "incremental.apply_s": ("s", "lower", "write_ack_p50_ms", "http-mixed"),
    "incremental.active_rows": ("count", "lower", "write_ack_p50_ms", "http-mixed"),
    "session.apply_update_s": ("s", "lower", "write_ack_p50_ms", "http-mixed"),
    "store.append_s": ("s", "lower", "write_ack_p50_ms", "http-mixed"),
    "store.delta_bytes": ("bytes", "lower", "write_ack_p50_ms", "http-mixed"),
    "replicated.submit_ack_ms": ("ms", "lower", "write_ack_p50_ms", "http-mixed"),
    "client.submit_ack_ms": ("ms", "lower", "write_ack_p50_ms", "http-mixed"),
    "replicated.replication_lag_ms": ("ms", "lower", "tail_ms (read_p99_ms)", "http-mixed"),
    "runtime.coalesce_ratio": ("fraction", "higher", "write_ack_tail_ms", "http-mixed"),
    "index.query_batch_ms": ("ms", "lower", "ops_per_s (scan_qps)", "bulk-scan"),
    "index.topk_select_ms": ("ms", "lower", "ops_per_s (scan_qps)", "bulk-scan"),
    "sharded.topk_batch_ms": ("ms", "lower", "ops_per_s (scan_qps)", "bulk-scan"),
    "sharded.degraded_queries": ("count", "lower", "ok_frac", "bulk-scan"),
    "trace.coverage": ("fraction", "higher", "(layer self time / end-to-end mean)", "all"),
}

#: Queries per client thread on each rung of the read ladder.
RUNG_QUERIES = 100
#: Deltas replayed in-process, then acked by the tier, then over HTTP.
WRITE_DELTAS = 4
#: 64-query batches per bulk-scoring probe.
SCAN_PROBES = 8

#: The workload's top-level operation, whose traced and shadow means
#: give the tracing overhead.
TOP_SPAN = {
    "build": "build",
    "http-read": "client.topk",
    "http-mixed": "client.submit",
    "bulk-scan": "sharded.topk_batch",
}


def _mean(values) -> float:
    return float(statistics.fmean(values))


def build_layers(tracer: Tracer, seed: int, workdir: Path) -> tuple[dict, float]:
    """Build-stage metrics from one traced build; also the build's
    coverage (stage time over build time)."""
    store = EmbeddingStore(workdir / "profile-build")
    result = build.build_once(inputs.tmdb(seed), store, "profile", tracer, seed)
    stage = {name: tracer.durations(name)[-1] for name in result["stages"]}
    metrics = {f"{name}_s": stage[name] for name in stage}
    metrics.update({
        "retro.rn_iterations": result["reports"]["rn"].iterations,
        "retro.ro_iterations": result["reports"]["ro"].iterations,
        "graph.walk_tokens": result["walk_tokens"],
        "store.bytes_per_value": result["store_bytes"]
        / (result["values"] * len(result["sets"])),
    })
    return metrics, sum(stage.values()) / tracer.durations("build")[-1]


def ladder_rung(tracer: Tracer, name: str, call, queries: np.ndarray) -> float:
    """Mean µs of ``call`` over the same queries from two threads."""
    def worker(index: int):
        def run():
            invoke = call(index)
            for n in range(index, RUNG_QUERIES * serving.CLIENT_THREADS,
                           serving.CLIENT_THREADS):
                with tracer.span(name):
                    invoke(queries[n])
        return run

    serving.run_threads([worker(i) for i in range(serving.CLIENT_THREADS)])
    return _mean(tracer.durations(name)) * 1e6


def read_ladder(tracer: Tracer, corpus, tier, deployment) -> dict:
    queries = corpus.queries
    matrix = corpus.embeddings.matrix
    index = FlatIndex(matrix)
    session = ServingSession(
        corpus.embeddings, index_factory=FlatIndex, thread_safe_cache=True
    )
    fronts = serving.front_addresses(deployment)

    def http_topk(address):
        topk = ServingClient(address, token=serving.TOKEN).topk
        return lambda q: topk(q, serving.K)

    rungs = {}
    rungs["index.query_us"] = ladder_rung(
        tracer, "index.query", lambda i: lambda q: index.query(q, serving.K), queries)
    rungs["session.topk_us"] = ladder_rung(
        tracer, "session.topk", lambda i: lambda q: session.topk(q, serving.K), queries)
    before = tier.stats.degraded_queries
    rungs["replicated.topk_us"] = ladder_rung(
        tracer, "replicated.topk",
        lambda i: lambda q: tier.topk_batch_versioned(q[None, :], serving.K), queries)
    stats = deployment.stats()
    # each thread on its own front's port, bypassing the balancer
    rungs["http.front_topk_us"] = ladder_rung(
        tracer, "http.front_topk", lambda i: http_topk(fronts[i % len(fronts)]), queries)
    connections = deployment.stats()["balancer"]["connections"]
    rungs["multifront.topk_us"] = ladder_rung(
        tracer, "multifront.topk", lambda i: http_topk(deployment.address), queries)
    after = deployment.stats()
    requests = after["totals"]["requests"] - stats["totals"]["requests"]
    batches = (after["totals"]["batches_dispatched"]
               - stats["totals"]["batches_dispatched"])
    cache = session.cache_stats
    order = ["index.query_us", "session.topk_us", "replicated.topk_us",
             "http.front_topk_us", "multifront.topk_us"]
    selfs = {
        f"{upper.split('.')[0]}.self_us": rungs[upper] - rungs[lower]
        for lower, upper in zip(order, order[1:])
    }
    return {
        **rungs,
        **selfs,
        "session.cache_hit_rate": cache.hits / max(cache.hits + cache.misses, 1),
        "http.mean_batch_size": requests / max(batches, 1),
        "http.batches": batches,
        "replicated.degraded_queries": tier.stats.degraded_queries - before,
        "multifront.balancer_connections":
            after["balancer"]["connections"] - connections,
    }


def write_path(tracer: Tracer, corpus, tier, deployment, seed: int,
               workdir: Path) -> dict:
    stream = inputs.churn_stream(seed, 2 * WRITE_DELTAS)
    # in-process: the stages one acked write goes through on the primary
    database = copy.deepcopy(corpus.database)
    retrofitter = corpus.retrofitter()
    session = ServingSession(corpus.embeddings, index_factory=FlatIndex)
    store = EmbeddingStore(workdir / "profile-write")
    store.save_embedding_set(serving.ARTIFACT, corpus.embeddings)
    db_s, extraction_s, active, delta_bytes = [], [], [], []
    for delta in stream[:WRITE_DELTAS]:
        with tracer.span("incremental.apply"):
            update = retrofitter.apply(
                database, delta, iterations=serving.SOLVE_ITERATIONS
            )
        # the program's own stage clock splits the apply call
        db_s.append(update.timings["apply_database"])
        extraction_s.append(update.timings["extraction_delta"])
        active.append(len(update.changed_rows))
        with tracer.span("session.apply_update"):
            session.apply_update(update)
        with tracer.span("store.append"):
            path = store.append_embedding_set_delta(serving.ARTIFACT, update)
        delta_bytes.append(sum(
            f.stat().st_size for f in path.parent.glob(f"{path.stem}.*")
        ))

    # the same deltas acked by the tier directly, then more over HTTP
    log_before = tier.stats.log_version
    submitted_before = tier.stats.writes_submitted
    lags = []
    for delta in stream[:WRITE_DELTAS]:
        with tracer.span("replicated.submit_ack"):
            version = tier.submit(delta).wait(timeout=120.0)
        published = time.perf_counter()
        while min(tier.replica_versions().values(), default=-1) < version:
            if time.perf_counter() - published > 60.0:
                raise RuntimeError(f"followers never reached version {version}")
            time.sleep(0.002)
        lags.append(time.perf_counter() - published)
    writer = ServingClient(deployment.address, token=serving.TOKEN, timeout=120.0)
    for number, delta in enumerate(stream[WRITE_DELTAS:]):
        with tracer.span("client.submit_ack"):
            writer.submit(delta, submission_id=f"profile-{seed}-{number}")
    records = tier.stats.log_version - log_before
    return {
        "db.apply_s": statistics.median(db_s),
        "extraction.delta_s": statistics.median(extraction_s),
        "incremental.apply_s": statistics.median(tracer.durations("incremental.apply")),
        "incremental.active_rows": statistics.median(active),
        "session.apply_update_s": statistics.median(
            tracer.durations("session.apply_update")),
        "store.append_s": statistics.median(tracer.durations("store.append")),
        "store.delta_bytes": statistics.median(delta_bytes),
        "replicated.submit_ack_ms": statistics.median(
            tracer.durations("replicated.submit_ack")) * 1e3,
        "client.submit_ack_ms": statistics.median(
            tracer.durations("client.submit_ack")) * 1e3,
        "replicated.replication_lag_ms": statistics.median(lags) * 1e3,
        "runtime.coalesce_ratio":
            (tier.stats.writes_submitted - submitted_before) / max(records, 1),
    }


def scan_layers(tracer: Tracer, seed: int, workdir: Path) -> dict:
    corpus = serving.ScanCorpus(seed, workdir / "profile")
    matrix = corpus.embeddings.matrix
    index = FlatIndex(matrix)
    batches = corpus.batches[:SCAN_PROBES]
    for batch in batches:
        with tracer.span("index.query_batch"):
            index.query_batch(batch, serving.K)
        scores = serving.exact_scores(matrix, batch)
        with tracer.span("index.topk_select"):
            topk_descending(scores, serving.K)
    tier = corpus.start_tier()
    try:
        for batch in batches:
            with tracer.span("sharded.topk_batch_probe"):
                tier.topk_batch(batch, serving.K)
        degraded = tier.stats.degraded_queries
    finally:
        tier.stop()
    return {
        "index.query_batch_ms": statistics.median(
            tracer.durations("index.query_batch")) * 1e3,
        "index.topk_select_ms": statistics.median(
            tracer.durations("index.topk_select")) * 1e3,
        "sharded.topk_batch_ms": statistics.median(
            tracer.durations("sharded.topk_batch_probe")) * 1e3,
        "sharded.degraded_queries": degraded,
    }


def span_cost_us(spans: int = 20_000) -> float:
    """The tracer's own cost per recorded span, in µs."""
    tracer = Tracer(True)
    began = time.perf_counter()
    for _ in range(spans):
        with tracer.span("noop"):
            pass
    return (time.perf_counter() - began) / spans * 1e6


def traced_run(workload: str, seed: int, seconds: float, workdir: Path,
               run_workload):
    tracer = Tracer(True, shadow_seconds=seconds / 2)
    outcome = run_workload(workload, seed, seconds, workdir, tracer)
    top = TOP_SPAN[workload]
    traced = tracer.durations(top)
    untraced = tracer.shadow.get(top, [])
    spans_per_op = 1 + sum(
        1 for span in tracer.spans
        if span.parent is not None and tracer.spans[span.parent].name == top
    ) / max(len(traced), 1)

    metrics, build_coverage = build_layers(tracer, seed, workdir)
    corpus = serving.Corpus(seed, workdir / "profile")
    tier, deployment = corpus.start_deployment()
    try:
        metrics.update(read_ladder(tracer, corpus, tier, deployment))
        metrics.update(write_path(tracer, corpus, tier, deployment, seed, workdir))
    finally:
        serving.stop_deployment((tier, deployment))
    metrics.update(scan_layers(tracer, seed, workdir))

    if workload == "build":
        coverage = build_coverage
    elif not traced:
        coverage = 0.0  # the window was too short for a traced operation
    else:
        end_to_end = _mean(traced)
        coverage = {
            "http-read": metrics["multifront.topk_us"] / 1e6,
            "http-mixed": metrics["incremental.apply_s"]
            + metrics["session.apply_update_s"] + metrics["store.append_s"],
            "bulk-scan": metrics["sharded.topk_batch_ms"] / 1e3,
        }[workload] / end_to_end
    metrics["trace.coverage"] = coverage
    cost = span_cost_us()
    outcome.detail["tracing"] = {
        "top_span": top,
        "traced_mean_ms": _mean(traced) * 1e3 if traced else None,
        "untraced_mean_ms": _mean(untraced) * 1e3 if untraced else None,
        # measured: traced against shadow half (noise-dominated when the
        # operation is long); attributable: span cost x spans per operation
        "overhead_frac": (
            _mean(traced) / _mean(untraced) - 1.0 if traced and untraced else None
        ),
        "span_cost_us": cost,
        "attributable_overhead_frac": (
            cost * 1e-6 * spans_per_op / _mean(traced) if traced else None
        ),
        "traced_n": len(traced),
        "untraced_n": len(untraced),
        "coverage": coverage,
        "spans": len(tracer.spans),
        "moves": {name: [spec[2], spec[3]] for name, spec in LAYERS.items()},
    }
    traces = workdir.parent / "traces"
    traces.mkdir(exist_ok=True)
    tracer.dump(traces / f"{workload}-seed{seed}.json")
    outcome.metrics = {
        name: (float(metrics[name]), LAYERS[name][0]) for name in LAYERS
    }
    return outcome
