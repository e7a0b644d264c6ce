"""The serving workloads: ``http-read``, ``http-mixed`` and ``bulk-scan``.

Load comes from this one process: two client threads, each with at most
one request (one connection) in flight.  The processes the tiers and the
deployment fork are the program under test.
"""

from __future__ import annotations

import copy
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from repro import IncrementalRetrofitter
from repro.errors import ReproError
from repro.retrofit import TextValueEmbeddingSet
from repro.retrofit.incremental import max_cosine_distance
from repro.serving import (
    EmbeddingStore,
    MultiFrontDeployment,
    ReplicatedServingTier,
    ServingClient,
    ShardedServingTier,
)

import inputs
from harness import Outcome, Tracer, median_rate, median_setup, summarise

ARTIFACT = "serve"
TOKEN = "perfbench"
K = 10
CLIENT_THREADS = 2
#: Iteration cap of the primary's incremental solves (and of the serial
#: replay the final state is checked against).
SOLVE_ITERATIONS = 300
#: Open-loop write schedule of ``http-mixed``: one churn delta per period.
WRITE_PERIOD_S = 2.0
#: Answers per client thread kept for the exactness check.
CHECKED_ANSWERS = 32
SCAN_BATCH = 64
SCAN_SHARDS = 2
#: Every error a client call can raise on a failed or refused operation.
CLIENT_ERRORS = (ReproError, OSError, TimeoutError)


def exact_scores(matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Cosine scores of every query against every row (zero rows score 0)."""
    norms = np.linalg.norm(matrix, axis=1)
    denom = np.linalg.norm(queries, axis=1)[:, None] * norms[None, :]
    return (queries @ matrix.T) / np.maximum(denom, 1e-12)


def exact_mismatches(
    embeddings: TextValueEmbeddingSet, checked: list[tuple[np.ndarray, list]],
) -> list[str]:
    """Served ``(category, text, score)`` lists against an exact top-k
    computed here with a full sort (no program code involved).

    Scores must match the exact ranking's in order, and each served
    value's own exact score must equal the exact score at its rank: a
    swap between near-equal scores (batched and single-query products
    differ in the last ulp) is accepted, any other difference is not.
    """
    if not checked:
        return ["no answers were sampled for the exactness check"]
    matrix = np.asarray(embeddings.matrix, dtype=np.float64)
    rows = {(r.category, r.text): r.index for r in embeddings.extraction.records}
    scores = exact_scores(matrix, np.stack([query for query, _ in checked]))
    problems = []
    for n, ((_, served), row_scores) in enumerate(zip(checked, scores)):
        exact_ids = np.argsort(-row_scores, kind="stable")[:K]
        served_ids = [rows.get((c, t), -1) for c, t, _ in served]
        served_scores = np.array([s for _, _, s in served], dtype=np.float64)
        if -1 in served_ids or len(set(served_ids)) != K:
            problems.append(f"answer {n}: unknown, duplicate or missing values")
            continue
        expected = row_scores[exact_ids]
        if not (
            np.allclose(served_scores, expected, rtol=1e-6, atol=1e-9)
            and np.allclose(row_scores[served_ids], expected, rtol=1e-6, atol=1e-9)
        ):
            problems.append(
                f"answer {n}: ids {served_ids} vs exact {exact_ids.tolist()}"
            )
    return problems


# --------------------------------------------------------------------- #
# the HTTP deployment: replicated tier behind a two-front balancer
# --------------------------------------------------------------------- #
class Corpus:
    """The served build corpus and the store it was saved to (offline)."""

    def __init__(self, seed: int, workdir: Path) -> None:
        dataset = inputs.tmdb(seed)
        self.database = copy.deepcopy(dataset.database)
        (self.embeddings, self.base_matrix, self.tokenizer,
         self.hyperparams) = inputs.served_corpus(dataset)
        self.store_dir = workdir / "store"
        self.store_dir.mkdir(parents=True)
        EmbeddingStore(self.store_dir).save_embedding_set(ARTIFACT, self.embeddings)
        rng = np.random.default_rng([seed, 1])
        self.queries = inputs.queries(self.embeddings.matrix, rng, 4096)

    def retrofitter(self) -> IncrementalRetrofitter:
        return IncrementalRetrofitter(
            self.embeddings, self.tokenizer, hyperparams=self.hyperparams,
            method="series", base_matrix=self.base_matrix,
        )

    def start_deployment(self):
        """Start the tier (primary + 2 followers) and two fronts, then warm
        each front and the balancer with one read."""
        tier = ReplicatedServingTier(
            self.store_dir, ARTIFACT, n_replicas=2,
            database=copy.deepcopy(self.database),
            retrofitter=self.retrofitter(),
            solve_iterations=SOLVE_ITERATIONS,
        )
        tier.start()
        try:
            deployment = MultiFrontDeployment(
                tier, n_fronts=2,
                front_options={
                    "auth_tokens": {TOKEN: ("read", "write")},
                    "write_timeout_seconds": 120.0,
                },
            ).start()
        except BaseException:
            tier.stop(flush=False)
            raise
        for address in [deployment.address, *front_addresses(deployment)]:
            ServingClient(address, token=TOKEN).topk(self.queries[0], K)
        return tier, deployment


def front_addresses(deployment) -> list[str]:
    return [f"http://127.0.0.1:{port}" for port in deployment.front_ports]


def stop_deployment(handle) -> None:
    tier, deployment = handle
    try:
        deployment.stop()
    finally:
        tier.stop()


class ReadLoop:
    """Closed-loop ``/v1/topk`` readers: no think time, one request in
    flight per thread."""

    def __init__(self, queries: np.ndarray, tracer: Tracer) -> None:
        self.queries = queries
        self.tracer = tracer
        self.latencies: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.failed = 0
        self.errors: list[str] = []
        self.checked: list[tuple[np.ndarray, list]] = []
        self.floor_violations = 0
        self._lock = threading.Lock()

    def read(self, client: ServingClient, n: int, check: bool) -> None:
        query = self.queries[n % len(self.queries)]
        floor = client.last_write_version
        began = time.perf_counter()
        try:
            with self.tracer.span("client.topk"):
                body = client.topk(query, K)
        except CLIENT_ERRORS as error:
            with self._lock:
                self.failed += 1
                self.errors.append(f"{type(error).__name__}: {error}")
            return
        ended = time.perf_counter()
        with self._lock:
            self.latencies.append(ended - began)
            self.intervals.append((began, ended))
            if floor is not None and int(body["version"]) < floor:
                self.floor_violations += 1
            if check and len(self.checked) < CHECKED_ANSWERS * CLIENT_THREADS:
                self.checked.append((query, [tuple(r) for r in body["results"]]))

    def run(self, client: ServingClient, first: int, deadline: float,
            check: bool) -> int:
        """Read until ``deadline``; returns the next query number."""
        n = first
        while time.perf_counter() < deadline:
            self.read(client, n, check)
            n += CLIENT_THREADS
        return n


def run_threads(targets) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def http_read(seed: int, seconds: float, workdir: Path, tracer: Tracer) -> Outcome:
    corpus = Corpus(seed, workdir)
    handle, setups = median_setup(corpus.start_deployment, stop_deployment)
    tier, deployment = handle
    loop = ReadLoop(corpus.queries, tracer)
    try:
        started = time.perf_counter()
        deadline = started + seconds

        def reader(index: int):
            client = ServingClient(
                deployment.address, token=TOKEN, client_id=f"reader-{index}",
            )
            return lambda: loop.run(client, index, deadline, check=True)

        run_threads([reader(i) for i in range(CLIENT_THREADS)])
        ended = time.perf_counter()
        stats = deployment.stats()
    finally:
        stop_deployment(handle)
    outcome = read_outcome(loop, started, ended, setups)
    outcome.detail["deployment"] = {
        "balancer_connections": stats["balancer"]["connections"],
        "front_totals": stats["totals"],
    }
    outcome.violations += exact_mismatches(corpus.embeddings, loop.checked)
    return outcome


def read_outcome(loop: ReadLoop, started: float, ended: float,
                 setups: list[float], slice_s: float = 1.0) -> Outcome:
    reads = summarise(loop.latencies)
    attempted = len(loop.latencies) + loop.failed
    qps = median_rate(loop.intervals, started, ended, slice_s=slice_s)
    outcome = Outcome(
        metrics={
            "ops_per_s": (qps, "1/s"),
            "p50_ms": (reads["p50_ms"], "ms"),
            "tail_ms": (reads["tail_ms"], "ms"),
        },
        detail={
            "setup_s_each": setups,
            "read_qps": qps,
            "read_qps_whole_window": len(loop.latencies) / (ended - started),
            "read_p50_ms": reads["p50_ms"],
            "read_p99_ms": reads["tail_ms"],
            "read_tail_pct": reads["tail_pct"],
            "read_n": reads["n"],
            "read_mean_ms": reads["mean_ms"],
            "errors": loop.errors[:5],
        },
        setup_s=statistics.median(setups),
        attempted=attempted,
        failed=loop.failed,
    )
    if reads["tail_pct"] != 99.0:
        outcome.detail["read_p99_ms_note"] = (
            f"p{reads['tail_pct']} reported: {reads['n']} samples"
        )
    return outcome


# --------------------------------------------------------------------- #
# http-mixed: the read stack with an open-loop writer beside it
# --------------------------------------------------------------------- #
def queue_depth(tier) -> int:
    stats = tier.stats
    return stats.writes_submitted - stats.writes_applied - stats.write_failures


def http_mixed(seed: int, seconds: float, workdir: Path, tracer: Tracer) -> Outcome:
    corpus = Corpus(seed, workdir)
    stream = inputs.churn_stream(seed, int(seconds / WRITE_PERIOD_S) + 1)
    handle, setups = median_setup(corpus.start_deployment, stop_deployment)
    tier, deployment = handle
    store = EmbeddingStore(corpus.store_dir)
    log_before = store.latest_version(ARTIFACT)
    # the closed-loop reader's reads are the workload's read figures; the
    # writer's floored reads (each waits for its own write to replicate)
    # are the read-your-writes check
    loop = ReadLoop(corpus.queries, tracer)
    floored = ReadLoop(corpus.queries, tracer)
    acks: list[float] = []
    lateness: list[float] = []
    acked: list[tuple[int, int]] = []
    write_errors: list[str] = []
    try:
        depth_start = queue_depth(tier)
        started = time.perf_counter()
        deadline = started + seconds

        def reader():
            client = ServingClient(
                deployment.address, token=TOKEN, client_id="reader-0",
            )
            loop.run(client, 0, deadline, check=False)

        def writer():
            client = ServingClient(
                deployment.address, token=TOKEN, client_id="writer",
                timeout=120.0,
            )
            n = 1
            for number, delta in enumerate(stream):
                due = started + number * WRITE_PERIOD_S
                if due >= deadline:
                    break
                n = floored.run(client, n, due, check=False)
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                lateness.append(time.perf_counter() - due)
                try:
                    with tracer.span("client.submit"):
                        version = client.submit(
                            delta, submission_id=f"perfbench-{seed}-{number}"
                        )
                except CLIENT_ERRORS as error:
                    write_errors.append(f"{type(error).__name__}: {error}")
                    continue
                acks.append(time.perf_counter() - due)
                acked.append((number, version))
                # the client floors this read at the ack it just received
                floored.read(client, n, check=False)
                n += CLIENT_THREADS
            floored.run(client, n, deadline, check=False)

        run_threads([reader, writer])
        ended = time.perf_counter()
        depth_end = queue_depth(tier)
        tier.flush(timeout=120.0)
        _, follower = tier.replica_matrix()
    finally:
        stop_deployment(handle)

    # one slice per write period: every slice holds one write
    outcome = read_outcome(loop, started, ended, setups, slice_s=WRITE_PERIOD_S)
    writes = summarise(acks)
    steady = depth_end <= depth_start and (
        not lateness or max(lateness) < WRITE_PERIOD_S
    )
    floored_reads = summarise(floored.latencies)
    outcome.attempted += (
        len(acks) + len(write_errors) + len(floored.latencies) + floored.failed
    )
    outcome.failed += len(write_errors) + floored.failed
    outcome.detail.update({
        "write_ack_p50_ms": writes["p50_ms"],
        "write_ack_tail_ms": writes["tail_ms"],
        "write_ack_tail_pct": writes["tail_pct"],
        "write_ack_n": writes["n"],
        "write_period_s": WRITE_PERIOD_S,
        "writer_lateness_ms": summarise(lateness),
        "queue_depth_start": depth_start,
        "queue_depth_end": depth_end,
        "generator_steady": steady,
        "floored_reads": floored_reads["n"],
        "floored_read_p50_ms": floored_reads["p50_ms"],
        "read_your_writes_violations": floored.floor_violations,
        "write_errors": write_errors[:5] + floored.errors[:5],
    })
    if not steady:
        outcome.detail["write_ack_note"] = (
            "backlog grew or the writer fell a period behind: the write "
            "latencies are not a steady-state figure"
        )

    # checks, outside the timed window
    if floored.floor_violations:
        outcome.violations.append(
            f"{floored.floor_violations} floored reads answered below the "
            "client's last acked write"
        )
    growth = store.latest_version(ARTIFACT) - log_before
    if growth != len(acked):
        outcome.violations.append(
            f"log grew by {growth} records for {len(acked)} acked writes"
        )
    replayed = serial_replay(corpus, [stream[number] for number, _ in acked])
    final = store.load_embedding_set(ARTIFACT)
    distance = max_cosine_distance(
        TextValueEmbeddingSet(final.extraction, follower), replayed
    )
    outcome.detail["max_cosine_vs_serial_replay"] = distance
    if not np.array_equal(follower, final.matrix):
        outcome.violations.append("follower matrix differs from the log replay")
    if distance > 1e-3:
        outcome.violations.append(
            f"follower is {distance:.2e} cosine from the serial replay"
        )
    return outcome


def serial_replay(corpus: Corpus, deltas) -> TextValueEmbeddingSet:
    """The acked deltas applied one by one by a fresh retrofitter."""
    database = copy.deepcopy(corpus.database)
    retrofitter = corpus.retrofitter()
    for delta in deltas:
        retrofitter.apply(database, delta, iterations=SOLVE_ITERATIONS)
    return retrofitter.embeddings


# --------------------------------------------------------------------- #
# bulk-scan: offline kNN scoring through the sharded tier
# --------------------------------------------------------------------- #
class ScanCorpus:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.embeddings = inputs.scan_corpus(seed)
        self.store_dir = workdir / "scan-store"
        EmbeddingStore(self.store_dir).save_embedding_set(ARTIFACT, self.embeddings)
        rng = np.random.default_rng([seed, 2])
        self.batches = [
            inputs.queries(self.embeddings.matrix, rng, SCAN_BATCH)
            for _ in range(32)
        ]

    def start_tier(self) -> ShardedServingTier:
        tier = ShardedServingTier(
            self.store_dir, ARTIFACT, n_shards=SCAN_SHARDS, index_kind="flat",
        ).start()
        tier.topk_batch(self.batches[0], K)
        return tier


def bulk_scan(seed: int, seconds: float, workdir: Path, tracer: Tracer) -> Outcome:
    corpus = ScanCorpus(seed, workdir)
    tier, setups = median_setup(corpus.start_tier, lambda t: t.stop())
    latencies: list[float] = []
    intervals: list[tuple[float, float]] = []
    checked: list[tuple[np.ndarray, list]] = []
    errors: list[str] = []
    lock = threading.Lock()
    try:
        started = time.perf_counter()
        deadline = started + seconds

        def scanner(index: int):
            def run():
                n = index
                while time.perf_counter() < deadline:
                    batch = corpus.batches[n % len(corpus.batches)]
                    began = time.perf_counter()
                    try:
                        with tracer.span("sharded.topk_batch"):
                            answers = tier.topk_batch(batch, K)
                    except CLIENT_ERRORS as error:
                        with lock:
                            errors.append(f"{type(error).__name__}: {error}")
                        n += CLIENT_THREADS
                        continue
                    ended = time.perf_counter()
                    with lock:
                        latencies.append(ended - began)
                        intervals.append((began, ended))
                        if len(checked) < CHECKED_ANSWERS * CLIENT_THREADS:
                            checked.extend(
                                (batch[i], answers[i]) for i in range(0, SCAN_BATCH, 16)
                            )
                    n += CLIENT_THREADS
            return run

        run_threads([scanner(i) for i in range(CLIENT_THREADS)])
        ended = time.perf_counter()
        degraded = tier.stats.degraded_queries
    finally:
        tier.stop()
    batches = summarise(latencies)
    qps = median_rate(intervals, started, ended, size=SCAN_BATCH)
    outcome = Outcome(
        metrics={
            "ops_per_s": (qps, "1/s"),
            "p50_ms": (batches["p50_ms"], "ms"),
            "tail_ms": (batches["tail_ms"], "ms"),
        },
        detail={
            "setup_s_each": setups,
            "scan_qps": qps,
            "scan_qps_whole_window": len(latencies) * SCAN_BATCH / (ended - started),
            "batch_p50_ms": batches["p50_ms"],
            "batch_tail_ms": batches["tail_ms"],
            "batch_tail_pct": batches["tail_pct"],
            "batches": batches["n"],
            "batch_mean_ms": batches.get("mean_ms"),
            "values": len(corpus.embeddings),
            "degraded_queries": degraded,
            "errors": errors[:5],
        },
        setup_s=statistics.median(setups),
        attempted=(len(latencies) + len(errors)) * SCAN_BATCH,
        failed=len(errors) * SCAN_BATCH,
    )
    outcome.violations += exact_mismatches(corpus.embeddings, checked)
    return outcome
