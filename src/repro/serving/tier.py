"""One multi-process serving tier: P partitions × R replicas over the log.

:class:`ServingRuntime` is concurrent but single-process — the applier's
solver work and every reader share one GIL.  :class:`ServingTier` moves
serving across *processes*, in one shape that covers both deployments
the repo needs:

* **Partitions** split the corpus: :func:`stable_shard` hash-partitions
  text values into ``partitions`` parts with a restart-stable digest, so
  a box holds ``1/P`` of the matrix per replica.  A read asks one replica
  of every partition and merges the per-partition hits on ``(score desc,
  global id asc)`` — exactly the tie-stable contract of
  :func:`repro.serving.index.topk_descending`, so the answer is *bitwise*
  the one a single :class:`ServingSession` gives.
* **Replicas** scale reads: each partition is served by ``replicas``
  worker processes that answer round-robin, preferring replicas already
  at the read's version floor.  A dead replica is respawned from the
  store while its siblings keep answering; a partition with no live
  replica drops out of the merge (a *degraded* read, counted in the
  stats) until the respawn lands — reads never fail because one process
  died.

:class:`~repro.serving.sharded.ShardedServingTier` is ``P=n, R=1`` and
:class:`~repro.serving.replicated.ReplicatedServingTier` is ``P=1,
R=n``; both are thin constructors over this class.

The store's versioned delta records
(:meth:`EmbeddingStore.append_embedding_set_delta`) are the replication
log.  Every replica (:class:`_ReplicaState`) bootstraps from the base
snapshot through a read-only memory map, copies out only its own
partition's rows, tails the log every ``tail_interval`` and decorates its
own hits at exactly the version it answered with.  A replica that fell
behind a :meth:`~EmbeddingStore.compact_embedding_set` re-bootstraps from
the (newer) base snapshot.

Writes have one path: :meth:`ServingTier.submit` → the shared
:class:`~repro.serving.runtime.WritePipeline` → one **primary** process
running a full :class:`ServingRuntime` whose ``on_publish`` hook appends
every applied update to the log *before* its ticket resolves.  Every read
carries a version floor of ``max(min_version, published_version)``, so a
resolved ticket is visible to every later read (read-your-writes): a
lagging replica replays the log before answering.  A heartbeat detects
dead processes.  With ``retrofitter_factory`` (``P=1`` only — a partition
replica holds too few rows to rebuild the solver) a dead primary
triggers **failover**: the most-caught-up replica is promoted with the
front's database mirror, and a replacement replica is spawned.  The log
decides the fate of an in-flight write: appends are atomic (the header
rename is the commit point), so the write either landed or provably did
not and is retried on the new primary.  Without a factory the tier
latches ``write_degraded`` and keeps serving reads.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ExtractionError, ServingError, StoreFormatError
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.serving.index import FlatIndex, VectorIndex
from repro.serving.runtime import (
    RateLimiter,
    ServingRuntime,
    UpdateTicket,
    WritePipeline,
)
from repro.serving.store import EmbeddingStore
from repro.util import EventLog, RetryPolicy, faults

#: Respawn retry shape: three attempts, jittered backoff, bounded total.
_RESPAWN_RETRY = RetryPolicy(attempts=3, base_delay=0.05, max_delay=1.0, deadline=15.0)

#: A replica racing a concurrent append can transiently read a
#: half-visible record; retry briefly before treating it as a compaction.
_SYNC_RETRY = RetryPolicy(attempts=3, base_delay=0.02, max_delay=0.2, deadline=2.0)

#: How long a worker sleeps in ``poll`` before re-checking whether its
#: parent is still alive (orphan self-termination).
_POLL_INTERVAL = 0.2

#: Bound on sync-and-requery rounds before a read gives up on getting
#: every partition to the same version (publishes are orders of magnitude
#: slower than queries, so 2 rounds virtually always suffice).
_MAX_VERSION_ROUNDS = 5

#: How long the front waits for a promoted replica to come up as the new
#: primary: it must replay its tail and build a retrofitter (one
#: initialisation pass, no solver run).
_PROMOTE_TIMEOUT = 120.0


def stable_shard(category: str, text: str, n_shards: int) -> int:
    """The partition owning ``(category, text)`` — stable across processes.

    Python's builtin ``hash()`` is salted per process, so it cannot
    partition values consistently between the front and workers started at
    different times (or respawned after a crash).  An 8-byte blake2b
    digest is cheap and permanent: membership survives restarts, respawns
    and delta replay.
    """
    digest = hashlib.blake2b(
        f"{category}\x00{text}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n_shards


# --------------------------------------------------------------------- #
# replica state
# --------------------------------------------------------------------- #
class _ReplicaState:
    """One replica's snapshot: extraction + partition ``p`` of ``P``'s rows.

    The worker loop is single-threaded; :meth:`apply_record` rebuilds the
    row set and drops the per-scope indexes, so a query either sees the
    old snapshot or the new one, never a mix.  With ``partitions=1``
    every row is local, ``local_ids`` is the identity mapping and
    ``vectors`` *is* the full matrix in global row order — which is what
    makes :meth:`matrix` usable for agreement checks and promotion.
    """

    def __init__(
        self, store: EmbeddingStore, artifact: str, metric: str = "cosine",
        partition: int = 0, partitions: int = 1, index_kind: str = "flat",
        index_params: dict | None = None,
    ) -> None:
        self.store = store
        self.artifact = artifact
        self.partition = partition
        self.partitions = partitions
        self.metric = metric
        self.index_kind = index_kind
        self.index_params = dict(index_params or {})
        self.bootstrap()
        self.sync_to_latest()

    def _owns(self, record) -> bool:
        return (
            stable_shard(record.category, record.text, self.partitions)
            == self.partition
        )

    def bootstrap(self) -> None:
        """(Re-)load this partition's rows from the base snapshot artifact.

        Called once at startup, and again when the tail position fell
        behind a log compaction — the base artifact then *is* the newer
        snapshot to fall back to.
        """
        base, version = self.store.load_embedding_set_readonly(self.artifact)
        self.extraction = base.extraction
        self.version = version
        mine = [r.index for r in self.extraction.records if self._owns(r)]
        self.local_ids = np.asarray(mine, dtype=np.int64)
        # the only materialised vectors: this partition's rows, copied out
        # of the shared read-only mapping (1/partitions of the matrix)
        self.vectors = np.array(base.matrix[self.local_ids], dtype=np.float64)
        self._scopes: dict[str | None, tuple[np.ndarray, VectorIndex]] = {}

    def _replay(self) -> None:
        """Replay every store delta record newer than this snapshot."""
        latest = self.store.latest_version(self.artifact)
        while self.version < latest:
            record = self.store.read_embedding_set_delta(
                self.artifact, self.version + 1
            )
            self.apply_record(record)

    def sync_to_latest(self) -> None:
        """Tail the log; fall back to the base snapshot past a compaction.

        A compaction that pruned the record this replica would replay
        next raises :class:`StoreFormatError` (missing chain link).  When
        the base snapshot has moved *past* our position, the snapshot is
        the recovery path: re-bootstrap from it and resume tailing.  A
        gap the base does not cover is real corruption and re-raises.
        """
        try:
            # a StoreFormatError here is usually transient (a concurrent
            # append between the writer's matrix and header commits):
            # jittered retries absorb it without touching the snapshot
            _SYNC_RETRY.call(self._replay, retry_on=(StoreFormatError,))
        except StoreFormatError:
            if self.store.base_version(self.artifact) <= self.version:
                raise
            self.bootstrap()
            self._replay()

    def apply_record(self, record) -> None:
        delta_map = self.extraction.apply_delta(record.extraction_delta)
        # survivors: remap to the new global numbering, drop removed rows
        new_ids = delta_map.old_to_new[self.local_ids]
        keep = new_ids >= 0
        ids = new_ids[keep]
        vectors = self.vectors[keep]
        # rows the delta added that hash into this partition
        records = self.extraction.records
        added_positions = [
            position
            for position, global_id in enumerate(record.added_indices)
            if self._owns(records[global_id])
        ]
        if added_positions:
            if record.added_matrix is None:
                raise ServingError(
                    f"delta record v{record.version} lacks added vectors"
                )
            added_ids = np.asarray(
                [record.added_indices[p] for p in added_positions],
                dtype=np.int64,
            )
            ids = np.concatenate((ids, added_ids))
            vectors = np.vstack(
                (vectors, record.added_matrix[added_positions])
            )
        # keep ids ascending: scope subsets stay ordered by global id,
        # which is what makes per-partition ties merge exactly like the
        # single-index tie-stable top-k
        order = np.argsort(ids)
        ids = ids[order]
        vectors = vectors[order]
        if record.changed_rows and ids.size:
            changed = np.asarray(record.changed_rows, dtype=np.int64)
            positions = np.searchsorted(ids, changed)
            clamped = np.minimum(positions, ids.size - 1)
            hit = (positions < ids.size) & (ids[clamped] == changed)
            if hit.any():
                if record.changed_matrix is None:
                    raise ServingError(
                        f"delta record v{record.version} lacks changed vectors"
                    )
                vectors[positions[hit]] = record.changed_matrix[hit]
        self.local_ids = ids
        self.vectors = vectors
        self._scopes.clear()
        self.version = record.version

    def _build_index(self, vectors: np.ndarray) -> VectorIndex:
        """One scope index of the configured kind over ``vectors``.

        Empty scopes always get a flat index: brute force over nothing is
        free, and the trained kinds reject empty matrices.
        """
        if self.index_kind == "flat" or vectors.shape[0] == 0:
            return FlatIndex(vectors, metric=self.metric)
        from repro.serving.session import index_factory_for

        factory = index_factory_for(
            self.index_kind, metric=self.metric, **self.index_params
        )
        return factory(vectors)

    def _scope(self, category: str | None) -> tuple[np.ndarray, VectorIndex]:
        cached = self._scopes.get(category)
        if cached is not None:
            return cached
        if category is None:
            positions = np.arange(self.local_ids.size)
        else:
            members = np.asarray(
                self.extraction.categories.get(category, []), dtype=np.int64
            )
            positions = np.nonzero(np.isin(self.local_ids, members))[0]
        scope_ids = self.local_ids[positions]
        index = self._build_index(self.vectors[positions])
        self._scopes[category] = (scope_ids, index)
        return scope_ids, index

    def query(
        self, queries: np.ndarray, k: int, category: str | None
    ) -> tuple[list[list[int]], list[list[tuple[str, str, float]]]]:
        """This partition's top-k: per-row global ids and decorated hits.

        Decoration happens *here*, against this replica's extraction at
        exactly the version it answered with — the front never maps ids
        through a catalog that may have moved past this replica.  Rows
        with a non-finite score (padding past the scope) are dropped.
        """
        scope_ids, index = self._scope(category)
        batch = queries.shape[0]
        if scope_ids.size == 0:
            return [[] for _ in range(batch)], [[] for _ in range(batch)]
        indices, scores = index.query_batch(queries, k)
        global_ids = scope_ids[indices]
        records = self.extraction.records
        ids_out: list[list[int]] = []
        hits_out: list[list[tuple[str, str, float]]] = []
        for row_ids, row_scores in zip(global_ids, scores):
            finite = np.isfinite(row_scores)
            row_ids = row_ids[finite].tolist()
            hits = []
            for global_id, score in zip(row_ids, row_scores[finite].tolist()):
                record = records[global_id]
                hits.append((record.category, record.text, score))
            ids_out.append(row_ids)
            hits_out.append(hits)
        return ids_out, hits_out

    def matrix(self) -> np.ndarray:
        """This replica's replayed rows, in global id order."""
        return np.array(self.vectors)

    def embeddings(self) -> TextValueEmbeddingSet:
        """The replayed state as an embedding set (promotion input)."""
        return TextValueEmbeddingSet(
            extraction=self.extraction,
            matrix=self.matrix(),
            name=self.artifact,
        )


# --------------------------------------------------------------------- #
# worker processes
# --------------------------------------------------------------------- #
def _primary_runtime(
    store: EmbeddingStore, artifact: str, database, retrofitter,
    solve_iterations,
) -> ServingRuntime:
    """A write-side runtime whose publications land in the store's log."""

    def publish(update) -> int:
        store.append_embedding_set_delta(artifact, update)
        return store.latest_version(artifact)

    runtime = ServingRuntime(
        database,
        retrofitter,
        cache_size=0,
        solve_iterations=solve_iterations,
        on_publish=publish,
        log_version=store.latest_version(artifact),
    )
    return runtime.start()


@dataclass(frozen=True)
class _WorkerSpec:
    """What every worker of one tier is started with (fork-inherited)."""

    store_root: str
    artifact: str
    metric: str
    partitions: int
    index_kind: str
    index_params: dict
    tail_interval: float
    retrofitter_factory: object
    solve_iterations: int | None


def _worker(
    spec: _WorkerSpec, partition: int | None, conn, parent_pid: int,
    writer: tuple | None = None,
) -> None:
    """Worker main loop: tail the log, answer paired requests, promote.

    A replica serves ``partition``; the primary started with the tier has
    ``partition=None`` and a ``writer`` — ``(database, retrofitter)`` —
    and only applies writes.  Idle cycles tail the log every
    ``tail_interval`` seconds so replication lag stays bounded with no
    queries arriving.  After a ``promote`` message a replica *also* runs
    a primary runtime (built from its replayed embeddings plus the
    shipped database mirror) and drains ``apply`` commands — it keeps
    serving reads throughout.
    """
    store = EmbeddingStore(spec.store_root)
    state: _ReplicaState | None = None
    runtime: ServingRuntime | None = None
    try:
        if partition is not None:
            state = _ReplicaState(
                store, spec.artifact, spec.metric, partition,
                spec.partitions, spec.index_kind, spec.index_params,
            )
        if writer is not None:
            runtime = _primary_runtime(
                store, spec.artifact, *writer, spec.solve_iterations
            )
    except BaseException as error:  # noqa: BLE001 - reported to the front
        try:
            conn.send(("init-failed", f"{type(error).__name__}: {error}"))
        finally:
            conn.close()
        return

    def position() -> int:
        if state is not None:
            return state.version
        return int(runtime.log_version or 0)

    conn.send(("ready", position()))
    last_tail = time.monotonic()
    while True:
        # tail *before* polling, every iteration: a continuous command
        # stream (health pings, a busy read front) must never starve
        # replication — the tail budget is checked even when a command
        # is already waiting
        if state is not None and time.monotonic() - last_tail >= spec.tail_interval:
            try:
                state.sync_to_latest()
            except StoreFormatError:
                pass  # a half-committed append; the next tick retries
            last_tail = time.monotonic()
        if not conn.poll(min(_POLL_INTERVAL, spec.tail_interval)):
            if os.getppid() != parent_pid:
                return  # orphaned: the front died without a clean stop
            continue
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        command = message[0]
        if command == "stop":
            if runtime is not None:
                runtime.stop(flush=False, timeout=5.0)
            return
        try:
            if command == "query":
                _, request_id, queries, k, category, min_version = message
                faults.fire("repl.worker", "before")
                if state.version < min_version:
                    state.sync_to_latest()
                ids, hits = state.query(queries, int(k), category)
                if faults.should_drop("repl.pipe_send"):
                    continue  # injected: the response never leaves the worker
                conn.send(("result", request_id, state.version, ids, hits))
            elif command == "ping":
                conn.send(("pong", message[1], position()))
            elif command == "sync":
                state.sync_to_latest()
                conn.send(("synced", message[1], state.version))
            elif command == "dump":
                conn.send(("state", message[1], state.version, state.matrix()))
            elif command == "promote":
                _, request_id, database = message
                if spec.retrofitter_factory is None:
                    conn.send(
                        ("error", request_id,
                         "replica lacks a retrofitter factory")
                    )
                    continue
                # catch up first: the promoted primary's model must start
                # exactly where the log ends, or its next publication
                # would diverge from what replicas replay
                state.sync_to_latest()
                runtime = _primary_runtime(
                    store, spec.artifact, database,
                    spec.retrofitter_factory(state.embeddings()),
                    spec.solve_iterations,
                )
                conn.send(("promoted", request_id, state.version))
            elif command == "apply":
                _, request_id, delta = message
                if runtime is None:
                    conn.send((
                        "failed", request_id,
                        "replica is a follower, not the primary", False,
                    ))
                    continue
                try:
                    version = runtime.submit(delta).wait()
                except Exception as error:  # noqa: BLE001 - reported to the front
                    conn.send((
                        "failed", request_id,
                        f"{type(error).__name__}: {error}", runtime.degraded,
                    ))
                    continue
                conn.send(("applied", request_id, int(version)))
            else:
                conn.send(("error", message[1], f"unknown command {command!r}"))
        except BaseException as error:  # noqa: BLE001 - reply, don't die
            conn.send(("error", message[1], f"{type(error).__name__}: {error}"))


# --------------------------------------------------------------------- #
# the front
# --------------------------------------------------------------------- #
class _Replica:
    """The front's view of one worker process: pipe, role, position.

    ``alive`` and ``respawning`` only change under ``lock`` — the same
    lock that pairs requests with replies — so a reply lost by an old
    incarnation can never mark a freshly respawned one dead.
    """

    def __init__(self, replica_id: int, partition: int | None, role: str) -> None:
        self.replica_id = replica_id
        self.partition = partition  # None for the tier's own primary
        self.role = role  # "follower" or "primary"
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.alive = False
        self.respawning = False
        self.version = 0  # last position learned from a reply/heartbeat
        self.missed_heartbeats = 0
        self.request_ids = itertools.count(1)


@dataclass(frozen=True)
class ReplicatedTierStats:
    """Counters of one :class:`ServingTier` (and its replicated form)."""

    n_replicas: int
    live_followers: int
    log_version: int
    min_follower_version: int
    max_follower_version: int
    queries: int
    degraded_queries: int
    follower_respawns: int
    failovers: int
    last_failover_seconds: float | None
    writes_submitted: int
    writes_applied: int
    write_failures: int
    writes_rate_limited: int


class ServingTier:
    """Exact top-k serving over ``partitions × replicas`` worker processes.

    The tier serves one ``embedding_set`` artifact of an
    :class:`EmbeddingStore`.  Construction is cheap; :meth:`start` forks
    the replicas and — when ``database``/``retrofitter`` are given — one
    primary process owning them (the caller must not touch either
    afterwards).  Reads go through :meth:`topk`/:meth:`topk_batch`;
    ``min_version`` (a resolved :attr:`UpdateTicket.version`) raises the
    read's version floor.  Writes go through :meth:`submit`, whose ticket
    resolves at the store *log* version the update published at.

    ``retrofitter_factory`` — a fork-inheritable callable ``embeddings ->
    IncrementalRetrofitter`` — arms failover (``partitions=1`` only).
    """

    #: Name used in messages and the event log; the thin constructors
    #: override it.
    _kind = "serving"

    def __init__(
        self,
        store_root: str | Path,
        artifact: str,
        partitions: int = 1,
        replicas: int = 2,
        database=None,
        retrofitter=None,
        retrofitter_factory=None,
        metric: str = "cosine",
        solve_iterations: int | None = None,
        queue_capacity: int = 64,
        coalesce: bool = True,
        max_coalesced_ops: int = 1024,
        write_rate_limit: RateLimiter | None = None,
        query_timeout: float = 30.0,
        heartbeat_interval: float = 0.25,
        heartbeat_misses: int = 4,
        tail_interval: float = 0.05,
        index_kind: str = "flat",
        index_params: dict | None = None,
    ) -> None:
        if partitions < 1 or replicas < 1:
            raise ServingError("partitions and replicas must be at least 1")
        if index_kind not in ("flat", "ivf", "pq", "nsw"):
            raise ServingError(
                f"unknown index kind {index_kind!r}; pick one of "
                "flat/ivf/pq/nsw"
            )
        if (database is None) != (retrofitter is None):
            raise ServingError(
                "writer side needs both database and retrofitter (or neither)"
            )
        if retrofitter_factory is not None and partitions > 1:
            raise ServingError(
                "failover needs full-corpus replicas: retrofitter_factory "
                "requires partitions=1"
            )
        self._store = EmbeddingStore(store_root)
        self._artifact = artifact
        self.n_partitions = int(partitions)
        self._spec = _WorkerSpec(
            store_root=str(store_root),
            artifact=artifact,
            metric=metric,
            partitions=self.n_partitions,
            index_kind=index_kind,
            index_params=dict(index_params or {}),
            tail_interval=float(tail_interval),
            retrofitter_factory=retrofitter_factory,
            solve_iterations=solve_iterations,
        )
        self._database = database  # the front's mirror after start()
        self._retrofitter = retrofitter
        self._query_timeout = float(query_timeout)
        self._heartbeat_interval = float(heartbeat_interval)
        self._heartbeat_misses = int(heartbeat_misses)
        self._context = multiprocessing.get_context("fork")

        self._replicas = [
            _Replica(partition * replicas + r, partition, "follower")
            for partition in range(self.n_partitions)
            for r in range(replicas)
        ]
        self._next_replica_id = len(self._replicas)
        self._primary: _Replica | None = None
        self._writes = (
            WritePipeline(
                self._apply_batch,
                lambda: self._version,
                name=f"{self._kind} tier",
                capacity=queue_capacity,
                coalesce=coalesce,
                max_coalesced_ops=max_coalesced_ops,
                rate_limit=write_rate_limit,
            )
            if retrofitter is not None
            else None
        )
        self._heartbeat_thread: threading.Thread | None = None
        self._heartbeat_stop = threading.Event()

        # the database mirror and failover are shared between the writer
        # and heartbeat threads
        self._db_lock = threading.Lock()
        self._failover_lock = threading.Lock()
        self._catalog_lock = threading.Lock()
        # readers run concurrently: the published version and the
        # counters are read-modify-written under this lock
        self._stats_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._version = 0  # newest log version a read must reflect
        self._catalog = None  # extraction metadata, replayed lazily
        self._catalog_version = 0
        self._dimension: int | None = None
        self._turns = itertools.count(1)

        self._n_queries = 0
        self._n_degraded = 0
        self._n_respawns = 0
        self._n_failovers = 0
        self._last_failover_seconds: float | None = None
        self._writes_applied = 0
        self._events = EventLog(self._kind)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self):
        """Fork the replicas (and the primary); idempotent."""
        if self._started:
            return self
        if self._stopped:
            raise ServingError(f"cannot restart a stopped {self._kind} tier")
        # extract the mmap sidecar once, before forking: N workers racing
        # the first extraction would each read the archive
        matrix = self._store.open_matrix_readonly(self._artifact)
        self._dimension = int(matrix.shape[1])
        base, version = self._store.load_embedding_set_readonly(self._artifact)
        self._catalog = base.extraction
        self._catalog_version = version
        self._sync_catalog(self._store.latest_version(self._artifact))
        self._version = self._catalog_version
        for replica in self._replicas:
            self._spawn(replica)
        for replica in self._replicas:
            self._await_ready(replica)
        if self._writes is not None:
            self._primary = _Replica(-1, None, "primary")
            self._spawn(self._primary)
            self._await_ready(self._primary)
            self._advance(self._primary.version)
            self._writes.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name=f"{self._kind}-heartbeat",
            daemon=True,
        )
        self._heartbeat_thread.start()
        self._started = True
        return self

    def _spawn(self, replica: _Replica) -> None:
        parent, child = self._context.Pipe()
        replica.conn = parent
        writer = None
        if replica.partition is None:
            writer = (self._database, self._retrofitter)
        replica.process = self._context.Process(
            target=_worker,
            args=(self._spec, replica.partition, child, os.getpid(), writer),
            daemon=True,
            name=f"{self._kind}-{replica.role}-{replica.replica_id}",
        )
        replica.process.start()
        child.close()

    def _await_ready(self, replica: _Replica) -> None:
        if not replica.conn.poll(self._query_timeout):
            raise ServingError(
                f"replica {replica.replica_id} ({replica.role}) did not come "
                f"up within {self._query_timeout}s"
            )
        message = replica.conn.recv()
        if message[0] != "ready":
            raise ServingError(
                f"replica {replica.replica_id} ({replica.role}) failed to "
                f"initialise: {message[-1]}"
            )
        replica.version = int(message[1])
        replica.alive = True

    def stop(self, flush: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the heartbeat, writer and every worker process."""
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._heartbeat_stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout)
        if self._writes is not None:
            self._writes.close(
                flush, timeout,
                f"{self._kind} tier stopped before applying the delta",
            )
        self._stopped = True  # no respawn starts past this point
        handles = self._handles()
        for replica in handles:
            # an in-flight respawn finishes under the lock first, so its
            # fresh process gets the stop message too
            locked = replica.lock.acquire(timeout=5.0)
            try:
                if replica.conn is not None:
                    try:
                        replica.conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
            finally:
                if locked:
                    replica.lock.release()
        for replica in handles:
            self._reap(replica, timeout)
            replica.alive = False

    @staticmethod
    def _reap(replica: _Replica, timeout: float | None) -> None:
        """Wait up to ``timeout`` for the process to exit, then kill it."""
        if replica.process is not None:
            replica.process.join(timeout)
            if replica.process.is_alive():
                replica.process.terminate()
                replica.process.join(5.0)
        if replica.conn is not None:
            replica.conn.close()

    def _handles(self) -> list[_Replica]:
        """Every replica, then the primary when it is not one of them."""
        handles = list(self._replicas)
        primary = self._primary
        if primary is not None and primary not in handles:
            handles.append(primary)
        return handles

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(flush=exc_type is None)

    # ------------------------------------------------------------------ #
    # supervision: request pairing, death, respawn
    # ------------------------------------------------------------------ #
    def _exchange(self, replica: _Replica, payload: tuple, timeout: float | None):
        """One paired request/response on a replica's pipe.

        ``payload`` is ``(command, *args)``; a request id is threaded in
        at position 1 and verified on the reply.  ``timeout=None`` waits
        as long as the process stays alive (the apply path runs a full
        solver pass).  A broken pipe, dead process or unpaired reply
        marks the replica dead and raises :class:`EOFError` — followers
        are respawned, a dead primary is left to :meth:`_ensure_primary`.
        """
        with replica.lock:
            if not replica.alive:
                raise EOFError(f"replica {replica.replica_id} is down")
            request_id = next(replica.request_ids)
            message = (payload[0], request_id, *payload[1:])
            deadline = None if timeout is None else time.perf_counter() + timeout
            try:
                replica.conn.send(message)
                while not replica.conn.poll(_POLL_INTERVAL):
                    if not replica.process.is_alive():
                        raise EOFError("replica process exited")
                    if deadline is not None and time.perf_counter() >= deadline:
                        raise ServingError(
                            f"replica {replica.replica_id} ({replica.role}) "
                            f"did not answer {payload[0]!r} within {timeout}s"
                        )
                reply = replica.conn.recv()
                if reply[0] != "error" and reply[1] != request_id:
                    raise EOFError("response pairing broken")
            except (BrokenPipeError, EOFError, OSError) as error:
                self._mark_dead(replica, f"{type(error).__name__}: {error}")
                raise EOFError(str(error)) from None
        if reply[0] == "error":
            raise ServingError(
                f"replica {replica.replica_id} rejected {payload[0]!r}: "
                f"{reply[2]}"
            )
        return reply

    def _mark_dead(self, replica: _Replica, reason: str) -> None:
        """Note a dead worker; respawn followers off the calling path.

        The caller holds ``replica.lock``.  The primary is *not*
        respawned here — its database/retrofitter died with it;
        :meth:`_ensure_primary` promotes a replica instead.
        """
        if not replica.alive:
            return
        replica.alive = False
        self._events.emit(
            "replica_dead",
            replica=replica.replica_id,
            partition=replica.partition,
            role=replica.role,
            reason=reason,
        )
        if replica.role == "follower" and not replica.respawning and not self._stopped:
            replica.respawning = True
            with self._stats_lock:
                self._n_respawns += 1
            threading.Thread(
                target=self._respawn, args=(replica,),
                name=f"{self._kind}-respawn-{replica.replica_id}", daemon=True,
            ).start()

    def _spawn_once(self, replica: _Replica) -> None:
        """One respawn attempt (retried by :data:`_RESPAWN_RETRY`)."""
        if faults.should_fail_spawn("repl.respawn"):
            raise ServingError(
                f"injected spawn failure for replica {replica.replica_id}"
            )
        self._spawn(replica)
        self._await_ready(replica)

    def _respawn(self, replica: _Replica) -> None:
        with replica.lock:
            try:
                self._reap(replica, 5.0)
                if self._stopped:
                    return
                _RESPAWN_RETRY.call(
                    lambda: self._spawn_once(replica),
                    retry_on=(ServingError, OSError),
                    on_retry=lambda attempt, error, delay: self._events.emit(
                        "replica_respawn_retry",
                        replica=replica.replica_id,
                        attempt=attempt + 1,
                        reason=str(error),
                        backoff_s=round(delay, 4),
                    ),
                )
                replica.missed_heartbeats = 0
                self._events.emit(
                    "replica_respawned",
                    replica=replica.replica_id,
                    partition=replica.partition,
                )
            except Exception as error:
                replica.alive = False  # stays degraded; the next crash retries
                self._events.emit(
                    "replica_respawn_failed",
                    replica=replica.replica_id,
                    reason=str(error),
                )
            finally:
                replica.respawning = False

    def _kill(self, replica: _Replica, reason: str) -> None:
        """Mark ``replica`` dead and terminate its process."""
        with replica.lock:
            self._mark_dead(replica, reason)
            self._reap(replica, 0)

    # ------------------------------------------------------------------ #
    # heartbeats and failover
    # ------------------------------------------------------------------ #
    def _heartbeat_loop(self) -> None:
        while not self._heartbeat_stop.wait(self._heartbeat_interval):
            for replica in self._handles():
                if self._stopped:
                    return
                if replica.respawning or not replica.alive:
                    continue
                # a dead process fails the ping (EOFError); but don't queue
                # a ping behind a long exchange (apply/query): a busy pipe
                # with a live process is not a dead replica
                if not replica.lock.acquire(timeout=0.02):
                    continue
                replica.lock.release()
                if faults.should_drop("repl.heartbeat"):
                    # injected: the ping is lost in flight — a miss, not
                    # proof of death; only repeated losses fail the node
                    self._missed_heartbeat(replica)
                    continue
                try:
                    reply = self._exchange(
                        replica, ("ping",), timeout=self._heartbeat_interval
                    )
                except EOFError:
                    self._after_death(replica)
                    continue
                except ServingError:
                    self._missed_heartbeat(replica)
                    continue
                replica.missed_heartbeats = 0
                replica.version = max(replica.version, int(reply[2]))

    def _missed_heartbeat(self, replica: _Replica) -> None:
        replica.missed_heartbeats += 1
        if replica.missed_heartbeats >= self._heartbeat_misses:
            with replica.lock:
                self._mark_dead(replica, "heartbeat lost")
            self._after_death(replica)

    def _after_death(self, replica: _Replica) -> None:
        if replica.role == "primary" and not self._stopped:
            # promote proactively — failover time must not wait for the
            # next write to arrive and find the primary gone
            try:
                self._ensure_primary()
            except ServingError:
                pass  # latched as write-degraded; reads keep working

    def _latch_degraded(self, message: str) -> None:
        self._writes.degrade(ServingError(message))
        self._events.emit("write_degraded", reason=message)

    def _ensure_primary(self) -> _Replica:
        """The live primary, promoting the most-caught-up replica if dead.

        Idempotent and serialised: concurrent detection by the writer and
        heartbeat threads performs one promotion.  Raises
        :class:`ServingError` when no promotable replica exists.
        """
        with self._failover_lock:
            primary = self._primary
            if (
                primary is not None and primary.alive
                and primary.process is not None and primary.process.is_alive()
            ):
                return primary
            if self._writes is None:
                raise ServingError("this tier has no writer side")
            if self._spec.retrofitter_factory is None:
                message = (
                    "primary died and no retrofitter_factory was configured "
                    "— cannot promote a follower"
                )
                self._latch_degraded(message)
                raise ServingError(message)
            started = time.perf_counter()
            if primary is not None:
                self._kill(primary, "replaced by failover")
            # elect the most-caught-up replica that answers a ping
            # (freshest version; ties broken by lowest id for determinism)
            positions = self.replica_versions()
            candidates = [
                r for r in self._replicas
                if r.replica_id in positions and not r.respawning
            ]
            if not candidates:
                message = "primary died and no live follower is promotable"
                self._latch_degraded(message)
                raise ServingError(message)
            elected = max(
                candidates, key=lambda r: (r.version, -r.replica_id)
            )
            # ship the database mirror: it reflects exactly the acked
            # deltas, which is exactly what the log contains — the
            # promoted runtime starts aligned with both
            with self._db_lock:
                try:
                    faults.fire("repl.promote", "before")
                    reply = self._exchange(
                        elected, ("promote", self._database),
                        timeout=_PROMOTE_TIMEOUT,
                    )
                except (EOFError, faults.FaultInjected) as error:
                    with elected.lock:
                        self._mark_dead(elected, "promotion failed")
                    message = f"promotion of follower failed: {error!r}"
                    self._latch_degraded(message)
                    raise ServingError(message) from None
            elected.role = "primary"
            elected.version = max(elected.version, int(reply[2]))
            self._primary = elected
            self._n_failovers += 1
            self._last_failover_seconds = time.perf_counter() - started
            self._events.emit(
                "promoted",
                replica=elected.replica_id,
                version=elected.version,
                reason="primary dead; most-caught-up follower elected",
                failover_s=round(self._last_failover_seconds, 4),
            )
            # restore read fan-out: the promoted node keeps serving reads,
            # but a replacement replica brings the pool back to strength
            replacement = _Replica(
                self._next_replica_id, elected.partition, "follower"
            )
            self._next_replica_id += 1
            self._replicas.append(replacement)
            replacement.respawning = True
            with self._stats_lock:
                self._n_respawns += 1
            threading.Thread(
                target=self._respawn, args=(replacement,),
                name=f"{self._kind}-respawn-{replacement.replica_id}",
                daemon=True,
            ).start()
            return elected

    # ------------------------------------------------------------------ #
    # writer side
    # ------------------------------------------------------------------ #
    def submit(
        self,
        delta,
        timeout: float | None = None,
        submission_id: str | None = None,
    ) -> UpdateTicket:
        """Queue a delta for the primary; returns its ticket.

        Admission is two-staged: the rate limiter rejects sustained
        over-budget traffic before the delta occupies queue capacity, and
        the bounded queue blocks when the primary falls behind.  Readers
        are never throttled by either.  The resolved
        :attr:`UpdateTicket.version` is the store *log* version the update
        published at — pass it as ``min_version`` to :meth:`topk`.
        """
        if self._writes is None:
            raise ServingError("this tier has no writer side (no retrofitter)")
        return self._writes.admit(
            delta, timeout=timeout, submission_id=submission_id
        )

    def flush(self, timeout: float | None = None) -> None:
        """Block until every submitted delta has been applied (or failed)."""
        if self._writes is not None:
            self._writes.flush(timeout)

    def _apply_batch(self, batch) -> None:
        for _attempt in (0, 1):
            try:
                primary = self._ensure_primary()
            except ServingError as error:
                self._writes.fail(batch, error)
                return
            # the log decides an in-flight write's fate: the tier is the
            # single writer, so any version past this one is *our* delta
            pre_version = self._store.latest_version(self._artifact)
            try:
                reply = self._exchange(
                    primary, ("apply", batch.delta), timeout=None
                )
            except EOFError:
                landed = self._store.latest_version(self._artifact)
                if landed > pre_version:
                    # the append committed before the crash — the write
                    # is durable and every replica will replay it
                    self._complete_batch(batch, landed)
                    return
                continue  # provably not in the log: retry once, promoted
            if reply[0] == "applied":
                self._complete_batch(batch, int(reply[2]))
                return
            _, _, message, degraded = reply
            if degraded:
                # the primary's private database may have diverged from
                # the log.  Without failover the tier refuses further
                # writes; with it, the front's mirror holds only acked
                # deltas, so killing the primary and promoting a replica
                # restores a consistent writer — this batch still fails,
                # but the *next* write goes through
                if self._spec.retrofitter_factory is None:
                    self._latch_degraded(message)
                else:
                    self._kill(primary, "diverged after a failed apply")
            self._writes.fail(batch, ServingError(message))
            return
        self._writes.fail(
            batch, ServingError("primary died twice while applying one delta")
        )

    def _complete_batch(self, batch, version: int) -> None:
        # mirror the acked delta into the front's database copy *before*
        # tickets resolve: a failover triggered after this write must
        # ship a mirror that includes it
        if self._spec.retrofitter_factory is not None:
            with self._db_lock:
                batch.delta.apply_to(self._database)
        self._advance(version)
        self._writes.resolve(batch, version)
        self._writes_applied += 1
        self._writes.mark_done(batch)

    # ------------------------------------------------------------------ #
    # reader side
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Dimensionality of the served vectors."""
        if self._dimension is None:
            raise ServingError(f"{self._kind} tier is not running — call start()")
        return self._dimension

    @property
    def published_version(self) -> int:
        """Newest log version every read is guaranteed to reflect."""
        return self._version

    @property
    def categories(self) -> list[str]:
        """All servable categories at the published version."""
        if self._catalog is None:
            raise ServingError(f"{self._kind} tier is not running — call start()")
        self._sync_catalog(self._version)
        with self._catalog_lock:
            return list(self._catalog.categories)

    def topk(
        self,
        vector: np.ndarray,
        k: int = 10,
        category: str | None = None,
        min_version: int | None = None,
    ) -> list[tuple[str, str, float]]:
        """Top-``k`` ``(category, text, score)`` triples for one query.

        ``min_version`` is the read-your-writes knob: pass a resolved
        :attr:`UpdateTicket.version` and every answering replica is
        at-or-past that log position (routing prefers replicas already
        there; a lagging one replays the log before answering).
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ServingError("topk expects a single query vector")
        return self.topk_batch(
            vector[None, :], k, category=category, min_version=min_version
        )[0]

    def topk_batch(
        self,
        vectors,
        k: int = 10,
        category: str | None = None,
        min_version: int | None = None,
    ) -> list[list[tuple[str, str, float]]]:
        """Exact batched top-k (see :meth:`topk`)."""
        return self.topk_batch_versioned(
            vectors, k, category=category, min_version=min_version
        )[1]

    def topk_batch_versioned(
        self,
        vectors,
        k: int = 10,
        category: str | None = None,
        min_version: int | None = None,
    ) -> tuple[int, list[list[tuple[str, str, float]]]]:
        """``(answered_version, results)`` — the HTTP front reports both."""
        queries = np.asarray(vectors, dtype=np.float64)
        if queries.ndim != 2:
            raise ServingError("topk_batch expects a (batch, dimension) matrix")
        if self._dimension is not None and queries.shape[1] != self._dimension:
            raise ServingError(
                f"query batch has shape {queries.shape}, expected "
                f"(batch, {self._dimension})"
            )
        if not self._started or self._stopped:
            raise ServingError(f"{self._kind} tier is not running — call start()")
        if category is not None and category not in self._catalog.categories:
            # the category may have been added by a delta the lazy front
            # catalog has not replayed yet — sync before rejecting
            self._sync_catalog(self._store.latest_version(self._artifact))
            if category not in self._catalog.categories:
                raise ExtractionError(f"unknown category {category!r}")
        with self._stats_lock:
            self._n_queries += 1
            floor = max(self._version, min_version or 0)
        version, parts = self._gather(queries, int(k), category, floor)
        self._advance(version)
        return version, self._merge(int(k), parts)

    def _advance(self, version: int) -> None:
        """Raise the published version; it never moves backwards."""
        with self._stats_lock:
            self._version = max(self._version, version)

    def _gather(self, queries: np.ndarray, k: int, category, floor: int):
        """Ask one replica per partition until all answer at one version.

        Returns ``(version, [(ids, hits), ...])`` over the partitions that
        answered; a partition with no live replica is left out (a
        degraded read).
        """
        turn = next(self._turns)
        responses: dict[int, tuple] = {}
        pending = list(range(self.n_partitions))
        for _round in range(_MAX_VERSION_ROUNDS):
            payload = ("query", queries, k, category, floor)
            for partition in pending:
                reply = self._ask(partition, payload, floor, turn)
                if reply is None:
                    responses.pop(partition, None)
                else:
                    responses[partition] = reply
            if not responses:
                raise ServingError(f"every {self._kind} replica is down")
            versions = {reply[2] for reply in responses.values()}
            newest = max(versions)
            if len(versions) == 1:
                break
            # a publish landed mid-read: re-ask the lagging partitions at
            # the newest version so one response set is self-consistent
            floor = newest
            pending = [
                p for p, reply in responses.items() if reply[2] < newest
            ]
        else:
            raise ServingError(
                "partitions kept answering at diverging versions "
                f"({sorted(versions)}) — store replay cannot keep up"
            )
        if len(responses) < self.n_partitions:
            with self._stats_lock:
                self._n_degraded += 1
        parts = [(responses[p][3], responses[p][4]) for p in sorted(responses)]
        return newest, parts

    def _ask(self, partition: int, payload: tuple, floor: int, turn: int):
        """One partition's reply from some live replica, or ``None``.

        Round-robin (by ``turn``) over the partition's live replicas,
        preferring those already at ``floor`` so read-your-writes rarely
        pays replay latency; when every replica lags, any live one is
        chosen and the worker replays the log before answering.  A replica
        that dies mid-exchange is skipped for the next one.
        """
        tried: set[int] = set()
        while True:
            live = [
                r for r in self._replicas
                if r.partition == partition and r.alive
                and r.replica_id not in tried
            ]
            if not live:
                return None
            pool = [r for r in live if r.version >= floor] or live
            replica = pool[turn % len(pool)]
            tried.add(replica.replica_id)
            try:
                reply = self._exchange(
                    replica, payload, timeout=self._query_timeout
                )
            except EOFError:
                continue  # a sibling replica can still answer
            replica.version = max(replica.version, int(reply[2]))
            return reply

    @staticmethod
    def _merge(k: int, parts) -> list[list[tuple[str, str, float]]]:
        """Fold per-partition hits into the exact global top-k.

        Sorting on ``(score descending, global id ascending)`` is exactly
        the tie-stable contract of
        :func:`repro.serving.index.topk_descending`, so the merged rows
        equal the single-index result row for row.
        """
        if len(parts) == 1:
            return parts[0][1]
        merged: list[list[tuple[str, str, float]]] = []
        for row in range(len(parts[0][0])):
            candidates = [
                (-hit[2], global_id, hit)
                for ids, hits in parts
                for global_id, hit in zip(ids[row], hits[row])
            ]
            candidates.sort(key=lambda c: (c[0], c[1]))
            merged.append([hit for _, _, hit in candidates[:k]])
        return merged

    def _sync_catalog(self, version: int) -> None:
        """Replay the front catalog to ``version``.

        Gateway threads read concurrently, so the replay runs under
        ``_catalog_lock`` — two unlocked readers would apply the same
        extraction delta twice.
        """
        with self._catalog_lock:
            while self._catalog_version < version:
                try:
                    record = self._store.read_embedding_set_delta(
                        self._artifact, self._catalog_version + 1
                    )
                except StoreFormatError:
                    # compacted past the front's lazy catalog: reload the base
                    base, base_version = (
                        self._store.load_embedding_set_readonly(self._artifact)
                    )
                    if base_version <= self._catalog_version:
                        raise
                    self._catalog = base.extraction
                    self._catalog_version = base_version
                    continue
                self._catalog.apply_delta(record.extraction_delta)
                self._catalog_version = record.version

    # ------------------------------------------------------------------ #
    # maintenance / introspection
    # ------------------------------------------------------------------ #
    def _poll_replicas(self, command: str, timeout: float) -> dict[int, int]:
        """Send ``command`` to every live replica; the positions reported."""
        positions: dict[int, int] = {}
        for replica in list(self._replicas):
            if not replica.alive:
                continue
            try:
                reply = self._exchange(replica, (command,), timeout=timeout)
            except (EOFError, ServingError):
                continue  # dead or stuck: not part of the answer
            replica.version = max(replica.version, int(reply[2]))
            positions[replica.replica_id] = int(reply[2])
        return positions

    def sync_replicas(self, timeout: float | None = None) -> int:
        """Force every live replica to replay to the store's newest
        version; returns the minimum version the pool reached."""
        positions = self._poll_replicas(
            "sync", self._query_timeout if timeout is None else timeout
        )
        if not positions:
            raise ServingError(f"every {self._kind} replica is down")
        self._advance(min(positions.values()))
        return min(positions.values())

    def replica_versions(self) -> dict[int, int]:
        """Current replay position of every live replica (by ping)."""
        return self._poll_replicas("ping", 5.0)

    def replica_matrix(
        self, replica_id: int | None = None, sync: bool = True
    ) -> tuple[int, np.ndarray]:
        """``(version, rows)`` of one replica's replayed state.

        With one partition the rows are the full matrix: the agreement
        gate that tests and benchmarks compare against the serial
        :class:`IncrementalRetrofitter` replay.  Defaults to the first
        live replica; ``sync`` replays to the newest version first.
        """
        replica = next(
            (
                r for r in self._replicas
                if r.alive and replica_id in (None, r.replica_id)
            ),
            None,
        )
        if replica is None:
            raise ServingError(f"no live follower {replica_id!r} to dump")
        if sync:
            self._exchange(replica, ("sync",), timeout=self._query_timeout)
        reply = self._exchange(replica, ("dump",), timeout=self._query_timeout)
        return int(reply[2]), reply[3]

    def compact(self) -> int:
        """Compact the log, retaining records live replicas still need.

        The retention floor is the slowest live replica's announced
        position + 1 — :meth:`EmbeddingStore.compact_embedding_set` keeps
        every record at or past it, so no tailing replica loses a record
        mid-replay.  (A replica that *still* falls behind — e.g. dead
        during compaction, respawned later — recovers via the snapshot
        fallback in :class:`_ReplicaState`.)  Returns the compacted-to
        version.
        """
        positions = self.replica_versions()
        keep_from = min(positions.values()) + 1 if positions else None
        return self._store.compact_embedding_set(
            self._artifact, keep_from=keep_from
        )

    @property
    def live_followers(self) -> int:
        """Number of currently responsive replicas."""
        return sum(1 for replica in self._replicas if replica.alive)

    @property
    def write_degraded(self) -> bool:
        """Whether writes are refused (no healthy primary left)."""
        return self._writes is not None and self._writes.degraded is not None

    def recent_events(self, n: int = 50) -> list[dict]:
        """The tier's latest structured state-transition events."""
        return self._events.tail(n)

    @property
    def failovers(self) -> int:
        """How many times a replica was promoted to primary."""
        return self._n_failovers

    @property
    def last_failover_seconds(self) -> float | None:
        """Detection→promotion duration of the most recent failover."""
        return self._last_failover_seconds

    @property
    def primary_pid(self) -> int:
        """OS pid of the current primary process.

        Chaos hooks (the benchmark's failover phase, the CI stress test)
        SIGKILL this pid to exercise detection and promotion.
        """
        primary = self._primary
        if primary is None or primary.process is None:
            raise ServingError(f"{self._kind} tier has no primary process")
        return int(primary.process.pid)

    def _counters(self) -> dict:
        """The counters every stats form of the tier reports."""
        return {
            "queries": self._n_queries,
            "degraded_queries": self._n_degraded,
            "writes_submitted": (
                self._writes.queue.stats.submitted if self._writes else 0
            ),
            "writes_applied": self._writes_applied,
            "write_failures": self._writes.failures if self._writes else 0,
            "writes_rate_limited": (
                self._writes.rate_limited if self._writes else 0
            ),
        }

    @property
    def stats(self) -> ReplicatedTierStats:
        """A point-in-time snapshot of the tier's counters."""
        versions = [r.version for r in self._replicas if r.alive]
        return ReplicatedTierStats(
            n_replicas=len(self._replicas),
            live_followers=self.live_followers,
            log_version=self._version,
            min_follower_version=min(versions, default=0),
            max_follower_version=max(versions, default=0),
            follower_respawns=self._n_respawns,
            failovers=self._n_failovers,
            last_failover_seconds=self._last_failover_seconds,
            **self._counters(),
        )
