"""Replicated serving: full-corpus read replicas over the store's log.

:class:`ReplicatedServingTier` is :class:`~repro.serving.tier.ServingTier`
with ``partitions=1, replicas=n_replicas`` — the deployment shape where
query traffic, not corpus size, is the bottleneck.  Every follower holds
the whole corpus, so ``retrofitter_factory`` can arm failover: a dead
primary is replaced by the most-caught-up follower.  The shared store
directory stands in for shared durable storage; in a multi-box deployment
:func:`ship_snapshot` moves artifacts between store roots.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.serving.runtime import RateLimiter
from repro.serving.store import KIND_EMBEDDING_SET, EmbeddingStore
from repro.serving.tier import ReplicatedTierStats, ServingTier, _ReplicaState
from repro.util import faults

__all__ = ["ReplicatedServingTier", "ReplicatedTierStats", "ship_snapshot"]

#: A full-corpus replica snapshot: partition 0 of 1.
_FollowerState = _ReplicaState


def ship_snapshot(
    source_root: str | Path,
    artifact: str,
    dest_root: str | Path,
    include_deltas: bool = True,
) -> int:
    """Copy an embedding-set artifact (and its delta log) between stores.

    This is how a brand-new follower on another box bootstraps: ship the
    base snapshot plus the log tail, start the follower on the
    destination store, and it replays to the newest version.  Files are
    copied matrix-archive first, header last — the header is the commit
    point (same contract as :meth:`EmbeddingStore._write`), so a crash
    mid-ship never leaves a header pointing at a missing archive.
    Returns the latest version available at the destination.
    """
    faults.fire("repl.log_ship", "before")
    source = EmbeddingStore(source_root)
    destination = EmbeddingStore(dest_root)
    destination.root.mkdir(parents=True, exist_ok=True)
    names = [artifact]
    if include_deltas:
        names.extend(
            delta_name
            for _, delta_name in source.list_embedding_set_deltas(artifact)
        )
    for name in names:
        header = source._read_header(name)
        if name == artifact:
            source._validate_header(name, header, KIND_EMBEDDING_SET)
        matrix_file = header.get("matrix_file")
        if isinstance(matrix_file, str):
            shutil.copy2(source.root / matrix_file, destination.root / matrix_file)
        shutil.copy2(
            source._header_path(name), destination._header_path(name)
        )  # commit
    return destination.latest_version(artifact)


class ReplicatedServingTier(ServingTier):
    """Primary/follower serving over the store's delta log.

    :meth:`start` forks ``n_replicas`` follower processes (full-corpus
    read replicas tailing the log) and — when ``database``/``retrofitter``
    are given — one primary process owning them (the caller must not
    touch either afterwards).  Reads are load-balanced round-robin across
    live followers; pass ``min_version`` (a resolved
    :attr:`UpdateTicket.version`) for read-your-writes.  Writes go
    through :meth:`submit` → write-ahead queue → the primary.

    ``retrofitter_factory`` — a picklable/fork-inheritable callable
    ``embeddings -> IncrementalRetrofitter`` — arms failover.  Without it
    the tier still detects a dead primary and keeps serving reads, but
    writes fail.
    """

    _kind = "replicated"

    def __init__(
        self,
        store_root: str | Path,
        artifact: str,
        n_replicas: int = 2,
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
    ) -> None:
        super().__init__(
            store_root, artifact, partitions=1, replicas=n_replicas,
            database=database, retrofitter=retrofitter,
            retrofitter_factory=retrofitter_factory, metric=metric,
            solve_iterations=solve_iterations, queue_capacity=queue_capacity,
            coalesce=coalesce, max_coalesced_ops=max_coalesced_ops,
            write_rate_limit=write_rate_limit, query_timeout=query_timeout,
            heartbeat_interval=heartbeat_interval,
            heartbeat_misses=heartbeat_misses, tail_interval=tail_interval,
        )
        self.n_replicas = int(n_replicas)
