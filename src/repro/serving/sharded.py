"""Sharded serving: ``n_shards`` partitions, one replica each.

:class:`ShardedServingTier` is :class:`~repro.serving.tier.ServingTier`
with ``partitions=n_shards, replicas=1``: each worker holds ``1/n_shards``
of the matrix and a read merges every shard's hits into the exact global
top-k.  A dead worker degrades its shard's rows out of the results until
the respawn lands.  A shard holds too few rows to rebuild the solver, so
there is no failover: a failed primary latches
:attr:`~ShardedServingTier.write_degraded` and reads keep serving.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.serving.runtime import RateLimiter
from repro.serving.tier import ServingTier, stable_shard

__all__ = ["ShardedServingTier", "TierStats", "stable_shard"]


@dataclass(frozen=True)
class TierStats:
    """Counters of one :class:`ShardedServingTier`."""

    n_shards: int
    live_shards: int
    published_version: int
    queries: int
    degraded_queries: int
    shard_respawns: int
    writes_submitted: int
    writes_applied: int
    write_failures: int
    writes_rate_limited: int


class ShardedServingTier(ServingTier):
    """Scatter-gather top-k serving over ``n_shards`` worker processes.

    Reads go through :meth:`topk`/:meth:`topk_batch`; writes through
    :meth:`submit` (given ``database``/``retrofitter``, which the tier
    then owns).  After ``ticket.wait()`` every read sees the update:
    reads carry the published version and a lagging shard replays the
    store's delta chain before answering.  Compose with
    :class:`~repro.serving.runtime.BatchedQueryFront` to coalesce
    concurrent callers into batches.
    """

    _kind = "sharded"

    def __init__(
        self,
        store_root: str | Path,
        artifact: str,
        n_shards: int = 2,
        database=None,
        retrofitter=None,
        metric: str = "cosine",
        solve_iterations: int | None = None,
        queue_capacity: int = 64,
        coalesce: bool = True,
        max_coalesced_ops: int = 1024,
        write_rate_limit: RateLimiter | None = None,
        query_timeout: float = 30.0,
        index_kind: str = "flat",
        index_params: dict | None = None,
    ) -> None:
        super().__init__(
            store_root, artifact, partitions=n_shards, replicas=1,
            database=database, retrofitter=retrofitter, metric=metric,
            solve_iterations=solve_iterations, queue_capacity=queue_capacity,
            coalesce=coalesce, max_coalesced_ops=max_coalesced_ops,
            write_rate_limit=write_rate_limit, query_timeout=query_timeout,
            index_kind=index_kind, index_params=index_params,
        )
        self.n_shards = self.n_partitions

    @property
    def _shards(self):
        """The shard workers' handles, in shard order."""
        return self._replicas

    @property
    def live_shards(self) -> int:
        """Number of currently responsive shard workers."""
        return self.live_followers

    def sync_shards(self, timeout: float | None = None) -> int:
        """Force every live shard to replay to the store's newest version.

        Returns the version all shards reached.  Reads already self-sync
        (they carry the published version); this is for tests and for
        warming shards after a burst of writes landed without reads.
        """
        return self.sync_replicas(timeout)

    @property
    def stats(self) -> TierStats:
        """A point-in-time snapshot of the tier's counters."""
        return TierStats(
            n_shards=self.n_shards,
            live_shards=self.live_shards,
            published_version=self._version,
            shard_respawns=self._n_respawns,
            **self._counters(),
        )
