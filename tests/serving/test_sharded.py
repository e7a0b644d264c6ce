"""Property tests: the sharded tier answers exactly like a single index.

The tie-stable top-k contract (ascending-index tie-breaking in
``topk_descending``, ``(score desc, global id asc)`` in the front's merge)
makes the equality *exact*: same rows, same order, same float bits.  The
matrices here are integer-valued, so every dot product is exactly
representable and the comparison is ``==``, not ``allclose`` — any
tie-handling or partition bug fails deterministically.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.datasets import generate_tmdb
from repro.db.database import Database, build_table_schema
from repro.db.delta import DatabaseDelta
from repro.db.types import ColumnType
from repro.errors import ExtractionError, ServingError
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.retrofit.extraction import extract_text_values
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline
from repro.serving import index as index_module
from repro.serving import (
    EmbeddingStore,
    FlatIndex,
    RateLimiter,
    ServingSession,
    ServingTier,
    ShardedServingTier,
    stable_shard,
)

#: A ``(partitions, replicas)`` pair runs the general P×R tier instead.
GRID = pytest.param((2, 2), id="2x2")
SHARD_COUNTS = [1, 2, 5, GRID]


def make_tier(store, artifact, n_shards, **kwargs):
    """A sharded tier, or the P×R tier when ``n_shards`` is a pair."""
    if isinstance(n_shards, tuple):
        partitions, replicas = n_shards
        return ServingTier(
            store.root, artifact, partitions=partitions, replicas=replicas,
            **kwargs,
        )
    return ShardedServingTier(store.root, artifact, n_shards=n_shards, **kwargs)


class TestStableShard:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 7):
            for value in ("a", "b", "the quiet voyage"):
                first = stable_shard("movies.title", value, n)
                assert 0 <= first < n
                assert stable_shard("movies.title", value, n) == first

    def test_single_shard_owns_everything(self):
        assert stable_shard("c", "x", 1) == 0

    def test_category_is_part_of_the_key(self):
        shards = {
            stable_shard(f"category.{i}", "same text", 64) for i in range(64)
        }
        assert len(shards) > 1


@pytest.fixture()
def int_corpus(tmdb_extraction, tmp_path):
    """An integer-valued embedding set saved to a store: exact dot products
    and a tiny value range, so score ties are everywhere."""
    rng = np.random.default_rng(7)
    matrix = rng.integers(-2, 3, size=(len(tmdb_extraction), 12)).astype(
        np.float64
    )
    embeddings = TextValueEmbeddingSet(tmdb_extraction, matrix, name="INT")
    store = EmbeddingStore(tmp_path / "store")
    store.save_embedding_set("int", embeddings)
    session = ServingSession(embeddings)
    queries = rng.integers(-3, 4, size=(9, 12)).astype(np.float64)
    queries[3] = queries[0]  # duplicated query
    queries[5] = 0.0  # degenerate zero query
    return store, session, queries


class TestShardedEqualsSingleIndex:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_topk_batch_identical(self, int_corpus, n_shards):
        store, session, queries = int_corpus
        with make_tier(store, "int", n_shards) as tier:
            for k in (1, 3, 10):
                assert tier.topk_batch(queries, k) == session.topk_batch(
                    queries, k
                )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_category_scope_identical(self, int_corpus, n_shards):
        store, session, queries = int_corpus
        categories = sorted(session.categories)[:3]
        with make_tier(store, "int", n_shards) as tier:
            for category in categories:
                assert tier.topk_batch(
                    queries, 5, category=category
                ) == session.topk_batch(queries, 5, category=category)

    def test_k_beyond_corpus_returns_everything(self, int_corpus):
        store, session, queries = int_corpus
        with ShardedServingTier(store.root, "int", n_shards=2) as tier:
            got = tier.topk_batch(queries[:2], 10_000)
            want = session.topk_batch(queries[:2], 10_000)
            assert got == want
            assert len(got[0]) == len(session.embeddings)

    def test_single_query_topk(self, int_corpus):
        store, session, queries = int_corpus
        with ShardedServingTier(store.root, "int", n_shards=3) as tier:
            assert tier.topk(queries[0], 7) == session.topk(queries[0], 7)

    def test_unknown_category_raises_like_the_session(self, int_corpus):
        store, session, queries = int_corpus
        with pytest.raises(ExtractionError):
            session.topk(queries[0], 3, category="nope.nope")
        with ShardedServingTier(store.root, "int", n_shards=2) as tier:
            with pytest.raises(ExtractionError):
                tier.topk(queries[0], 3, category="nope.nope")

    def test_read_only_tier_refuses_writes(self, int_corpus):
        store, _, _ = int_corpus
        with ShardedServingTier(store.root, "int", n_shards=2) as tier:
            with pytest.raises(ServingError, match="no writer side"):
                tier.submit(DatabaseDelta())


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    """20,000 values whose integer vectors come in ~2 exact copies each.

    Wide enough that each ~10k-row partition's flat scan tries the
    block-max bound of ``topk_columns`` for ``k <= 19``; tie-heavy enough
    that some queries prune and others fall back to ranking every row of
    the partition.
    """
    database = Database("wide")
    database.create_table(build_table_schema(
        "items", [("id", ColumnType.INTEGER), ("text", ColumnType.TEXT)],
        primary_key="id",
    ))
    database.insert_many(
        "items", ({"id": i, "text": f"item {i}"} for i in range(20_000))
    )
    extraction = extract_text_values(database)
    rng = np.random.default_rng(11)
    distinct = rng.integers(-3, 4, size=(len(extraction) // 2, 8)).astype(
        np.float64
    )
    matrix = distinct[rng.integers(0, distinct.shape[0], size=len(extraction))]
    embeddings = TextValueEmbeddingSet(extraction, matrix, name="WIDE")
    store = EmbeddingStore(tmp_path_factory.mktemp("wide") / "store")
    store.save_embedding_set("wide", embeddings)
    queries = distinct[rng.integers(0, distinct.shape[0], size=32)]
    queries[7] = 0.0  # every score ties at zero
    return store, embeddings, queries


class TestShardedEqualsSingleIndexAtPruningWidth:
    def test_two_partitions_bitwise_equal_flat_index(self, wide_corpus):
        store, embeddings, queries = wide_corpus
        records = embeddings.extraction.records
        rows = embeddings.scope_rows(None)
        index = FlatIndex(embeddings.matrix)
        with ShardedServingTier(
            store.root, "wide", n_shards=2, index_kind="flat"
        ) as tier:
            for k in (1, 2, 10):
                ids, scores = index.query_batch(queries, k)
                want = [
                    [
                        (records[rows[i]].category, records[rows[i]].text,
                         float(score))
                        for i, score in zip(row_ids, row_scores)
                    ]
                    for row_ids, row_scores in zip(ids, scores)
                ]
                got = tier.topk_batch(queries, k)
                assert got == want
                assert np.array(
                    [[score for _, _, score in row] for row in got]
                ).tobytes() == scores.tobytes()

    def test_partition_reads_take_both_selection_paths(
        self, wide_corpus, monkeypatch
    ):
        """The queries above exercise the pruned path and the fallback on
        a partition, not only one of them."""
        _, embeddings, queries = wide_corpus
        records = embeddings.extraction.records
        rows = embeddings.scope_rows(None)
        owned = [
            row for row in rows
            if stable_shard(records[row].category, records[row].text, 2) == 0
        ]
        index = FlatIndex(embeddings.matrix[owned])
        widths = []
        full_rank = index_module._topk_rows

        def spy(scores, k):
            widths.append((k, scores.shape[1]))
            return full_rank(scores, k)

        monkeypatch.setattr(index_module, "_topk_rows", spy)
        for k in (1, 2, 10):
            index.query_batch(queries, k)
        assert any(width == k * index_module._BLOCK for k, width in widths)
        assert any(width == len(owned) for _, width in widths)


class TestShardedIndexKinds:
    """``index_kind`` swaps the per-shard scope index; an exhaustive NSW
    beam keeps the tier's exact-equality contract bit for bit."""

    @pytest.mark.parametrize("n_shards", [1, 3, GRID])
    def test_nsw_per_shard_equals_single_index(self, int_corpus, n_shards):
        store, session, queries = int_corpus
        tier = make_tier(
            store, "int", n_shards, index_kind="nsw",
            index_params={"max_degree": 8, "ef_search": 100_000},
        )
        with tier:
            for k in (1, 3, 10):
                assert tier.topk_batch(queries, k) == session.topk_batch(
                    queries, k
                )

    def test_nsw_category_scope_identical(self, int_corpus):
        store, session, queries = int_corpus
        category = sorted(session.categories)[0]
        tier = ShardedServingTier(
            store.root, "int", n_shards=2, index_kind="nsw",
            index_params={"max_degree": 8, "ef_search": 100_000},
        )
        with tier:
            assert tier.topk_batch(
                queries, 5, category=category
            ) == session.topk_batch(queries, 5, category=category)

    def test_rejects_unknown_kind(self, int_corpus):
        store, _, _ = int_corpus
        with pytest.raises(ServingError, match="index kind"):
            ShardedServingTier(store.root, "int", index_kind="kdtree")


@pytest.fixture()
def stream(tmp_path):
    """A trained TMDB corpus + retrofitter + store, for delta streams."""
    dataset = generate_tmdb(num_movies=60, seed=8, embedding_dimension=16)
    pipeline = RetroPipeline(
        dataset.database,
        dataset.embedding,
        hyperparams=RetroHyperparameters.paper_rn_default(),
    )
    result = pipeline.run(iterations=120)
    retrofitter = pipeline.incremental_retrofitter(result)
    store = EmbeddingStore(tmp_path / "store")
    store.save_embedding_set("rn", result.embeddings)
    return dataset, retrofitter, store


def make_delta(dataset, key):
    delta = DatabaseDelta()
    delta.insert("movies", {
        "id": 60_000 + key, "title": f"silent meridian {key}",
        "original_language": "english",
        "overview": "a quiet voyage across the meridian",
        "budget": 1e7, "revenue": 2e7, "popularity": 1.0,
        "release_year": 2026, "collection_id": None,
    })
    delta.insert("movie_countries", {
        "id": 60_000 + key, "movie_id": 60_000 + key, "country_id": 1,
    })
    if key % 2 == 0:  # deletions: removed values tombstone in-place sessions
        victim = dataset.database.table("reviews").rows[0]
        delta.delete("reviews", victim["id"])
    return delta


class TestDeltaReplay:
    def test_mid_stream_replay_matches_inplace_session(self, stream):
        """A read-only tier replaying the store's delta records stays
        identical to a single in-place-updated session — including the
        tombstoned rows the in-place path accumulates after deletions."""
        dataset, retrofitter, store = stream
        session = ServingSession(retrofitter.embeddings)
        session.settle_indexes()
        rng = np.random.default_rng(3)
        queries = rng.integers(-3, 4, size=(6, 16)).astype(np.float64)
        with ShardedServingTier(store.root, "rn", n_shards=2) as tier:
            assert tier.topk_batch(queries, 6) == session.topk_batch(queries, 6)
            for key in (1, 2, 3):
                update = retrofitter.apply(dataset.database, make_delta(dataset, key))
                store.append_embedding_set_delta("rn", update)
                session.apply_update(update)
                assert tier.sync_shards() == key
                assert tier.topk_batch(queries, 6) == session.topk_batch(
                    queries, 6
                )
                assert tier.topk_batch(
                    queries, 4, category="movies.title"
                ) == session.topk_batch(queries, 4, category="movies.title")

    def test_writer_path_is_read_your_writes(self, stream):
        """submit() → ticket.wait() → the next read reflects the update,
        bit-for-bit equal to serving the store's versioned load."""
        dataset, retrofitter, store = stream
        rng = np.random.default_rng(4)
        queries = rng.integers(-3, 4, size=(5, 16)).astype(np.float64)
        tier = ShardedServingTier(
            store.root, "rn", n_shards=2,
            database=dataset.database, retrofitter=retrofitter,
            solve_iterations=60,
        )
        with tier:
            for key in (1, 2):
                ticket = tier.submit(make_delta(dataset, key))
                assert ticket.wait(timeout=120)
                assert tier.published_version == key
                loaded, _, version = store.load_embedding_set_versioned("rn")
                assert version == key
                serial = ServingSession(loaded)
                assert tier.topk_batch(queries, 5) == serial.topk_batch(
                    queries, 5
                )
        assert tier.stats.writes_applied == 2


class TestWriteAdmission:
    def test_rate_limit_rejects_before_the_queue(self, stream):
        dataset, retrofitter, store = stream
        tier = ShardedServingTier(
            store.root, "rn", n_shards=1,
            database=dataset.database, retrofitter=retrofitter,
            solve_iterations=30,
            write_rate_limit=RateLimiter(0.01, burst=1),
        )
        with tier:
            ticket = tier.submit(make_delta(dataset, 1), timeout=0.0)
            with pytest.raises(ServingError, match="rate limit"):
                tier.submit(make_delta(dataset, 2), timeout=0.0)
            assert ticket.wait(timeout=120)
            assert tier.stats.writes_rate_limited == 1
            # reads are never throttled by write admission
            queries = np.ones((2, 16), dtype=np.float64)
            assert len(tier.topk_batch(queries, 3)) == 2


@pytest.mark.stress
class TestConcurrentReads:
    def test_concurrent_reads_stay_exact_and_counted(self, int_corpus):
        """More reader threads than cores, switching every 10 µs, share
        the tier without a tier-wide lock: every answer stays exact and
        no read is lost from the counters."""
        store, session, queries = int_corpus
        want = session.topk_batch(queries, 5)
        mismatches = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServingTier(
                store.root, "int", partitions=2, replicas=2
            ) as tier:

                def reader():
                    for _ in range(20):
                        if tier.topk_batch(queries, 5) != want:
                            mismatches.append(threading.get_ident())

                threads = [threading.Thread(target=reader) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert mismatches == []
                assert tier.stats.queries == 6 * 20
                assert tier.stats.degraded_queries == 0
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.stress
class TestCrashRecovery:
    def test_worker_crash_degrades_then_respawns(self, int_corpus):
        store, session, queries = int_corpus
        with ShardedServingTier(store.root, "int", n_shards=2) as tier:
            want = session.topk_batch(queries, 8)
            assert tier.topk_batch(queries, 8) == want
            victim = tier._shards[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            # served degraded: only shard 1's rows, but still well-formed
            degraded = tier.topk_batch(queries, 8)
            assert tier.stats.degraded_queries >= 1
            for row in degraded:
                for category, text, _ in row:
                    assert stable_shard(category, text, 2) == 1
            deadline = time.monotonic() + 30.0
            while tier.live_shards < 2:
                assert time.monotonic() < deadline, "respawn never completed"
                time.sleep(0.05)
            assert tier.stats.shard_respawns == 1
            assert tier.topk_batch(queries, 8) == want

    def test_replica_crash_keeps_reads_exact(self, int_corpus):
        """With two replicas per partition a SIGKILL costs nothing: reads
        re-route to the sibling replica — exact, not degraded — while the
        pool respawns the dead one."""
        store, session, queries = int_corpus
        with ServingTier(store.root, "int", partitions=2, replicas=2) as tier:
            want = session.topk_batch(queries, 8)
            assert tier.topk_batch(queries, 8) == want
            victim = next(r for r in tier._replicas if r.partition == 0)
            process = victim.process
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
            for _ in range(4):
                assert tier.topk_batch(queries, 8) == want
            assert tier.stats.degraded_queries == 0
            deadline = time.monotonic() + 30.0
            while tier.live_followers < 4:
                assert time.monotonic() < deadline, "respawn never completed"
                time.sleep(0.05)
            assert tier.stats.follower_respawns == 1
            assert tier.topk_batch(queries, 8) == want
            assert tier.stats.degraded_queries == 0
