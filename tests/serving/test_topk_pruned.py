"""Property tests: the block-max pruned top-k is the full sort, bit for bit.

Every input is compared against a full-sort reference — ``np.lexsort`` on
``(id, -score)`` per query — at widths above the pruning threshold, so
the bound in :func:`repro.serving.index.topk_columns` is actually tried.
Ids and scores must match exactly: ties across block boundaries, constant
columns, ``-inf`` tombstone runs, NaN inside a block, short tail blocks,
``k=1`` and ``k`` near ``n``, single-query batches and float32 matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import index as index_module
from repro.serving.index import FlatIndex, topk_columns, topk_descending

BLOCK = index_module._BLOCK
FEATURES = ("plain", "boundary_tie", "kth_tie", "constant", "inf_run", "nan")


def reference_columns(scores: np.ndarray, k: int) -> np.ndarray:
    """Full-sort top-``k`` of each column of ``(n, batch)``: score
    descending, then id ascending, NaN last."""
    ids = np.arange(scores.shape[0])
    return np.stack(
        [np.lexsort((ids, -column))[:k] for column in scores.T]
    ).astype(np.int64)


def gathered(scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
    return scores[ids, np.arange(ids.shape[0])[:, None]]


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def pruned_width(k: int) -> int:
    """The smallest row count at which the bound is tried for ``k``."""
    return index_module._PRUNE_RATIO * k * BLOCK


def add_feature(column: np.ndarray, feature: str, k: int, rng) -> None:
    """Plant one hard case into a score column in place."""
    n = column.size
    if feature == "boundary_tie":
        # equal top scores on both sides of a block boundary
        edge = BLOCK * int(rng.integers(1, n // BLOCK))
        column[edge - 1] = column[edge] = np.nanmax(column) + 1
    elif feature == "kth_tie":
        # copies of the k-th largest score scattered over other blocks
        kth = np.sort(column)[::-1][k - 1]
        column[rng.integers(0, n, size=3)] = kth
    elif feature == "constant":
        column[:] = column[0]
    elif feature == "inf_run":
        start = int(rng.integers(0, n))
        column[start:start + int(rng.integers(1, 3 * BLOCK))] = -np.inf
    elif feature == "nan":
        column[int(rng.integers(0, n))] = np.nan


@pytest.fixture()
def ranked_widths(monkeypatch):
    """Widths of every row set the selection ranks in full: ``k·_BLOCK``
    on the pruned path, all ``n`` rows on a fallback."""
    widths = []
    full_rank = index_module._topk_rows

    def spy(scores, k):
        widths.append(scores.shape[1])
        return full_rank(scores, k)

    monkeypatch.setattr(index_module, "_topk_rows", spy)
    return widths


@st.composite
def score_matrices(draw):
    """``(scores (n, batch), k)`` with ``n`` above the pruning threshold."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(pruned_width(k), pruned_width(k) + 2 * BLOCK))
    batch = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    levels = draw(st.sampled_from([None, 4, 1000]))
    features = draw(st.lists(st.sampled_from(FEATURES), min_size=batch,
                             max_size=batch))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if levels is None:
        scores = rng.normal(size=(n, batch))
    else:
        scores = rng.integers(0, levels, size=(n, batch)).astype(np.float64)
    scores = scores.astype(dtype)
    for column, feature in enumerate(features):
        add_feature(scores[:, column], feature, k, rng)
    return scores, k


class TestPrunedSelection:
    @given(score_matrices())
    @settings(max_examples=150, deadline=None)
    def test_equals_full_sort(self, case):
        scores, k = case
        want = reference_columns(scores, k)
        got = topk_columns(scores, k)
        assert np.array_equal(got, want)
        assert_bitwise(gathered(scores, got), gathered(scores, want))
        # the (batch, n) layout of topk_descending takes the same bound
        assert np.array_equal(
            topk_descending(np.ascontiguousarray(scores.T), k), want
        )

    @given(
        st.integers(1, 600),
        st.integers(-3, 2),
        st.sampled_from([np.float64, np.float32]),
        st.sampled_from(FEATURES),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_k_near_n_equals_full_sort(self, n, offset, dtype, feature, seed):
        rng = np.random.default_rng(seed)
        k = max(1, n + offset)
        scores = rng.integers(0, 5, size=(n, 2)).astype(dtype)
        if n >= 2 * BLOCK:
            add_feature(scores[:, 0], feature, min(k, n), rng)
        want = reference_columns(scores, k)
        got = topk_columns(scores, k)
        assert np.array_equal(got, want)
        assert_bitwise(gathered(scores, got), gathered(scores, want))

    def test_short_tail_block_holding_the_maximum(self, rng):
        """The rows a short tail block lacks never pad the answer."""
        k = 3
        scores = rng.normal(size=(pruned_width(k) + 5, 2))
        scores[-1] = scores.max() + 1.0
        assert np.array_equal(topk_columns(scores, k), reference_columns(scores, k))

    def test_empty_batch_at_pruning_width(self):
        assert topk_columns(np.zeros((pruned_width(10), 0)), 10).shape == (0, 10)
        index = FlatIndex(np.ones((pruned_width(5), 4)))
        assert index.query_batch(np.zeros((0, 4)), 5)[0].shape == (0, 5)

    def test_nan_boundary_ranks_nan_last(self):
        """Fewer non-NaN scores than ``k``: NaN fills the tail by id."""
        scores = np.array([[np.nan], [2.0], [np.nan], [1.0], [np.nan]])
        assert np.array_equal(topk_columns(scores, 4), [[1, 3, 0, 2]])
        assert np.array_equal(topk_descending(scores[:, 0], 4), [1, 3, 0, 2])

    def test_distinct_scores_take_the_pruned_path(self, ranked_widths, rng):
        """Continuous scores never tie at the bound, so no column falls
        back to ranking the full width."""
        k = 10
        scores = rng.normal(size=(2 * pruned_width(k) + 77, 40))
        got = topk_columns(scores, k)
        assert ranked_widths == [k * BLOCK]
        assert np.array_equal(got, reference_columns(scores, k))


# --------------------------------------------------------------------- #
# FlatIndex.query_batch
# --------------------------------------------------------------------- #
def reference_query(matrix, queries, k, removed):
    """Scores by the historical out-of-place cosine formula, then a full
    sort: what ``FlatIndex.query_batch`` returned before pruning."""
    queries = np.asarray(queries, dtype=matrix.dtype)
    products = matrix @ queries.T
    query_norms = np.linalg.norm(queries, axis=1)
    denom = np.linalg.norm(matrix, axis=1)[:, None] * (query_norms[None, :] + 1e-12)
    denom[denom < 1e-12] = 1e-12
    scores = products / denom
    if removed.size:
        scores[removed] = -np.inf
    ids = reference_columns(scores, k)
    top = gathered(scores, ids)
    if removed.size:
        ids[~np.isfinite(top)] = -1
    return ids, top


@st.composite
def flat_cases(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(pruned_width(k), pruned_width(k) + 2 * BLOCK))
    dimension = draw(st.integers(2, 8))
    batch = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    integer = draw(st.booleans())
    features = draw(st.sets(st.sampled_from(
        ["duplicate_across_boundary", "zero_rows", "tombstone_run", "nan_row"]
    )))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if integer:
        # exact dot products over a tiny value range: ties everywhere
        matrix = rng.integers(-2, 3, size=(n, dimension)).astype(np.float64)
        queries = rng.integers(-2, 3, size=(batch, dimension)).astype(np.float64)
    else:
        matrix = rng.normal(size=(n, dimension))
        queries = matrix[rng.integers(0, n, batch)] + 0.01 * rng.normal(
            size=(batch, dimension)
        )
    matrix = matrix.astype(dtype)
    if "duplicate_across_boundary" in features:
        edge = BLOCK * int(rng.integers(1, n // BLOCK))
        matrix[edge] = matrix[edge - 1]
        queries[0] = matrix[edge]
    if "zero_rows" in features:
        matrix[rng.integers(0, n, size=5)] = 0.0
    if "nan_row" in features:
        matrix[int(rng.integers(0, n))] = np.nan
    removed = np.empty(0, dtype=np.int64)
    if "tombstone_run" in features:
        start = int(rng.integers(0, n - 1))
        removed = np.arange(start, min(n, start + int(rng.integers(1, 3 * BLOCK))))
    return matrix, queries, k, removed


class TestFlatIndexPruned:
    @given(flat_cases())
    @settings(max_examples=100, deadline=None)
    def test_query_batch_equals_full_sort(self, case):
        matrix, queries, k, removed = case
        index = FlatIndex(matrix)
        if removed.size:
            index.remove(removed)
        want_ids, want_scores = reference_query(matrix, queries, k, removed)
        got_ids, got_scores = index.query_batch(queries, k)
        assert np.array_equal(got_ids, want_ids)
        assert_bitwise(got_scores, want_scores)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_distinct_scores_take_the_pruned_path(self, ranked_widths, rng, dtype):
        k = 5
        matrix = rng.normal(size=(3 * pruned_width(k) + 5, 16)).astype(dtype)
        queries = rng.normal(size=(1, 16))
        got_ids, got_scores = FlatIndex(matrix).query_batch(queries, k)
        assert ranked_widths == [k * BLOCK]
        want_ids, want_scores = reference_query(
            matrix, queries, k, np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(got_ids, want_ids)
        assert_bitwise(got_scores, want_scores)
