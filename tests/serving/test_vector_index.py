"""Tests for the exact (flat) and IVF approximate top-k indexes."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving.index import FlatIndex, IVFIndex, topk_descending


def loop_cosine_scores(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The literal per-row cosine reference the indexes must reproduce."""
    scores = []
    for row in matrix:
        denom = np.linalg.norm(row) * (np.linalg.norm(query) + 1e-12)
        if denom == 0:
            denom = 1e-12
        scores.append(float(row @ query / denom))
    return np.array(scores)


class TestTopkSelection:
    def test_matches_full_sort_on_vector(self, rng):
        scores = rng.normal(size=97)
        assert np.array_equal(topk_descending(scores, 10), np.argsort(-scores)[:10])

    def test_matches_full_sort_on_batch(self, rng):
        scores = rng.normal(size=(5, 40))
        top = topk_descending(scores, 7)
        for row in range(5):
            assert np.array_equal(top[row], np.argsort(-scores[row])[:7])

    def test_k_larger_than_n(self, rng):
        scores = rng.normal(size=6)
        assert np.array_equal(topk_descending(scores, 50), np.argsort(-scores))

    def test_k_zero_is_empty(self, rng):
        assert topk_descending(rng.normal(size=6), 0).shape == (0,)

    def test_ties_break_by_ascending_index(self):
        """Equal scores select and order the lowest indices first.

        argpartition alone keeps an arbitrary subset of boundary ties;
        deterministic selection is what lets per-shard top-k heaps merge
        into exactly the single-index answer.
        """
        scores = np.array([1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0])
        assert np.array_equal(topk_descending(scores, 4), [1, 3, 5, 0])
        assert np.array_equal(topk_descending(scores, 5), [1, 3, 5, 0, 2])

    def test_all_equal_scores_select_prefix(self):
        scores = np.full(20, 0.5)
        assert np.array_equal(topk_descending(scores, 6), np.arange(6))

    def test_tie_stability_matches_stable_argsort(self, rng):
        """Property: always identical to a stable full sort on (-score, idx)."""
        for _ in range(25):
            n = int(rng.integers(1, 60))
            scores = rng.integers(0, 4, size=(3, n)).astype(np.float64)
            k = int(rng.integers(1, n + 1))
            reference = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            assert np.array_equal(topk_descending(scores, k), reference)


class TestReadOnlyMatrices:
    """Indexes over read-only (shared/mmap) matrices: no copy until write."""

    def test_flat_queries_read_only_matrix_in_place(self, rng):
        matrix = rng.normal(size=(30, 8))
        matrix.setflags(write=False)
        index = FlatIndex(matrix)
        assert np.shares_memory(index.matrix, matrix)
        indices, _ = index.query(rng.normal(size=8), 5)
        assert indices.shape == (5,)

    def test_first_mutation_copies_read_only_matrix(self, rng):
        matrix = rng.normal(size=(30, 8))
        frozen = matrix.copy()
        frozen.setflags(write=False)
        index = FlatIndex(frozen)
        index.update_rows([3], rng.normal(size=(1, 8)))
        assert not np.shares_memory(index.matrix, frozen)
        assert index.matrix.flags.writeable
        assert np.array_equal(frozen, matrix)  # original untouched

    def test_remove_does_not_copy(self, rng):
        matrix = rng.normal(size=(30, 8))
        matrix.setflags(write=False)
        index = FlatIndex(matrix)
        index.remove([1, 2])
        assert np.shares_memory(index.matrix, matrix)

    def test_ivf_accepts_read_only_matrix(self, rng):
        matrix = rng.normal(size=(60, 8))
        matrix.setflags(write=False)
        index = IVFIndex(matrix, n_cells=4, nprobe=4, seed=1)
        indices, _ = index.query(rng.normal(size=8), 5)
        assert indices.shape == (5,)
        index.update_rows([3], rng.normal(size=(1, 8)))  # copies, no raise
        assert not np.shares_memory(index.matrix, matrix)


class TestFlatIndex:
    def test_single_query_matches_loop_reference(self, rng):
        matrix = rng.normal(size=(60, 16))
        query = rng.normal(size=16)
        index = FlatIndex(matrix)
        indices, scores = index.query(query, 8)
        reference = loop_cosine_scores(matrix, query)
        assert np.array_equal(indices, np.argsort(-reference)[:8])
        assert np.allclose(scores, reference[indices])

    def test_batch_matches_single(self, rng):
        matrix = rng.normal(size=(40, 8))
        queries = rng.normal(size=(6, 8))
        index = FlatIndex(matrix)
        batch_indices, batch_scores = index.query_batch(queries, 5)
        for row in range(6):
            indices, scores = index.query(queries[row], 5)
            assert np.array_equal(batch_indices[row], indices)
            assert np.allclose(batch_scores[row], scores)

    def test_dot_metric(self, rng):
        matrix = rng.normal(size=(30, 4))
        query = rng.normal(size=4)
        indices, scores = FlatIndex(matrix, metric="dot").query(query, 3)
        reference = matrix @ query
        assert np.array_equal(indices, np.argsort(-reference)[:3])
        assert np.allclose(scores, reference[indices])

    def test_zero_rows_score_zero(self, rng):
        matrix = rng.normal(size=(5, 3))
        matrix[2] = 0.0
        _, scores = FlatIndex(matrix).query(rng.normal(size=3), 5)
        assert 0.0 in np.round(scores, 12)

    def test_empty_index(self):
        index = FlatIndex(np.zeros((0, 4)))
        indices, scores = index.query(np.ones(4), 3)
        assert indices.shape == (0,) and scores.shape == (0,)

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ServingError):
            FlatIndex(rng.normal(size=(4, 4)), metric="euclidean")
        with pytest.raises(ServingError):
            FlatIndex(rng.normal(size=4))
        index = FlatIndex(rng.normal(size=(4, 4)))
        with pytest.raises(ServingError):
            index.query(rng.normal(size=3), 2)
        with pytest.raises(ServingError):
            index.query_batch(rng.normal(size=(2, 5)), 2)


class TestIVFIndex:
    def test_exhaustive_probe_equals_flat(self, rng):
        matrix = rng.normal(size=(300, 12))
        queries = rng.normal(size=(9, 12))
        flat_indices, flat_scores = FlatIndex(matrix).query_batch(queries, 10)
        ivf = IVFIndex(matrix, n_cells=12, nprobe=12, seed=3)
        ivf_indices, ivf_scores = ivf.query_batch(queries, 10)
        assert np.array_equal(flat_indices, ivf_indices)
        assert np.allclose(flat_scores, ivf_scores)

    def test_partial_probe_has_reasonable_recall(self, rng):
        matrix = rng.normal(size=(600, 16))
        queries = matrix[rng.choice(600, size=20, replace=False)] + 0.01
        flat_indices, _ = FlatIndex(matrix).query_batch(queries, 10)
        ivf = IVFIndex(matrix, n_cells=24, nprobe=8, seed=0)
        ivf_indices, _ = ivf.query_batch(queries, 10)
        overlap = np.mean([
            len(set(a.tolist()) & set(b.tolist())) / 10
            for a, b in zip(flat_indices, ivf_indices)
        ])
        assert overlap >= 0.8

    def test_every_row_lives_in_exactly_one_cell(self, rng):
        matrix = rng.normal(size=(100, 6))
        ivf = IVFIndex(matrix, n_cells=7, seed=1)
        assert sum(ivf.cell_sizes()) == 100
        seen = np.concatenate([ids for ids in ivf._cell_ids])
        assert np.array_equal(np.sort(seen), np.arange(100))

    def test_padding_when_probed_cells_are_small(self, rng):
        matrix = rng.normal(size=(12, 4))
        ivf = IVFIndex(matrix, n_cells=6, nprobe=1, seed=0)
        indices, scores = ivf.query(rng.normal(size=4), 12)
        valid = indices >= 0
        assert valid.sum() < 12  # one probed cell cannot hold all rows
        assert np.all(np.isinf(scores[~valid]))

    def test_rejects_bad_configuration(self, rng):
        with pytest.raises(ServingError):
            IVFIndex(np.zeros((0, 3)))
        with pytest.raises(ServingError):
            IVFIndex(rng.normal(size=(5, 3)), nprobe=0)
        with pytest.raises(ServingError):
            IVFIndex(rng.normal(size=(5, 3)), n_cells=0)

    def test_cells_capped_at_rows(self, rng):
        ivf = IVFIndex(rng.normal(size=(4, 3)), n_cells=100, nprobe=100, seed=0)
        assert ivf.n_cells == 4
        indices, _ = ivf.query(rng.normal(size=3), 4)
        assert set(indices.tolist()) == {0, 1, 2, 3}


class TestBatchWidthTies:
    """Copies of one vector rank by id whatever the batch width.

    BLAS rounds a row's score differently depending on where the row sits
    in the call and how many queries share it: a single-query product
    scores rows 361 and 364 of this matrix (one vector, twice) an ulp
    apart, while an 8-query product ties them.
    """

    @pytest.fixture()
    def duplicated(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(365, 16))
        matrix[364] = matrix[361]
        queries = np.vstack((matrix[361], rng.normal(size=(7, 16))))
        return matrix, queries

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("kind", ["flat", "ivf", "nsw"])
    def test_single_and_batched_answers_agree(self, duplicated, kind, k):
        from repro.serving.nsw import NSWIndex

        matrix, queries = duplicated
        if kind == "flat":
            index = FlatIndex(matrix)
        elif kind == "ivf":
            index = IVFIndex(matrix, n_cells=8, nprobe=8)
        else:
            index = NSWIndex(matrix, max_degree=8, ef_search=len(matrix))
        batch_ids, batch_scores = index.query_batch(queries, k)
        slack = 2 * matrix.shape[1] * np.finfo(np.float64).eps
        for row, query in enumerate(queries):
            ids, scores = index.query_batch(query[None, :], k)
            assert np.array_equal(ids[0], batch_ids[row])
            assert np.allclose(scores[0], batch_scores[row], rtol=0, atol=slack)
            assert np.all(np.diff(scores[0]) <= 0)
        assert list(batch_ids[0, :2]) == [361, 364][:k]
        if k > 1:
            for scores in (index.query_batch(queries[:1], k)[1][0], batch_scores[0]):
                assert scores[0] == scores[1]
