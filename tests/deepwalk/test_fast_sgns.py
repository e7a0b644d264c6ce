"""Tests for the vectorised SGNS fast path and the naive-trainer fixes."""

import numpy as np
import pytest

from repro.deepwalk.skipgram import SkipGramConfig, SkipGramModel
from repro.errors import TrainingError
from repro.graph.random_walk import PAD, WalkCorpus


def two_cluster_corpus(n_sentences: int = 120) -> list[list[str]]:
    """Sentences drawn from two disjoint token communities."""
    rng = np.random.default_rng(0)
    cluster_a = [f"a{i}" for i in range(5)]
    cluster_b = [f"b{i}" for i in range(5)]
    corpus = []
    for s in range(n_sentences):
        cluster = cluster_a if s % 2 == 0 else cluster_b
        corpus.append([cluster[int(rng.integers(0, 5))] for _ in range(10)])
    return corpus


class TestDuplicateTargetGradient:
    """Satellite regression: repeated tokens in one update must accumulate."""

    def test_repeated_context_token_accumulates_both_updates(self):
        model = SkipGramModel(
            [["a", "b", "c"]], SkipGramConfig(dimension=4, epochs=1, seed=0)
        )
        b = model.vocabulary.index("b")
        c = model.vocabulary.index("c")
        # give the output vectors mass so the gradient is non-trivial
        model._output_vectors[:] = np.arange(12, dtype=np.float64).reshape(3, 4)
        before_output = model._output_vectors.copy()
        center = model.vocabulary.index("a")
        center_vector = model._input_vectors[center].copy()
        context = np.array([b, b], dtype=np.int64)  # token b appears twice
        negatives = np.array([[c], [c]], dtype=np.int64)  # and c twice as noise
        learning_rate = 0.1

        model._train_pairs(center, context, learning_rate, negatives=negatives)

        def sigmoid(x):
            return 1.0 / (1.0 + np.exp(-x))

        # expected: each of b's two positive rows contributes its own
        # gradient; same for c's two negative rows
        g_pos = (sigmoid(before_output[b] @ center_vector) - 1.0) * learning_rate
        g_neg = sigmoid(before_output[c] @ center_vector) * learning_rate
        np.testing.assert_allclose(
            model._output_vectors[b], before_output[b] - 2 * g_pos * center_vector
        )
        np.testing.assert_allclose(
            model._output_vectors[c], before_output[c] - 2 * g_neg * center_vector
        )

    def test_duplicate_update_is_twice_the_single_update(self):
        """[b, b] in one call moves b exactly twice as far as [b] alone.

        Both duplicate rows read the same pre-update vectors, so their
        gradients are identical; with accumulation the total displacement
        is exactly double — under the old fancy-index assignment it was
        the single displacement.
        """

        def fresh():
            model = SkipGramModel(
                [["a", "b", "c"]], SkipGramConfig(dimension=4, epochs=1, seed=3)
            )
            model._output_vectors[:] = 0.25
            return model

        one_call = fresh()
        b = one_call.vocabulary.index("b")
        c = one_call.vocabulary.index("c")
        center = one_call.vocabulary.index("a")
        one_call._train_pairs(
            center, np.array([b, b]), 0.05, negatives=np.array([[c], [c]])
        )
        single = fresh()
        single._train_pairs(center, np.array([b]), 0.05, negatives=np.array([[c]]))
        moved_once = np.abs(single._output_vectors[b] - 0.25).sum()
        moved_twice = np.abs(one_call._output_vectors[b] - 0.25).sum()
        assert moved_once > 0
        assert moved_twice == pytest.approx(2 * moved_once, rel=1e-9)


class TestFastTrainerQuality:
    def test_loss_trend_matches_naive_trainer(self):
        """Both trainers minimise the same objective on the same corpus."""
        corpus = two_cluster_corpus()
        config = SkipGramConfig(dimension=16, epochs=4, window=3, seed=1)
        fast = SkipGramModel(corpus, config).train()
        naive = SkipGramModel(corpus, config).train_naive()
        assert len(fast.loss_history) == len(naive.loss_history) == 4
        # both descend
        assert fast.loss_history[-1] < fast.loss_history[0]
        assert naive.loss_history[-1] < naive.loss_history[0]
        # and land in the same regime
        assert fast.loss_history[-1] == pytest.approx(
            naive.loss_history[-1], rel=0.35
        )

    def test_fast_trainer_separates_communities(self):
        corpus = two_cluster_corpus()
        model = SkipGramModel(
            corpus, SkipGramConfig(dimension=16, epochs=3, window=3, seed=1)
        ).train()

        def cos(x, y):
            return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y) + 1e-12))

        within = cos(model.vector("a0"), model.vector("a1"))
        between = cos(model.vector("a0"), model.vector("b0"))
        assert within > between

    def test_training_is_deterministic_per_seed(self):
        corpus = two_cluster_corpus(40)
        config = SkipGramConfig(dimension=8, epochs=2, seed=5)
        first = SkipGramModel(corpus, config).train().matrix()
        second = SkipGramModel(corpus, config).train().matrix()
        np.testing.assert_array_equal(first, second)

    def test_batch_size_capped_by_vocabulary(self):
        model = SkipGramModel(
            [["a", "b", "c"]], SkipGramConfig(dimension=4, batch_size=4096)
        )
        assert model._effective_batch_size() == 8  # floor, 2*3 < 8
        big = SkipGramModel(
            [[f"t{i}" for i in range(600)]],
            SkipGramConfig(dimension=4, batch_size=1024),
        )
        assert big._effective_batch_size() == 1024

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(TrainingError):
            SkipGramConfig(batch_size=0)


class TestIntegerCorpusPath:
    def _corpus(self) -> WalkCorpus:
        matrix = np.array(
            [
                [0, 1, 2, PAD],
                [2, 1, 0, 1],
                [3, PAD, PAD, PAD],
            ],
            dtype=np.int64,
        )
        return WalkCorpus(matrix=matrix, node_ids=("n0", "n1", "n2", "n3"))

    def test_from_corpus_builds_vocabulary_in_node_order(self):
        model = SkipGramModel.from_corpus(self._corpus(), SkipGramConfig(dimension=4))
        assert model.vocabulary == ["n0", "n1", "n2", "n3"]
        assert "n3" in model
        assert model.matrix().shape == (4, 4)

    def test_from_corpus_counts_ignore_padding(self):
        model = SkipGramModel.from_corpus(self._corpus(), SkipGramConfig(dimension=4))
        np.testing.assert_array_equal(model._counts, [2.0, 3.0, 2.0, 1.0])

    def test_from_corpus_matches_string_path_quality(self):
        """Integer and string construction train on identical pair sets."""
        corpus = two_cluster_corpus(60)
        config = SkipGramConfig(dimension=8, epochs=2, seed=2)
        string_model = SkipGramModel(corpus, config).train()
        vocab = string_model.vocabulary
        index = {token: i for i, token in enumerate(vocab)}
        length = max(len(s) for s in corpus)
        matrix = np.full((len(corpus), length), PAD, dtype=np.int64)
        for row, sentence in enumerate(corpus):
            matrix[row, : len(sentence)] = [index[t] for t in sentence]
        int_model = SkipGramModel.from_corpus(
            WalkCorpus(matrix=matrix, node_ids=tuple(vocab)), config
        ).train()
        np.testing.assert_allclose(string_model.matrix(), int_model.matrix())

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError):
            SkipGramModel.from_corpus(
                WalkCorpus(matrix=np.empty((0, 4), dtype=np.int64), node_ids=())
            )


class TestBatchedAccumulation:
    """The minibatched trainer sums every pair's update of a shared row."""

    def test_one_batch_matches_a_per_pair_loop(self, monkeypatch):
        model = SkipGramModel(
            [[f"t{i}" for i in range(6)]],
            SkipGramConfig(dimension=5, negative_samples=2, seed=4),
        )
        rng = np.random.default_rng(9)
        model._output_vectors[:] = rng.normal(scale=0.3, size=(6, 5))
        # center 0 in three pairs, context 3 in three pairs, noise token 4
        # in three pairs (twice in the first), 3 both context and noise
        centers = np.array([0, 0, 1, 2, 0], dtype=np.int64)
        contexts = np.array([3, 3, 4, 3, 5], dtype=np.int64)
        negatives = np.array(
            [[4, 4], [5, 1], [3, 4], [4, 0], [2, 2]], dtype=np.int64
        )

        def pinned(_rng, size):
            assert size == negatives.shape
            return negatives

        monkeypatch.setattr(model._noise_alias, "sample", pinned)
        input_before = model._input_vectors.copy()
        output_before = model._output_vectors.copy()
        learning_rate = 0.05
        expected_input = input_before.copy()
        expected_output = output_before.copy()
        expected_loss = 0.0
        for center, context, noise in zip(centers, contexts, negatives):
            labelled = [(context, 1.0)] + [(token, 0.0) for token in noise]
            for target, label in labelled:
                score = 1.0 / (
                    1.0 + np.exp(-(input_before[center] @ output_before[target]))
                )
                expected_loss -= np.log(
                    (score if label else 1.0 - score) + 1e-10
                )
                step = learning_rate * (label - score)
                expected_output[target] += step * input_before[center]
                expected_input[center] += step * output_before[target]

        loss = model._train_batch(centers, contexts, learning_rate)

        np.testing.assert_allclose(
            model._output_vectors, expected_output, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            model._input_vectors, expected_input, rtol=0, atol=1e-12
        )
        assert loss == pytest.approx(expected_loss, rel=1e-12)

    def test_from_corpus_training_matches_recorded_vectors(self):
        """Pins the trainer's output at a fixed seed: a change to how the
        updates are applied may reorder sums, never move the vectors."""
        rows = np.arange(30)[:, None]
        steps = np.arange(8)[None, :]
        matrix = (rows * 7 + steps * steps * 3 + rows * steps) % 12
        matrix[steps >= 8 - rows % 3] = PAD
        corpus = WalkCorpus(
            matrix=matrix.astype(np.int64),
            node_ids=tuple(f"n{i}" for i in range(12)),
        )
        model = SkipGramModel.from_corpus(
            corpus,
            SkipGramConfig(
                dimension=6, window=3, negative_samples=3, epochs=2,
                batch_size=16, seed=7,
            ),
        ).train()
        vectors = model.matrix()
        recorded = {
            0: [0.01159024971582727, 0.09536913355257236, 0.06190405469793752,
                -0.0901928378478427, -0.030582956985985264, 0.03149461242996127],
            11: [-0.03157056901902771, -0.013004103328439468, 0.1006292275934825,
                 -0.11858225062087015, 0.03252546990489127, -0.09084547063635234],
        }
        for row, values in recorded.items():
            np.testing.assert_allclose(vectors[row], values, rtol=0, atol=1e-12)
        assert abs(np.linalg.norm(vectors) - 0.5975942771812114) <= 1e-12
        assert abs(np.linalg.norm(model._output_vectors) - 0.44992987410453994) <= 1e-12
        assert model.loss_history == pytest.approx(
            [2.7693484185016857, 2.753625534881344], rel=1e-12
        )
