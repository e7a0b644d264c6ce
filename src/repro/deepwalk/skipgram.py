"""Skip-Gram with negative sampling (SGNS), implemented with numpy.

This is the word2vec variant DeepWalk trains on random-walk "sentences".
Two trainers share the same model state:

* :meth:`SkipGramModel.train` — the fast path.  Negative samples come from
  a precomputed :class:`~repro.deepwalk.alias.AliasTable` over the
  unigram^0.75 distribution (O(1) per draw instead of an O(vocab)
  cumulative-distribution rebuild), and updates are applied per minibatch
  of (center, context) pairs: one gather, one batched sigmoid, one sparse
  product that sums the output-vector updates and one ``np.add.at``
  scatter of the center updates per batch, with a linearly decayed
  learning rate computed per batch.
* :meth:`SkipGramModel.train_naive` — the original per-position reference
  trainer (one ``rng.choice(p=noise)`` per position).  Kept for regression
  tests and the perf harness' before/after speedup measurement.

Both paths record an average per-pair loss per epoch in ``loss_history``,
so their optimisation trajectories are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.deepwalk.alias import shared_alias_table
from repro.errors import TrainingError
from repro.graph.random_walk import PAD, WalkCorpus

_LOG_EPSILON = 1e-10


@dataclass(frozen=True)
class SkipGramConfig:
    """Hyperparameters for SGNS training."""

    dimension: int = 64
    window: int = 5
    negative_samples: int = 5
    epochs: int = 2
    learning_rate: float = 0.025
    min_learning_rate: float = 0.0001
    batch_size: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise TrainingError("dimension must be positive")
        if self.window <= 0:
            raise TrainingError("window must be positive")
        if self.negative_samples <= 0:
            raise TrainingError("negative_samples must be positive")
        if self.epochs <= 0:
            raise TrainingError("epochs must be positive")
        if self.batch_size <= 0:
            raise TrainingError("batch_size must be positive")


class SkipGramModel:
    """Skip-Gram with negative sampling over sentences of tokens.

    Construct from string sentences (the legacy text path) or via
    :meth:`from_corpus` from a :class:`~repro.graph.random_walk.WalkCorpus`
    integer matrix — the DeepWalk fast path, which never materialises
    per-node string lists.
    """

    def __init__(self, sentences: list[list[str]], config: SkipGramConfig | None = None):
        if not sentences:
            raise TrainingError("cannot train skip-gram on an empty corpus")
        config = config or SkipGramConfig()
        vocab: dict[str, int] = {}
        counts: dict[str, int] = {}
        for sentence in sentences:
            for token in sentence:
                counts[token] = counts.get(token, 0) + 1
        for token in counts:
            vocab[token] = len(vocab)
        if not vocab:
            raise TrainingError("corpus contains no tokens")
        lengths = [len(s) for s in sentences if s]
        walks = np.full((len(lengths), max(lengths)), PAD, dtype=np.int64)
        row = 0
        for sentence in sentences:
            if not sentence:
                continue
            walks[row, : len(sentence)] = [vocab[token] for token in sentence]
            row += 1
        count_array = np.array([counts[token] for token in vocab], dtype=np.float64)
        self._init_state(vocab, count_array, walks, config)

    @classmethod
    def from_corpus(
        cls, corpus: WalkCorpus, config: SkipGramConfig | None = None
    ) -> "SkipGramModel":
        """A model over a batched integer walk corpus (no string round-trip)."""
        if corpus.n_walks == 0 or corpus.n_nodes == 0:
            raise TrainingError("cannot train skip-gram on an empty corpus")
        model = cls.__new__(cls)
        vocab = {node_id: i for i, node_id in enumerate(corpus.node_ids)}
        counts = corpus.token_counts().astype(np.float64)
        if counts.sum() <= 0:
            raise TrainingError("corpus contains no tokens")
        model._init_state(vocab, counts, corpus.matrix, config or SkipGramConfig())
        return model

    def _init_state(
        self,
        vocab: dict[str, int],
        counts: np.ndarray,
        walks: np.ndarray,
        config: SkipGramConfig,
    ) -> None:
        self.config = config
        self._vocab = vocab
        self._counts = counts
        self._walks = walks
        rng = np.random.default_rng(config.seed)
        scale = 0.5 / config.dimension
        vocab_size = len(vocab)
        self._input_vectors = rng.uniform(
            -scale, scale, (vocab_size, config.dimension)
        )
        self._output_vectors = np.zeros((vocab_size, config.dimension))
        noise = self._counts**0.75
        self._noise_distribution = noise / noise.sum()
        # shared across epochs by construction, and across models trained
        # on the same corpus (grid-search points) through the cache
        self._noise_alias = shared_alias_table(noise)
        self._rng = rng
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def vocabulary(self) -> list[str]:
        """Tokens in internal index order."""
        return list(self._vocab)

    def __contains__(self, token: str) -> bool:
        return token in self._vocab

    def vector(self, token: str) -> np.ndarray:
        """The learned input vector for ``token``."""
        if token not in self._vocab:
            raise TrainingError(f"token {token!r} is not in the vocabulary")
        return self._input_vectors[self._vocab[token]].copy()

    def matrix(self) -> np.ndarray:
        """All learned input vectors stacked by vocabulary order."""
        return self._input_vectors.copy()

    # ------------------------------------------------------------------ #
    # fast path: batched pair generation + minibatched updates
    # ------------------------------------------------------------------ #
    @staticmethod
    def _sigmoid(x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))

    def _epoch_pairs(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (center, context) pairs of one epoch, dynamic-window sampled.

        Every position draws its window ``b ~ U[1, window]`` once; position
        ``t`` pairs with ``t ± delta`` exactly when ``b_t >= delta`` — the
        word2vec dynamic-window scheme, evaluated with whole-matrix masks
        per offset instead of per-position Python slicing.
        """
        walks = self._walks
        valid = walks != PAD
        draws = rng.integers(1, self.config.window + 1, size=walks.shape)
        centers: list[np.ndarray] = []
        contexts: list[np.ndarray] = []
        for delta in range(1, self.config.window + 1):
            if delta >= walks.shape[1]:
                break
            left, right = walks[:, :-delta], walks[:, delta:]
            pair_ok = valid[:, :-delta] & valid[:, delta:]
            forward = pair_ok & (draws[:, :-delta] >= delta)
            centers.append(left[forward])
            contexts.append(right[forward])
            backward = pair_ok & (draws[:, delta:] >= delta)
            centers.append(right[backward])
            contexts.append(left[backward])
        if not centers:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(centers), np.concatenate(contexts)

    def _train_batch(
        self, centers: np.ndarray, contexts: np.ndarray, learning_rate: float
    ) -> float:
        """One minibatched SGNS update; returns the batch's summed loss."""
        k = self.config.negative_samples
        negatives = self._noise_alias.sample(self._rng, (centers.size, k))
        targets = np.concatenate((contexts[:, None], negatives), axis=1)
        center_vectors = self._input_vectors[centers]
        target_vectors = self._output_vectors[targets]
        scores = self._sigmoid(
            np.einsum("bd,bkd->bk", center_vectors, target_vectors)
        )
        loss = -(
            np.log(scores[:, 0] + _LOG_EPSILON).sum()
            + np.log(1.0 - scores[:, 1:] + _LOG_EPSILON).sum()
        )
        step = scores * -learning_rate  # lr * (label - sigma)
        step[:, 0] += learning_rate  # labels: 1 for context, 0 for noise
        center_step = np.einsum("bk,bkd->bd", step, target_vectors)
        # one sparse (vocab x batch) product sums every pair's output update
        self._output_vectors += sparse.csr_matrix(
            (step.ravel(), (targets.ravel(), np.arange(centers.size).repeat(k + 1))),
            shape=(len(self._vocab), centers.size),
        ) @ center_vectors
        dimension = self.config.dimension
        # scatter-accumulate through flattened element indices: numpy's 1-D
        # indexed add loop is several times faster than row-wise ufunc.at
        np.add.at(
            self._input_vectors.ravel(),
            (centers[:, None] * dimension + np.arange(dimension)).ravel(),
            center_step.ravel(),
        )
        return float(loss)

    def _effective_batch_size(self) -> int:
        """The minibatch size actually used by :meth:`train`.

        Within one batch every pair's gradient is computed from the same
        (stale) parameters.  On a vocabulary much smaller than the batch
        each token would receive hundreds of stale updates at once and the
        optimisation degrades, so the batch is capped at twice the
        vocabulary size — large graphs keep the configured batch, tiny
        graphs get near-sequential updates.
        """
        return max(8, min(self.config.batch_size, 2 * len(self._vocab)))

    def train(self) -> "SkipGramModel":
        """Run minibatched SGNS training over the corpus and return ``self``."""
        config = self.config
        batch_size = self._effective_batch_size()
        for epoch in range(config.epochs):
            centers, contexts = self._epoch_pairs(self._rng)
            n_pairs = centers.size
            if n_pairs == 0:
                self.loss_history.append(0.0)
                continue
            order = self._rng.permutation(n_pairs)
            centers, contexts = centers[order], contexts[order]
            epoch_loss = 0.0
            for start in range(0, n_pairs, batch_size):
                progress = (epoch + start / n_pairs) / config.epochs
                learning_rate = max(
                    config.min_learning_rate,
                    config.learning_rate * (1.0 - progress),
                )
                stop = min(start + batch_size, n_pairs)
                epoch_loss += self._train_batch(
                    centers[start:stop], contexts[start:stop], learning_rate
                )
            self.loss_history.append(epoch_loss / n_pairs)
        return self

    # ------------------------------------------------------------------ #
    # naive reference path (pre-batching trainer)
    # ------------------------------------------------------------------ #
    def train_naive(self) -> "SkipGramModel":
        """Per-position reference SGNS (the pre-fast-path trainer).

        One update per corpus position, negatives drawn through
        ``rng.choice(p=noise)`` — kept verbatim as the correctness and
        runtime baseline the fast path is measured against.
        """
        config = self.config
        lengths = (self._walks != PAD).sum(axis=1)
        total_steps = max(1, int(lengths.sum()) * config.epochs)
        step = 0
        for _ in range(config.epochs):
            epoch_loss = 0.0
            epoch_pairs = 0
            for row, length in zip(self._walks, lengths):
                sentence = row[:length]
                for position in range(length):
                    progress = step / total_steps
                    learning_rate = max(
                        config.min_learning_rate,
                        config.learning_rate * (1.0 - progress),
                    )
                    step += 1
                    center = int(sentence[position])
                    window = int(self._rng.integers(1, config.window + 1))
                    start = max(0, position - window)
                    stop = min(length, position + window + 1)
                    context = np.concatenate(
                        (sentence[start:position], sentence[position + 1:stop])
                    )
                    if context.size == 0:
                        continue
                    epoch_loss += self._train_pairs(center, context, learning_rate)
                    epoch_pairs += context.size
            self.loss_history.append(epoch_loss / max(1, epoch_pairs))
        return self

    def _train_pairs(
        self,
        center: int,
        context: np.ndarray,
        learning_rate: float,
        negatives: np.ndarray | None = None,
    ) -> float:
        """One per-position update; returns the position's summed loss.

        ``negatives`` overrides the noise draw (shape
        ``(context.size, negative_samples)``) so tests can pin the sampled
        tokens.
        """
        if negatives is None:
            negatives = self._rng.choice(
                len(self._vocab),
                size=(context.size, self.config.negative_samples),
                p=self._noise_distribution,
            )
        center_vector = self._input_vectors[center]
        # positive targets and negative targets share the same update form;
        # labels are 1 for the true context, 0 for the sampled noise tokens.
        targets = np.concatenate(
            (context[:, None], negatives), axis=1
        )  # (n_context, 1 + negatives)
        labels = np.zeros(targets.shape, dtype=np.float64)
        labels[:, 0] = 1.0
        flat_targets = targets.ravel()
        output = self._output_vectors[flat_targets]
        scores = self._sigmoid(output @ center_vector)
        flat_labels = labels.ravel()
        loss = -(
            np.log(np.where(flat_labels == 1.0, scores, 1.0 - scores) + _LOG_EPSILON)
        ).sum()
        gradient = (scores - flat_labels) * learning_rate
        center_update = gradient[:, None] * output
        # a token repeated in `targets` must accumulate every update —
        # fancy-index assignment would silently keep only one of them
        np.add.at(
            self._output_vectors, flat_targets, -(gradient[:, None] * center_vector)
        )
        self._input_vectors[center] = center_vector - center_update.sum(axis=0)
        return float(loss)
