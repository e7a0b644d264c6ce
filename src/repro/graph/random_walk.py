"""Uniform random-walk corpus generation for DeepWalk.

The generator packs the graph's adjacency into CSR arrays once and then
advances *all* walks of a round together, one vectorised ``rng`` draw per
walk depth: the hot loop is ``walk_length`` numpy operations instead of
``n_walks * walk_length`` Python steps.  Walks live in one integer matrix
(:class:`WalkCorpus`) that the Skip-Gram trainer consumes directly — node
ids are only materialised as strings for the streaming sentence API
(:meth:`RandomWalkGenerator.generate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ReproError
from repro.graph.property_graph import PropertyGraph

#: Matrix entry marking "this walk ended before reaching this depth".
PAD = -1


@dataclass(frozen=True)
class WalkCorpus:
    """All walks of one generation run, as a padded integer matrix.

    ``matrix`` has shape ``(n_walks, walk_length)``; row ``i`` holds the
    node indices (into ``node_ids``) visited by walk ``i``, padded with
    :data:`PAD` after the walk dies (a node without neighbours).
    """

    matrix: np.ndarray
    node_ids: tuple[str, ...]

    @property
    def n_walks(self) -> int:
        """Number of walks (matrix rows)."""
        return self.matrix.shape[0]

    @property
    def walk_length(self) -> int:
        """Maximum walk length (matrix columns)."""
        return self.matrix.shape[1]

    @property
    def n_nodes(self) -> int:
        """Number of distinct nodes addressable by the matrix."""
        return len(self.node_ids)

    def lengths(self) -> np.ndarray:
        """The actual (un-padded) length of every walk."""
        return (self.matrix != PAD).sum(axis=1)

    def token_counts(self) -> np.ndarray:
        """Occurrence count of every node index across all walks."""
        valid = self.matrix[self.matrix != PAD]
        return np.bincount(valid, minlength=self.n_nodes)

    def sentences(self) -> Iterator[list[str]]:
        """Yield each walk as a list of node-id strings (legacy format)."""
        for row in self.matrix:
            yield [self.node_ids[i] for i in row[row != PAD]]


class RandomWalkGenerator:
    """Generates truncated uniform random walks over a property graph.

    DeepWalk treats every walk as a "sentence" of node ids; the Skip-Gram
    model is then trained on these sentences exactly as it would be on text.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        walk_length: int = 20,
        walks_per_node: int = 10,
        seed: int = 0,
    ) -> None:
        if walk_length < 1:
            raise ReproError("walk_length must be at least 1")
        if walks_per_node < 1:
            raise ReproError("walks_per_node must be at least 1")
        self.graph = graph
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self.seed = seed
        self._node_ids = list(graph.nodes)
        self._node_index = {node_id: i for i, node_id in enumerate(self._node_ids)}
        # CSR-packed adjacency: neighbours of node i live in
        # indices[indptr[i]:indptr[i + 1]] (with multiplicity)
        neighbor_lists = [
            [self._node_index[n] for n in graph.neighbors(node_id)]
            for node_id in self._node_ids
        ]
        self._degrees = np.array([len(ns) for ns in neighbor_lists], dtype=np.int64)
        self._indptr = np.concatenate(
            ([0], np.cumsum(self._degrees))
        ).astype(np.int64)
        self._indices = (
            np.concatenate([np.asarray(ns, dtype=np.int64) for ns in neighbor_lists])
            if self._indptr[-1] > 0
            else np.empty(0, dtype=np.int64)
        )

    @property
    def node_ids(self) -> list[str]:
        """Node ids in the internal integer order used by the walks."""
        return list(self._node_ids)

    # ------------------------------------------------------------------ #
    # batched integer-matrix path (the fast path)
    # ------------------------------------------------------------------ #
    def _round_matrix(self, starts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Walks from every node in ``starts``, one vectorised step per depth."""
        n = starts.size
        walks = np.full((n, self.walk_length), PAD, dtype=np.int64)
        walks[:, 0] = starts
        current = starts.copy()
        # indices of walks that can still advance (current node has neighbours)
        active = np.flatnonzero(self._degrees[current] > 0)
        for depth in range(1, self.walk_length):
            if active.size == 0:
                break
            at = current[active]
            degrees = self._degrees[at]
            # uniform draw in [0, degree) per active walk, varying upper bound
            offsets = (rng.random(active.size) * degrees).astype(np.int64)
            nxt = self._indices[self._indptr[at] + offsets]
            walks[active, depth] = nxt
            current[active] = nxt
            active = active[self._degrees[nxt] > 0]
        return walks

    def walk_corpus(self) -> WalkCorpus:
        """All walks as one :class:`WalkCorpus` (deterministic per seed).

        Walk order matches :meth:`generate`: ``walks_per_node`` rounds, each
        visiting every node once in a freshly shuffled order.
        """
        rng = np.random.default_rng(self.seed)
        order = np.arange(len(self._node_ids))
        rounds = []
        for _ in range(self.walks_per_node):
            rng.shuffle(order)
            rounds.append(self._round_matrix(order.copy(), rng))
        return WalkCorpus(
            matrix=np.concatenate(rounds, axis=0),
            node_ids=tuple(self._node_ids),
        )

    def walk_matrix(self) -> np.ndarray:
        """The padded integer walk matrix alone (see :class:`WalkCorpus`)."""
        return self.walk_corpus().matrix

    # ------------------------------------------------------------------ #
    # legacy string-sentence API
    # ------------------------------------------------------------------ #
    def walk_from(self, start: str, rng: np.random.Generator) -> list[str]:
        """One random walk starting at node ``start``."""
        if start not in self._node_index:
            raise ReproError(f"unknown start node {start!r}")
        current = self._node_index[start]
        walk = [current]
        for _ in range(self.walk_length - 1):
            begin, end = self._indptr[current], self._indptr[current + 1]
            if begin == end:
                break
            current = int(self._indices[rng.integers(begin, end)])
            walk.append(current)
        return [self._node_ids[i] for i in walk]

    def generate(self) -> Iterator[list[str]]:
        """Yield ``walks_per_node`` walks per node, in shuffled node order.

        A true streaming iterator: walks are produced round by round through
        the batched kernel and yielded one at a time, so only one round
        (``n_nodes`` walks) is ever resident.  The walk sequence is
        identical to :meth:`walk_corpus` for the same seed.
        """
        rng = np.random.default_rng(self.seed)
        order = np.arange(len(self._node_ids))
        for _ in range(self.walks_per_node):
            rng.shuffle(order)
            round_matrix = self._round_matrix(order.copy(), rng)
            for row in round_matrix:
                yield [self._node_ids[i] for i in row[row != PAD]]
