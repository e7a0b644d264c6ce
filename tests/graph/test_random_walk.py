"""Tests for random-walk corpus generation."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.graph.property_graph import PropertyGraph
from repro.graph.random_walk import PAD, RandomWalkGenerator, WalkCorpus


@pytest.fixture()
def line_graph():
    graph = PropertyGraph()
    for i in range(5):
        graph.add_node(f"n{i}", "text_value")
    for i in range(4):
        graph.add_edge(f"n{i}", f"n{i + 1}", "link")
    graph.add_node("isolated", "text_value")
    return graph


class TestRandomWalkGenerator:
    def test_parameter_validation(self, line_graph):
        with pytest.raises(ReproError):
            RandomWalkGenerator(line_graph, walk_length=0)
        with pytest.raises(ReproError):
            RandomWalkGenerator(line_graph, walks_per_node=0)

    def test_walk_from_unknown_node(self, line_graph):
        generator = RandomWalkGenerator(line_graph)
        with pytest.raises(ReproError):
            generator.walk_from("missing", np.random.default_rng(0))

    def test_walks_respect_length(self, line_graph):
        generator = RandomWalkGenerator(line_graph, walk_length=4, walks_per_node=2)
        for walk in generator.generate():
            assert 1 <= len(walk) <= 4

    def test_walk_steps_follow_edges(self, line_graph):
        generator = RandomWalkGenerator(line_graph, walk_length=6, walks_per_node=1)
        neighbors = {
            node_id: set(line_graph.neighbors(node_id)) for node_id in line_graph.nodes
        }
        for walk in generator.generate():
            for a, b in zip(walk, walk[1:]):
                assert b in neighbors[a]

    def test_isolated_node_walk_has_length_one(self, line_graph):
        generator = RandomWalkGenerator(line_graph, walk_length=5, walks_per_node=1)
        walk = generator.walk_from("isolated", np.random.default_rng(0))
        assert walk == ["isolated"]

    def test_corpus_size(self, line_graph):
        generator = RandomWalkGenerator(line_graph, walk_length=3, walks_per_node=4)
        corpus = list(generator.generate())
        assert len(corpus) == 4 * len(line_graph.nodes)

    def test_every_node_is_a_start(self, line_graph):
        generator = RandomWalkGenerator(line_graph, walk_length=2, walks_per_node=1)
        starts = {walk[0] for walk in generator.generate()}
        assert starts == set(line_graph.nodes)

    def test_determinism_by_seed(self, line_graph):
        first = list(RandomWalkGenerator(line_graph, seed=9).generate())
        second = list(RandomWalkGenerator(line_graph, seed=9).generate())
        assert first == second

    def test_different_seed_differs(self, line_graph):
        first = list(RandomWalkGenerator(line_graph, seed=1, walk_length=10).generate())
        second = list(RandomWalkGenerator(line_graph, seed=2, walk_length=10).generate())
        assert first != second


class TestWalkCorpus:
    def test_matrix_shape_and_padding(self, line_graph):
        generator = RandomWalkGenerator(line_graph, walk_length=5, walks_per_node=3)
        corpus = generator.walk_corpus()
        assert corpus.matrix.shape == (3 * len(line_graph.nodes), 5)
        assert corpus.n_walks == 3 * len(line_graph.nodes)
        assert corpus.walk_length == 5
        # the isolated node's walks are [start, PAD, PAD, PAD, PAD]
        isolated = corpus.node_ids.index("isolated")
        rows = np.flatnonzero(corpus.matrix[:, 0] == isolated)
        assert rows.size == 3
        assert np.all(corpus.matrix[rows, 1:] == PAD)

    def test_padding_only_after_walk_end(self, line_graph):
        corpus = RandomWalkGenerator(line_graph, walk_length=6).walk_corpus()
        valid = corpus.matrix != PAD
        # once a walk hits PAD it stays PAD: valid mask is a prefix per row
        assert np.array_equal(valid, np.cumsum(~valid, axis=1) == 0)
        np.testing.assert_array_equal(corpus.lengths(), valid.sum(axis=1))

    def test_matrix_matches_generate_stream(self, line_graph):
        generator = RandomWalkGenerator(line_graph, seed=3, walk_length=4)
        corpus = generator.walk_corpus()
        streamed = list(RandomWalkGenerator(line_graph, seed=3, walk_length=4).generate())
        assert list(corpus.sentences()) == streamed

    def test_matrix_reproducible_per_seed(self, line_graph):
        first = RandomWalkGenerator(line_graph, seed=6).walk_corpus()
        second = RandomWalkGenerator(line_graph, seed=6).walk_corpus()
        np.testing.assert_array_equal(first.matrix, second.matrix)
        assert first.node_ids == second.node_ids

    def test_steps_follow_csr_edges(self, line_graph):
        corpus = RandomWalkGenerator(line_graph, walk_length=6).walk_corpus()
        neighbors = {
            node_id: set(line_graph.neighbors(node_id))
            for node_id in line_graph.nodes
        }
        for sentence in corpus.sentences():
            for a, b in zip(sentence, sentence[1:]):
                assert b in neighbors[a]

    def test_token_counts_match_matrix(self, line_graph):
        corpus = RandomWalkGenerator(line_graph, walks_per_node=2).walk_corpus()
        counts = corpus.token_counts()
        assert counts.sum() == corpus.lengths().sum()
        assert counts.size == len(corpus.node_ids)

    def test_transitions_are_degree_uniform(self):
        """From a hub, every neighbour is chosen uniformly (chi-square)."""
        graph = PropertyGraph()
        graph.add_node("hub", "text_value")
        leaves = [f"leaf{i}" for i in range(5)]
        for leaf in leaves:
            graph.add_node(leaf, "text_value")
            graph.add_edge("hub", leaf, "link")
        generator = RandomWalkGenerator(
            graph, walk_length=20, walks_per_node=400, seed=0
        )
        corpus = generator.walk_corpus()
        hub = corpus.node_ids.index("hub")
        matrix = corpus.matrix
        # successors of every hub occurrence that has a successor
        from_hub = (matrix[:, :-1] == hub) & (matrix[:, 1:] != PAD)
        successors = matrix[:, 1:][from_hub]
        observed = np.bincount(successors, minlength=len(corpus.node_ids))
        observed = np.delete(observed, hub)
        expected = observed.sum() / len(leaves)
        chi_square = float(((observed - expected) ** 2 / expected).sum())
        # dof = 4: 5-sigma bound ≈ 4 + 5 * sqrt(8)
        assert chi_square < 4 + 5 * np.sqrt(8)

    def test_walk_corpus_dataclass_accessors(self):
        corpus = WalkCorpus(
            matrix=np.array([[0, 1, PAD]], dtype=np.int64), node_ids=("a", "b")
        )
        assert corpus.n_nodes == 2
        assert list(corpus.sentences()) == [["a", "b"]]
        np.testing.assert_array_equal(corpus.lengths(), [2])
