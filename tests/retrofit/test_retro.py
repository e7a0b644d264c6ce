"""Tests for the RO and RN solvers: correctness against the naive reference,
convergence behaviour, loss decrease, incremental freezing.
"""

import numpy as np
import pytest

from repro.errors import ConvexityError, RetrofitError
from repro.retrofit.extraction import extract_text_values
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.initialization import initialise_vectors
from repro.retrofit.loss import category_centroids, relational_loss
from repro.retrofit.retro import RetroSolver


@pytest.fixture(scope="module")
def toy_problem(toy_dataset):
    extraction = extract_text_values(toy_dataset.database)
    base = initialise_vectors(extraction, toy_dataset.embedding)
    return extraction, base.matrix


@pytest.fixture(scope="module")
def tmdb_problem(tmdb_extraction, tmdb_base):
    return tmdb_extraction, tmdb_base.matrix


class TestConstruction:
    def test_shape_validation(self, toy_problem):
        extraction, base = toy_problem
        with pytest.raises(RetrofitError):
            RetroSolver(extraction, base[:2])
        with pytest.raises(RetrofitError):
            RetroSolver(extraction, base.ravel())

    def test_enforce_convexity(self, toy_problem):
        extraction, base = toy_problem
        params = RetroHyperparameters(alpha=0.001, delta=10.0)
        with pytest.raises(ConvexityError):
            RetroSolver(extraction, base, params, enforce_convexity=True)

    def test_unknown_method(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        with pytest.raises(RetrofitError):
            solver.solve(method="bogus")


class TestAgainstNaiveReference:
    @pytest.mark.parametrize("params", [
        RetroHyperparameters(alpha=1.0, beta=0.0, gamma=3.0, delta=3.0),
        RetroHyperparameters(alpha=1.0, beta=1.0, gamma=2.0, delta=0.0),
        RetroHyperparameters(alpha=2.0, beta=0.5, gamma=1.0, delta=1.0),
    ])
    def test_optimization_matches_naive(self, toy_problem, params):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base, params)
        matrix, report = solver.solve_optimization(iterations=6, tolerance=0.0)
        naive = solver.solve_optimization_naive(iterations=report.iterations)
        assert np.allclose(matrix, naive, atol=1e-8)

    @pytest.mark.parametrize("params", [
        RetroHyperparameters(alpha=1.0, beta=0.0, gamma=3.0, delta=1.0),
        RetroHyperparameters(alpha=1.0, beta=1.0, gamma=2.0, delta=0.0),
    ])
    def test_series_matches_naive(self, toy_problem, params):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base, params)
        matrix, report = solver.solve_series(iterations=6, tolerance=0.0)
        naive = solver.solve_series_naive(iterations=report.iterations)
        assert np.allclose(matrix, naive, atol=1e-8)


class TestOptimizationSolver:
    def test_loss_decreases_for_convex_configuration(self, toy_problem):
        extraction, base = toy_problem
        params = RetroHyperparameters(alpha=2.0, beta=1.0, gamma=2.0, delta=0.0)
        solver = RetroSolver(extraction, base, params)
        assert solver.is_convex
        _, report = solver.solve_optimization(iterations=15, track_loss=True)
        losses = report.loss_history
        assert losses[-1] <= losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_alpha_only_returns_base(self, toy_problem):
        extraction, base = toy_problem
        params = RetroHyperparameters(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0)
        solver = RetroSolver(extraction, base, params)
        matrix, _ = solver.solve_optimization(iterations=5)
        assert np.allclose(matrix, base)

    def test_gamma_pulls_related_values_together(self, toy_problem):
        extraction, base = toy_problem
        amelie = extraction.index_of("movies.title", "amelie")
        france = extraction.index_of("countries.name", "france")
        before = np.linalg.norm(base[amelie] - base[france])
        solver = RetroSolver(
            extraction, base,
            RetroHyperparameters(alpha=1.0, beta=0.0, gamma=3.0, delta=0.5),
        )
        matrix, _ = solver.solve_optimization(iterations=20)
        after = np.linalg.norm(matrix[amelie] - matrix[france])
        assert after < before

    def test_result_is_finite(self, tmdb_problem):
        extraction, base = tmdb_problem
        solver = RetroSolver(
            extraction, base, RetroHyperparameters.paper_ro_default()
        )
        matrix, _ = solver.solve_optimization(iterations=10)
        assert np.all(np.isfinite(matrix))

    def test_report_fields(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        matrix, report = solver.solve_optimization(iterations=5)
        assert report.method == "RO"
        assert report.iterations <= 5
        assert report.runtime_seconds >= 0.0
        assert len(report.shift_history) == report.iterations
        assert matrix.shape == base.shape


class TestSeriesSolver:
    def test_rows_are_unit_length(self, tmdb_problem):
        extraction, base = tmdb_problem
        solver = RetroSolver(
            extraction, base, RetroHyperparameters.paper_rn_default()
        )
        matrix, _ = solver.solve_series(iterations=10)
        norms = np.linalg.norm(matrix, axis=1)
        non_zero = norms > 1e-9
        assert np.allclose(norms[non_zero], 1.0)

    def test_oov_rows_receive_meaningful_vectors(self, tmdb_problem, tmdb_base):
        extraction, base = tmdb_problem
        solver = RetroSolver(
            extraction, base, RetroHyperparameters.paper_rn_default()
        )
        matrix, _ = solver.solve_series(iterations=10)
        oov_norms = np.linalg.norm(matrix[tmdb_base.oov_mask], axis=1)
        # most OOV values participate in relations and must move off zero
        # (a few OOV values are only related to other OOV values and can
        # legitimately stay at the origin)
        assert np.mean(oov_norms > 1e-6) > 0.75

    def test_series_converges_quickly_on_toy(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        _, report = solver.solve_series(iterations=50, tolerance=1e-8)
        assert report.converged
        assert report.iterations < 50

    def test_stability_for_large_delta(self, toy_problem):
        extraction, base = toy_problem
        params = RetroHyperparameters(alpha=1.0, beta=0.0, gamma=1.0, delta=8.0)
        solver = RetroSolver(extraction, base, params)
        matrix, _ = solver.solve_series(iterations=20)
        assert np.all(np.isfinite(matrix))

    def test_report_fields(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        _, report = solver.solve_series(iterations=5)
        assert report.method == "RN"


class TestNoRelationsProblem:
    def test_solver_without_relations_uses_alpha_and_beta_only(self):
        from repro.db.database import Database, build_table_schema
        from repro.db.types import ColumnType
        from repro.text.embedding import WordEmbedding

        db = Database()
        db.create_table(build_table_schema(
            "words", [("id", ColumnType.INTEGER), ("w", ColumnType.TEXT)],
            primary_key="id"))
        for i, word in enumerate(["alpha", "beta", "gamma"], start=1):
            db.insert("words", {"id": i, "w": word})
        embedding = WordEmbedding.from_dict({
            "alpha": np.array([1.0, 0.0]),
            "beta": np.array([0.0, 1.0]),
            "gamma": np.array([1.0, 1.0]),
        })
        extraction = extract_text_values(db)
        base = initialise_vectors(extraction, embedding)
        params = RetroHyperparameters(alpha=1.0, beta=1.0, gamma=3.0, delta=1.0)
        solver = RetroSolver(extraction, base.matrix, params)
        matrix, _ = solver.solve_optimization(iterations=10)
        centroids = category_centroids(base.matrix, extraction.categories)
        # without relations |R_i| = 0, so beta_i = beta and the fixed point is
        # the alpha/beta-weighted mean of the original vector and the centroid
        expected = (base.matrix + centroids) / 2.0
        assert np.allclose(matrix, expected, atol=1e-6)


class TestFrozenRows:
    def test_frozen_rows_do_not_move(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        frozen = np.zeros(len(extraction), dtype=bool)
        frozen[0] = True
        initial = base.copy()
        matrix, _ = solver.solve_series(
            iterations=5, initial_matrix=initial, frozen_rows=frozen
        )
        normalised_first = initial[0] / (np.linalg.norm(initial[0]) + 1e-12)
        assert np.allclose(matrix[0], normalised_first)

    def test_initial_matrix_shape_checked(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        with pytest.raises(RetrofitError):
            solver.solve_series(initial_matrix=base[:2])


class TestLossFunction:
    def test_loss_is_zero_for_identical_isolated_vectors(self):
        from repro.retrofit.hyperparams import DerivedWeights

        base = np.ones((3, 2))
        weights = DerivedWeights(RetroHyperparameters(), 3, [])
        centroids = np.ones((3, 2))
        assert relational_loss(base, base, centroids, weights) == pytest.approx(0.0)

    def test_loss_shape_mismatch(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        with pytest.raises(RetrofitError):
            relational_loss(base[:2], base, solver.centroids, solver.weights)

    def test_moving_away_from_base_increases_alpha_loss(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(
            extraction, base,
            RetroHyperparameters(alpha=1.0, beta=0.0, gamma=0.0001, delta=0.0),
        )
        baseline = relational_loss(base, base, solver.centroids, solver.weights)
        shifted = relational_loss(base + 1.0, base, solver.centroids, solver.weights)
        assert shifted > baseline


#: Entries of the paper-default solves on ``tmdb_problem``, recorded with
#: the per-relation loop the solvers used before the stacked relational
#: term: (row, column) -> value, plus the Frobenius norm of the result.
RECORDED_ROWS = [313, 235, 188, 99, 113, 15, 27, 6, 64, 300, 239, 336]
RECORDED_COLS = [12, 14, 23, 17, 15, 13, 13, 22, 6, 19, 16, 0]
RECORDED = {
    "series": (
        [-0.1904302728536802, -0.2623734026531528, 0.13632790032436515,
         0.3251322385984388, 0.0528964727043498, 0.0478718461934131,
         -0.08965630046998303, -0.018387166006877266, -0.08281963723567665,
         0.12047507083918874, -0.043371013776263304, -0.09033523831983017],
        19.1049731745428,
    ),
    "optimization": (
        [-0.04690023240056259, -0.01306004398419448, 0.09281812079858957,
         0.28514975979046386, 0.02748130213643836, 0.07769915741080614,
         -0.01789393788196942, 0.010006560603470332, -0.10344620409156563,
         0.09032407726157096, -0.05159555641881167, -0.07079449127942274],
        17.41441754952452,
    ),
}


def paper_default(method):
    if method == "series":
        return RetroHyperparameters.paper_rn_default()
    return RetroHyperparameters.paper_ro_default()


def start_matrix(solver, method):
    """The matrix a cold solve iterates from (RN normalises ``W0``)."""
    if method == "series":
        return solver.solve_series(iterations=0)[0]
    return solver.solve_optimization(iterations=0)[0]


class TestOneRelationalForm:
    """Cold solves, full steps and subset solves share one formula."""

    @pytest.mark.parametrize("method", ["series", "optimization"])
    def test_cold_solve_is_chained_full_steps(self, tmdb_problem, method):
        extraction, base = tmdb_problem
        solver = RetroSolver(extraction, base, paper_default(method))
        matrix, report = solver.solve(method, iterations=7, tolerance=0.0)
        stepped = start_matrix(solver, method)
        for _ in range(report.iterations):
            stepped = solver.full_step(stepped, method)
        assert report.iterations == 7
        assert matrix.tobytes() == stepped.tobytes()

    def test_overflowing_rows_are_repaired_alike(self, toy_problem, monkeypatch):
        """A non-convex RO setting over a huge ``W0`` overflows rows: the
        cold path repairs them exactly like the full step does."""
        extraction, base = toy_problem
        params = RetroHyperparameters(alpha=1.0, beta=0.0, gamma=1.0, delta=8.0)
        solver = RetroSolver(extraction, base * 1e306, params)
        repaired = []
        repair = RetroSolver._repair_rows

        def spy(updated, previous):
            repaired.append(int((~np.isfinite(updated)).any(axis=1).sum()))
            return repair(updated, previous)

        monkeypatch.setattr(RetroSolver, "_repair_rows", staticmethod(spy))
        with np.errstate(over="ignore", invalid="ignore"):
            matrix, report = solver.solve_optimization(iterations=20, tolerance=0.0)
            stepped = start_matrix(solver, "optimization")
            for _ in range(report.iterations):
                stepped = solver.full_step(stepped, "optimization")
        assert sum(repaired) > 0
        assert np.all(np.isfinite(matrix))
        assert matrix.tobytes() == stepped.tobytes()

    @pytest.mark.parametrize("method", ["series", "optimization"])
    def test_all_rows_subset_agrees_with_cold(self, tmdb_problem, method):
        extraction, base = tmdb_problem
        solver = RetroSolver(extraction, base, paper_default(method))
        cold, _ = solver.solve(method, tolerance=0.0)
        subset, report = solver.solve(
            method, tolerance=0.0, active_rows=np.arange(len(extraction))
        )
        assert report.mode == "subset"
        assert np.max(np.abs(subset - cold)) <= 1e-12

    @pytest.mark.parametrize("method", ["series", "optimization"])
    def test_paper_defaults_match_recorded_outputs(self, tmdb_problem, method):
        extraction, base = tmdb_problem
        solver = RetroSolver(extraction, base, paper_default(method))
        matrix, report = solver.solve(method)
        entries, norm = RECORDED[method]
        assert report.iterations == (10 if method == "series" else 20)
        assert np.max(np.abs(matrix[RECORDED_ROWS, RECORDED_COLS] - entries)) <= 1e-12
        assert abs(np.linalg.norm(matrix) - norm) <= 1e-12
