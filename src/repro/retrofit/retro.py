"""The relational retrofitting solvers (paper §4.2–4.5).

Two solvers are provided:

* :meth:`RetroSolver.solve_optimization` — the **RO** variant.  It minimises
  the convex objective Ψ(W) (Eq. 4) via the fixed-point iteration of Eq. 10,
  using the complement-relation optimisation of Eq. 15 so that the dense
  "dissimilarity" term never has to be materialised.
* :meth:`RetroSolver.solve_series` — the **RN** variant.  It iterates the
  bounded series of Eq. 11 (with the precomputation of Eq. 16); every
  iteration renormalises the rows, which keeps the series bounded for any
  non-negative hyperparameter setting.

Both solvers additionally have slow, loop-based reference implementations
(:meth:`RetroSolver.solve_optimization_naive`,
:meth:`RetroSolver.solve_series_naive`) that follow the per-vector update
equations (Eq. 8 / Eq. 9) literally; the test-suite checks that matrix and
naive versions agree, which guards the vectorised code against index bugs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.errors import ConvexityError, RetrofitError
from repro.retrofit.extraction import ExtractionResult
from repro.retrofit.hyperparams import (
    DerivedWeights,
    RetroHyperparameters,
    build_directed_relations,
    check_convexity,
)
from repro.retrofit.loss import category_centroids, relational_loss

_EPSILON = 1e-12


@dataclass
class SolverReport:
    """Bookkeeping of one retrofitting run.

    ``mode`` records how the solve was started: ``"cold"`` (from ``W0``),
    ``"warm"`` (from a caller-provided ``W_init``), ``"subset"`` (only
    ``n_active`` rows iterated) or ``"warm+subset"`` — the incremental
    maintenance path.  ``cold_runtime_seconds`` can be filled in by callers
    that also measured a cold solve; :attr:`speedup_vs_cold` then reports
    the incremental speedup.
    """

    method: str
    iterations: int
    runtime_seconds: float
    converged: bool
    convexity_margin: float | None = None
    shift_history: list[float] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)
    mode: str = "cold"
    n_active: int | None = None
    cold_runtime_seconds: float | None = None

    @property
    def speedup_vs_cold(self) -> float | None:
        """``cold_runtime_seconds / runtime_seconds`` when both are known."""
        if self.cold_runtime_seconds is None or self.runtime_seconds <= 0:
            return None
        return self.cold_runtime_seconds / self.runtime_seconds


class _RelationalTerm:
    """The RO/RN relational numerator term, over all rows or a row slice.

    One formula for both solvers (Eq. 10 + 15 for RO, Eq. 11 + 16 for RN):

        A·M − W·(T·M)

    ``T`` is the ``(relations, n)`` 0/1 indicator of each relation's
    targets, so ``T·M`` stacks the sum of every relation's target
    vectors; ``W`` is ``(n, relations)``, each node's dissimilarity
    weight per relation.  ``A`` is the γ-weighted relation matrix — for
    RO plus the related pairs the complement of Eq. 15 must not subtract.
    All three are sparse, so an iteration is three sparse products, never
    a loop over relations.

    The all-rows term recomputes ``T·M`` on every call.  A slice
    (:meth:`restrict`) cuts ``A`` and ``W`` to its rows once per solve —
    csr row selection copies, so it stays out of the loop — and keeps
    ``T·M`` as a running sum: only the slice's rows move, so
    :meth:`advance` costs ``O(nnz(T[:, rows])·d)`` and a whole iteration
    stays proportional to the slice, not the extraction.
    """

    def __init__(self, related, weights, targets) -> None:
        self.related = related
        self.weights = weights
        self.targets = targets
        self._rows: np.ndarray | None = None
        self._moving: sparse.csr_matrix | None = None
        self._sums: np.ndarray | None = None

    def restrict(self, rows: np.ndarray) -> "_RelationalTerm":
        """The same term for ``rows`` only, with running target sums."""
        sliced = _RelationalTerm(
            self.related[rows], self.weights[rows], self.targets
        )
        sliced._rows = rows
        sliced._moving = self.targets[:, rows].tocsr()
        return sliced

    def __call__(self, matrix: np.ndarray) -> np.ndarray:
        relational = self.related @ matrix
        if self.weights.shape[1]:
            if self._rows is None:
                sums = self.targets @ matrix
            else:
                if self._sums is None:
                    self._sums = self.targets @ matrix
                sums = self._sums
            relational = relational - self.weights @ sums
        return relational

    def advance(self, previous: np.ndarray, updated: np.ndarray) -> None:
        """Fold one iteration's moves into a slice's running target sums."""
        if self._sums is not None:
            rows = self._rows
            self._sums += self._moving @ (updated[rows] - previous[rows])


class RetroSolver:
    """Relational retrofitting over an extraction result and a base matrix ``W0``."""

    def __init__(
        self,
        extraction: ExtractionResult,
        base_matrix: np.ndarray,
        hyperparams: RetroHyperparameters | None = None,
        enforce_convexity: bool = False,
    ) -> None:
        self.extraction = extraction
        self.base_matrix = np.asarray(base_matrix, dtype=np.float64)
        if self.base_matrix.ndim != 2:
            raise RetrofitError("base matrix must be two-dimensional")
        if self.base_matrix.shape[0] != len(extraction):
            raise RetrofitError(
                f"base matrix has {self.base_matrix.shape[0]} rows but the "
                f"extraction holds {len(extraction)} text values"
            )
        self.hyperparams = hyperparams or RetroHyperparameters()
        self.n_values, self.dimension = self.base_matrix.shape
        self.directed = build_directed_relations(
            extraction.relation_groups, self.n_values
        )
        self.weights = DerivedWeights(self.hyperparams, self.n_values, self.directed)
        self.centroids = category_centroids(self.base_matrix, extraction.categories)
        self.is_convex, self.convexity_margin = check_convexity(
            self.hyperparams, self.directed, self.n_values, weights=self.weights
        )
        if enforce_convexity and not self.is_convex:
            raise ConvexityError(
                "hyperparameters violate the convexity condition "
                f"(margin {self.convexity_margin:.4f}); lower delta or raise alpha"
            )
        self._gamma_matrix_symmetric: sparse.csr_matrix | None = None
        self._gamma_matrix_directed: sparse.csr_matrix | None = None
        self._source_indicator: list[np.ndarray] = []
        self._out_degree_vec: list[np.ndarray] = []
        self._build_sparse_structures()

    # ------------------------------------------------------------------ #
    # shared precomputation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _inverse_index(index: int) -> int:
        """Directed relations come in (forward, inverted) pairs."""
        return index + 1 if index % 2 == 0 else index - 1

    def _build_sparse_structures(self) -> None:
        n = self.n_values
        sym_rows: list[np.ndarray] = []
        sym_cols: list[np.ndarray] = []
        sym_vals: list[np.ndarray] = []
        dir_vals: list[np.ndarray] = []
        for index, relation in enumerate(self.directed):
            inverse = self._inverse_index(index)
            gamma_here = self.weights.gamma_node[index][relation.source_rows]
            gamma_inverse = self.weights.gamma_node[inverse][relation.target_rows]
            sym_rows.append(relation.source_rows)
            sym_cols.append(relation.target_rows)
            sym_vals.append(gamma_here + gamma_inverse)
            dir_vals.append(gamma_here)
            indicator = np.zeros(n, dtype=np.float64)
            indicator[relation.source_indices] = 1.0
            self._source_indicator.append(indicator)
            self._out_degree_vec.append(relation.out_degree_vector(n))

        if sym_rows:
            rows = np.concatenate(sym_rows)
            cols = np.concatenate(sym_cols)
            self._gamma_matrix_symmetric = sparse.csr_matrix(
                (np.concatenate(sym_vals), (rows, cols)), shape=(n, n)
            )
            self._gamma_matrix_directed = sparse.csr_matrix(
                (np.concatenate(dir_vals), (rows, cols)), shape=(n, n)
            )
            # structural (unweighted) adjacency union, used by the k-hop
            # affected-row search of the incremental path
            self._support = sparse.csr_matrix(
                (np.ones(rows.size, dtype=np.float64), (rows, cols)), shape=(n, n)
            )
        else:
            self._gamma_matrix_symmetric = sparse.csr_matrix((n, n))
            self._gamma_matrix_directed = sparse.csr_matrix((n, n))
            self._support = sparse.csr_matrix((n, n))
        self._delta_pair_constants = [
            self.weights.delta_ro[index]
            + self.weights.delta_ro[self._inverse_index(index)]
            for index in range(len(self.directed))
        ]

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #
    def solve(
        self,
        method: str = "series",
        iterations: int | None = None,
        track_loss: bool = False,
        tolerance: float = 1e-5,
        initial_matrix: np.ndarray | None = None,
        frozen_rows: np.ndarray | None = None,
        W_init: np.ndarray | None = None,
        active_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SolverReport]:
        """Run one of the solvers.

        ``method`` is ``"series"`` (RN, default, 10 iterations) or
        ``"optimization"`` (RO, 20 iterations), matching the paper's setup.
        ``W_init`` warm-starts the iteration from a previous solution
        instead of ``W0`` (``initial_matrix`` is the historical alias);
        ``frozen_rows`` is a boolean mask of rows that must not move and
        ``active_rows`` restricts each iteration to a row subset (everything
        outside is implicitly frozen) — the combination is the incremental
        maintenance fast path.
        """
        if method in ("series", "rn", "RN"):
            key, default = "RN", 10
        elif method in ("optimization", "ro", "RO"):
            key, default = "RO", 20
        else:
            raise RetrofitError(f"unknown solver method {method!r}")
        start = W_init if W_init is not None else initial_matrix
        return self._solve(
            key, iterations or default, track_loss, tolerance, start,
            frozen_rows, active_rows,
        )

    # ------------------------------------------------------------------ #
    # incremental-solve helpers
    # ------------------------------------------------------------------ #
    def affected_rows(
        self, seed_rows, hops: int = 2, frontier_degree_cap: float | None = None
    ) -> np.ndarray:
        """Rows within ``hops`` relation steps of ``seed_rows``, ascending.

        Walks the structural union of all relation adjacencies (both
        directions).  This is the active set of an incremental solve: rows
        farther than ``hops`` from a change keep their converged values,
        because their update equations only reference their immediate
        neighbourhood (plus weak, size-normalised dissimilarity terms).

        ``frontier_degree_cap`` stops the walk from expanding *through*
        high-degree hub rows: a hub reached by the walk joins the result
        (it gets re-solved), but only rows with total degree at or below
        the cap propagate the frontier further.  A single changed
        neighbour perturbs a hub by ``O(1/degree)``, so the hub's own
        neighbourhood only sees a second-order effect — without the cap,
        one new row that references a popular value drags in most of the
        graph.
        """
        seeds = np.unique(np.asarray(list(seed_rows), dtype=np.int64))
        if seeds.size and (seeds.min() < 0 or seeds.max() >= self.n_values):
            raise RetrofitError("seed rows outside the extraction's index range")
        reach = np.zeros(self.n_values, dtype=bool)
        reach[seeds] = True
        propagates = None
        if frontier_degree_cap is not None:
            propagates = self.degree_vector() <= float(frontier_degree_cap)
        frontier = reach.copy()
        for _ in range(max(0, int(hops))):
            if not frontier.any():
                break
            expanded = self._support @ frontier.astype(np.float64)
            new = (expanded > 0) & ~reach
            if not new.any():
                break
            reach |= new
            frontier = new if propagates is None else new & propagates
        return np.nonzero(reach)[0]

    def degree_vector(self) -> np.ndarray:
        """Total relational degree of every row (both edge directions)."""
        return np.asarray(self._support.sum(axis=1)).ravel()

    def influence_rows(
        self,
        initial_perturbation: np.ndarray,
        threshold: float = 1e-4,
        max_hops: int = 10,
    ) -> np.ndarray:
        """Rows whose solution is expected to move more than ``threshold``.

        Propagates a per-row perturbation estimate (relative vector
        movement, 1.0 = completely new) through the linearised update
        operator ``M = D⁻¹·Γ`` — row ``i`` of the fixed point moves by
        roughly its γ-weight share of its neighbours' movements.  The
        propagation runs until the carried perturbation everywhere falls
        below ``threshold`` (or ``max_hops``), and returns every row whose
        accumulated estimate exceeds it.  Unlike a plain k-hop BFS this
        keeps following strong chains (a value that lost/gained a large
        share of its neighbourhood) while damping out hub values whose
        relative change is negligible.
        """
        p = np.asarray(initial_perturbation, dtype=np.float64)
        if p.shape != (self.n_values,):
            raise RetrofitError(
                f"perturbation vector has shape {p.shape}, expected "
                f"({self.n_values},)"
            )
        gamma_row_sum = np.asarray(
            self._gamma_matrix_symmetric.sum(axis=1)
        ).ravel()
        scale = self.weights.alpha_vec + self.weights.beta_vec + gamma_row_sum
        scale = np.where(scale < _EPSILON, 1.0, scale)
        accumulated = p.copy()
        for _ in range(max(0, int(max_hops))):
            p = (self._gamma_matrix_symmetric @ p) / scale
            if float(p.max(initial=0.0)) < threshold:
                break
            accumulated = np.maximum(accumulated, p)
        return np.nonzero(accumulated >= threshold)[0]

    def _resolve_active(
        self,
        active_rows: np.ndarray | None,
        frozen_rows: np.ndarray | None,
    ) -> np.ndarray | None:
        """The sorted row subset to iterate, or ``None`` for all rows."""
        if active_rows is None:
            return None
        rows = np.unique(np.asarray(active_rows, dtype=np.int64))
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_values):
            raise RetrofitError("active rows outside the extraction's index range")
        if frozen_rows is not None:
            mask = np.asarray(frozen_rows, dtype=bool)
            rows = rows[~mask[rows]]
        return rows

    @staticmethod
    def _solve_mode(warm: bool, rows: np.ndarray | None) -> str:
        parts = [part for part, on in (("warm", warm), ("subset", rows is not None)) if on]
        return "+".join(parts) if parts else "cold"

    # ------------------------------------------------------------------ #
    # the relational term: one stacked formula, all rows or a row slice
    # ------------------------------------------------------------------ #
    def _relational_term(self, method: str) -> _RelationalTerm:
        """The cached all-rows relational term of ``"RO"`` or ``"RN"``."""
        key = f"_relational_term_{method}"
        if not hasattr(self, key):
            if method == "RO":
                used = [
                    index
                    for index in range(len(self.directed))
                    if self._delta_pair_constants[index] != 0.0
                ]
                weights = [
                    self._delta_pair_constants[index] * self._source_indicator[index]
                    for index in used
                ]
                # the complement of Eq. 15 excludes each source's related
                # targets: add them back with the same constant
                related = self._gamma_matrix_symmetric
                if used:
                    vals = np.concatenate([
                        np.full(
                            len(self.directed[index]),
                            self._delta_pair_constants[index],
                        )
                        for index in used
                    ])
                    srcs = np.concatenate(
                        [self.directed[index].source_rows for index in used]
                    )
                    dsts = np.concatenate(
                        [self.directed[index].target_rows for index in used]
                    )
                    related = related + sparse.csr_matrix(
                        (vals, (srcs, dsts)), shape=(self.n_values, self.n_values)
                    )
            else:
                used = [
                    index
                    for index, node in enumerate(self.weights.delta_rn_node)
                    if node.any()
                ]
                weights = [self.weights.delta_rn_node[index] for index in used]
                related = self._gamma_matrix_directed
            weights = sparse.csr_matrix(
                np.vstack(weights).T if weights else np.zeros((self.n_values, 0))
            )
            members = [self.directed[index].target_indices for index in used]
            targets = sparse.csr_matrix(
                (
                    np.ones(sum(member.size for member in members)),
                    np.concatenate(members) if members else np.empty(0, np.int64),
                    np.cumsum([0] + [member.size for member in members]),
                ),
                shape=(len(used), self.n_values),
            )
            setattr(self, key, _RelationalTerm(related, weights, targets))
        return getattr(self, key)

    # ------------------------------------------------------------------ #
    # single full-matrix steps (the incremental path's residual check)
    # ------------------------------------------------------------------ #
    def _cached_base_term(self) -> np.ndarray:
        if not hasattr(self, "_base_term_cache"):
            self._base_term_cache = (
                self.weights.alpha_vec[:, None] * self.base_matrix
                + self.weights.beta_vec[:, None] * self.centroids
            )
        return self._base_term_cache

    def _cached_ro_denominator(self) -> np.ndarray:
        if not hasattr(self, "_ro_denominator_cache"):
            gamma_row_sum = np.asarray(
                self._gamma_matrix_symmetric.sum(axis=1)
            ).ravel()
            denominator = (
                self.weights.alpha_vec + self.weights.beta_vec + gamma_row_sum
            )
            for index, relation in enumerate(self.directed):
                constant = self._delta_pair_constants[index]
                if constant == 0.0:
                    continue
                complement_size = (
                    self._source_indicator[index] * relation.n_targets
                    - self._out_degree_vec[index]
                )
                denominator = denominator - constant * complement_size
            self._ro_denominator_cache = np.where(
                np.abs(denominator) < _EPSILON, 1.0, denominator
            )
        return self._ro_denominator_cache

    def full_step(self, matrix: np.ndarray, method: str = "series") -> np.ndarray:
        """One full Jacobi update step of the chosen solver, from ``matrix``.

        Exactly one iteration of a cold solve.  Incremental maintenance
        uses it as a residual check: after a subset solve, one full step
        measures how far *every* row still wants to move — rows past the
        tolerance join the next subset round.
        """
        method = "RO" if method in ("optimization", "ro", "RO") else "RN"
        matrix = np.asarray(matrix, dtype=np.float64)
        numerator = self._cached_base_term() + self._relational_term(method)(matrix)
        return self._repair_rows(self._step(method, numerator, None), matrix)

    def _step(self, method: str, numerator: np.ndarray, rows) -> np.ndarray:
        """Eq. 10 divides by the RO denominator; Eq. 11 renormalises."""
        if method == "RN":
            return self._normalise(numerator)
        denominator = self._cached_ro_denominator()
        if rows is not None:
            denominator = denominator[rows]
        return numerator / denominator[:, None]

    def residual_shift(self, matrix: np.ndarray, method: str = "series") -> np.ndarray:
        """Per-row relative movement of one more full step from ``matrix``."""
        stepped = self.full_step(matrix, method)
        norms = np.linalg.norm(matrix, axis=1)
        safe = np.where(norms < _EPSILON, 1.0, norms)
        return np.linalg.norm(stepped - matrix, axis=1) / safe

    def _starting_matrix(
        self, initial_matrix: np.ndarray | None, normalise: bool
    ) -> np.ndarray:
        if initial_matrix is None:
            matrix = self.base_matrix.copy()
        else:
            matrix = np.asarray(initial_matrix, dtype=np.float64).copy()
            if matrix.shape != self.base_matrix.shape:
                raise RetrofitError(
                    "initial matrix must have the same shape as the base matrix"
                )
        return self._normalise(matrix) if normalise else matrix

    @staticmethod
    def _apply_frozen(
        updated: np.ndarray,
        reference: np.ndarray,
        frozen_rows: np.ndarray | None,
    ) -> np.ndarray:
        if frozen_rows is None:
            return updated
        mask = np.asarray(frozen_rows, dtype=bool)
        updated[mask] = reference[mask]
        return updated

    def solve_optimization(
        self,
        iterations: int = 20,
        track_loss: bool = False,
        tolerance: float = 1e-5,
        initial_matrix: np.ndarray | None = None,
        frozen_rows: np.ndarray | None = None,
        W_init: np.ndarray | None = None,
        active_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SolverReport]:
        """The RO solver: fixed-point iteration of Eq. 10 with Eq. 15.

        ``W_init`` warm-starts from a previous solution; ``active_rows``
        restricts every iteration to a row subset (the incremental path) —
        each iteration then costs ``O(nnz(Γ[rows]) + |rows|·d)`` instead of
        touching the whole matrix.
        """
        start = W_init if W_init is not None else initial_matrix
        return self._solve(
            "RO", iterations, track_loss, tolerance, start, frozen_rows, active_rows
        )

    def solve_series(
        self,
        iterations: int = 10,
        track_loss: bool = False,
        tolerance: float = 1e-5,
        initial_matrix: np.ndarray | None = None,
        frozen_rows: np.ndarray | None = None,
        W_init: np.ndarray | None = None,
        active_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SolverReport]:
        """The RN solver: bounded series of Eq. 11 with Eq. 16.

        ``W_init``/``active_rows`` behave as in :meth:`solve_optimization`;
        a warm start resumes the (row-normalised) series from the previous
        solution instead of the normalised ``W0``.
        """
        start = W_init if W_init is not None else initial_matrix
        return self._solve(
            "RN", iterations, track_loss, tolerance, start, frozen_rows, active_rows
        )

    def _solve(
        self, method, iterations, track_loss, tolerance, initial_matrix,
        frozen_rows, active_rows,
    ) -> tuple[np.ndarray, SolverReport]:
        """Jacobi iterations of :meth:`_step`, over all rows or a subset."""
        began = time.perf_counter()
        rows = self._resolve_active(active_rows, frozen_rows)
        # RN iterates on unit rows.  A subset solve must leave inactive rows
        # bit-for-bit untouched, so only the active rows are (re)normalised
        # — a warm start comes from a previous series solution whose rows
        # are already unit length
        series = method == "RN"
        matrix = self._starting_matrix(initial_matrix, series and rows is None)
        if series and rows is not None and rows.size:
            matrix[rows] = self._normalise(matrix[rows])
        frozen_reference = matrix.copy()
        base_term = self._cached_base_term()
        term = self._relational_term(method)
        if rows is not None:
            base_term = base_term[rows]
            term = term.restrict(rows)
        shift_history: list[float] = []
        loss_history = [self._loss(matrix)] if track_loss else []
        converged = False
        for _ in range(iterations):
            updated = self._step(method, base_term + term(matrix), rows)
            if rows is not None:
                stepped, updated = updated, matrix.copy()
                updated[rows] = stepped
            updated = self._repair_rows(updated, matrix)
            updated = self._apply_frozen(updated, frozen_reference, frozen_rows)
            changed = updated - matrix if rows is None else updated[rows] - matrix[rows]
            shift = float(np.max(np.linalg.norm(changed, axis=1), initial=0.0))
            shift_history.append(shift)
            term.advance(matrix, updated)
            matrix = updated
            if track_loss:
                loss_history.append(self._loss(matrix))
            if shift < tolerance:
                converged = True
                break
        performed = len(shift_history)
        report = SolverReport(
            method=method,
            iterations=performed,
            runtime_seconds=time.perf_counter() - began,
            converged=converged or performed == iterations,
            convexity_margin=self.convexity_margin,
            shift_history=shift_history,
            loss_history=loss_history,
            mode=self._solve_mode(initial_matrix is not None, rows),
            n_active=None if rows is None else int(rows.size),
        )
        return matrix, report

    # ------------------------------------------------------------------ #
    # naive reference implementations (used by the test-suite)
    # ------------------------------------------------------------------ #
    def solve_optimization_naive(self, iterations: int = 20) -> np.ndarray:
        """Literal per-vector implementation of Eq. 8 (Jacobi-style updates)."""
        matrix = self.base_matrix.copy()
        # membership sets built once — relation.out_degree is a property
        # that materialises a whole dict per access
        source_sets = [
            set(relation.source_indices.tolist()) for relation in self.directed
        ]
        for _ in range(iterations):
            updated = matrix.copy()
            for i in range(self.n_values):
                numerator = (
                    self.weights.alpha_vec[i] * self.base_matrix[i]
                    + self.weights.beta_vec[i] * self.centroids[i]
                )
                denominator = self.weights.alpha_vec[i] + self.weights.beta_vec[i]
                for index, relation in enumerate(self.directed):
                    inverse = self._inverse_index(index)
                    gamma_i = self.weights.gamma_node[index][i]
                    delta_const = (
                        self.weights.delta_ro[index] + self.weights.delta_ro[inverse]
                    )
                    related_targets = relation.target_rows[relation.source_rows == i]
                    for j in related_targets:
                        weight = gamma_i + self.weights.gamma_node[inverse][j]
                        numerator = numerator + weight * matrix[j]
                        denominator += weight
                    if delta_const > 0.0 and i in source_sets[index]:
                        unrelated = np.setdiff1d(
                            relation.target_indices, related_targets
                        )
                        for k in unrelated:
                            numerator = numerator - delta_const * matrix[k]
                            denominator -= delta_const
                if abs(denominator) < _EPSILON:
                    continue
                updated[i] = numerator / denominator
            matrix = updated
        return matrix

    def solve_series_naive(self, iterations: int = 10) -> np.ndarray:
        """Literal per-vector implementation of Eq. 9 (Jacobi-style updates)."""
        matrix = self._normalise(self.base_matrix.copy())
        for _ in range(iterations):
            updated = matrix.copy()
            for i in range(self.n_values):
                numerator = (
                    self.weights.alpha_vec[i] * self.base_matrix[i]
                    + self.weights.beta_vec[i] * self.centroids[i]
                )
                for index, relation in enumerate(self.directed):
                    gamma_i = self.weights.gamma_node[index][i]
                    delta_i = self.weights.delta_rn_node[index][i]
                    related_targets = relation.target_rows[relation.source_rows == i]
                    for j in related_targets:
                        numerator = numerator + gamma_i * matrix[j]
                    if delta_i > 0.0:
                        for k in relation.target_indices:
                            numerator = numerator - delta_i * matrix[k]
                norm = float(np.linalg.norm(numerator))
                if norm > _EPSILON:
                    updated[i] = numerator / norm
            matrix = updated
        return matrix

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _loss(self, matrix: np.ndarray) -> float:
        return relational_loss(matrix, self.base_matrix, self.centroids, self.weights)

    @staticmethod
    def _normalise(matrix: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(matrix, axis=1)
        safe = np.where(norms < _EPSILON, 1.0, norms)
        return matrix / safe[:, None]

    @staticmethod
    def _repair_rows(updated: np.ndarray, previous: np.ndarray) -> np.ndarray:
        """Replace non-finite rows with their previous value.

        Non-convex hyperparameter settings (large δ) can make single rows
        diverge; the paper notes such configurations "drift away" — keeping
        the previous value keeps the grid-search experiments well-defined
        without masking the quality degradation.
        """
        bad = ~np.all(np.isfinite(updated), axis=1)
        if bad.any():
            updated = updated.copy()
            updated[bad] = previous[bad]
        return updated
