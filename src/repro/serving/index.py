"""Approximate and exact nearest-neighbour indexes over embedding matrices.

Every similarity lookup in the seed code base was a full ``O(n·d)`` scan
followed by a full ``argsort`` of the whole vocabulary.  This module provides
the serving-grade replacement:

* :class:`FlatIndex` — exact brute force, vectorised over query batches.
  Its selection (:func:`topk_columns`) works on the ``(rows, batch)``
  scores the GEMM produces, untransposed: one pass takes per-block maxima
  (blocks of ``_BLOCK`` rows), and when a query's ``k``-th largest block
  maximum is strictly above its ``(k+1)``-th, the exact top-``k`` lies in
  those ``k`` blocks, so only their ``k·_BLOCK`` candidates are ranked.
  A query whose block maxima tie at the bound, hold a NaN, or whose index
  is too narrow for the bound to pay is ranked over all rows with
  ``np.argpartition`` (linear-time selection).  Either way the answer is
  the full sort on ``(score desc, row id asc)``, bit for bit.  Copies of
  one vector, which BLAS may score an ulp apart depending on their place
  in the product, share one score, so they rank by id at any batch width
  (:meth:`VectorIndex._select`, also behind exhaustive IVF and NSW).
* :class:`IVFIndex` — an inverted-file index: a spherical k-means coarse
  quantiser splits the rows into ``n_cells`` cells; a query only scores the
  rows of the ``nprobe`` cells whose centroids are most similar to it.  With
  ``nprobe == n_cells`` the search is exhaustive and returns exactly the
  :class:`FlatIndex` ranking.
* :class:`repro.serving.pq.PQIndex` — product quantisation with an optional
  IVF coarse layer (IVF-PQ): vectors are stored as packed ``uint8`` codes
  (tens of MB where the raw matrix is GBs) and scanned through per-query
  asymmetric distance tables, with exact re-ranking of a top-``R``
  shortlist from the (memory-mappable) original matrix.
* :class:`repro.serving.nsw.NSWIndex` — a navigable-small-world graph
  index, *incrementally insertable*: new vectors link into the graph by
  greedy beam search, which suits the delta pipeline far better than
  IVF's lazy re-clustering.

All implement the :class:`VectorIndex` interface with single (``query``)
and batched (``query_batch``) top-k search under cosine or dot-product
similarity.  Batched IVF search is grouped *by cell* rather than by query so
that every partial score computation is one dense matrix product.

Which index to pick
-------------------
* **Flat** — exact, zero build cost, memory = the matrix.  Right below a
  few thousand vectors, or whenever exactness is non-negotiable.
* **IVF** — ~5–10× flat's throughput at recall ≥0.95 with the same memory
  footprint.  Right for 10⁴–10⁵ vectors with rare mutations (adds trigger
  lazy re-clustering once cells grow imbalanced).
* **PQ / IVF-PQ** — 20–60× less resident memory than flat (codes instead
  of the matrix; the raw matrix can stay on disk behind an mmap for
  re-ranking only).  Right when the corpus no longer fits the budget —
  millions of values per replica — at recall ≥0.9 with re-ranking.
* **NSW** — 5–50× flat's throughput at recall ≥0.95, ``add``/``remove``/
  ``update_rows`` are genuinely in-place graph edits (no retraining,
  ever), so it is the index of choice under a continuous delta stream.
  Costs one build pass (incremental inserts) and holds the full matrix
  plus the adjacency in memory.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ServingError

_EPSILON = 1e-12

METRICS = ("cosine", "dot")

#: Rows per block of the block-max bound in :func:`topk_columns`.
_BLOCK = 128
#: The bound is tried only when the rows outnumber the ``k·_BLOCK``
#: candidates it would rank at least this many times.
_PRUNE_RATIO = 4


def topk_descending(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries per row, in descending order.

    Works on a 1-D vector (returns shape ``(k,)``) or a 2-D batch of score
    rows (returns shape ``(batch, k)``); the selection itself is
    :func:`topk_columns` on the transposed view, so nothing is copied.

    Block bound: per-block maxima (``_BLOCK`` entries a block) are the
    one full-width pass.  When a row's ``k``-th largest block maximum is
    strictly above its ``(k+1)``-th, only the ``k`` winning blocks are
    ranked.  A row falls back to ranking every entry when its block maxima
    tie at the bound or hold a NaN, or when rows are shorter than
    ``_PRUNE_RATIO·k·_BLOCK``.  Neither path changes the answer.

    Tie contract: the result is exactly the first ``k`` entries of a full
    sort on ``(score descending, index ascending)``.  Ties are broken by
    ascending index both *within* the returned ordering and at the
    selection boundary (among equal ``k``-th scores, the lowest indices
    win), and NaN ranks below every number.  ``argpartition`` alone picks
    an arbitrary subset of boundary ties, which would make per-shard top-k
    results impossible to merge into exactly the single-index answer.
    """
    scores = np.asarray(scores)
    if scores.ndim == 1:
        return topk_columns(scores[:, None], k)[0]
    return topk_columns(scores.T, k)


def topk_columns(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` row indices of every column of an ``(n, batch)`` matrix.

    The layout :meth:`VectorIndex._score_rows` produces: one column per
    query, any strides.  Returns shape ``(batch, k')`` with
    ``k' = min(k, n)`` under the tie contract of :func:`topk_descending`.

    The block bound: split the ``n`` rows into blocks of ``_BLOCK`` and
    take each block's maximum per column — the only full-width pass.  Let
    ``t`` be a column's ``k``-th largest block maximum.  When its
    ``(k+1)``-th largest is *strictly* below ``t``, the chosen ``k``
    blocks hold at least ``k`` scores ``>= t`` and every other score is
    ``< t``, so the exact top-``k`` — boundary ties included — lies in
    those blocks; only their ``k·_BLOCK`` candidates are ranked, in
    ascending row order so the index tie-break carries over unchanged.

    A column falls back to ranking all ``n`` rows when its block maxima
    tie at the bound, when a block maximum is NaN, or when the whole
    matrix has fewer than ``_PRUNE_RATIO·k·_BLOCK`` rows (then the
    candidates would be no small share of the rows).
    """
    n, batch = scores.shape
    k = min(int(k), n)
    if k <= 0:
        return np.empty((batch, 0), dtype=np.int64)
    result = np.empty((batch, k), dtype=np.int64)
    for columns, ids, candidates in _candidate_sets(scores, k, 0.0):
        best = _topk_rows(candidates, k)
        result[columns] = best if ids is None else np.take_along_axis(ids, best, 1)
    return result


def _topk_band(
    scores: np.ndarray, k: int, slack: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`topk_columns`, plus the rows whose scores lie within
    ``slack`` of each column's ``k``-th.

    ``slack`` holds one tolerance per column.  Returns
    ``(top, extra)``: ``top`` is ``topk_columns(scores, k)``; ``extra``
    holds, per column and ascending, the other rows scoring ``>= kth -
    slack`` (padded with ``-1``), or is ``None`` when no column has any.
    A column whose scores near the ``k``-th all equal it gets none: exact
    ties are already settled by id.  The block bound still prunes, but a
    column takes it only when its ``(k+1)``-th block maximum lies below
    the ``k``-th by more than the slack, so the ``k`` chosen blocks hold
    the whole band.
    """
    n, batch = scores.shape
    k = min(int(k), n)
    top = np.empty((batch, max(k, 0)), dtype=np.int64)
    if k <= 0:
        return top, None
    extras = []
    for columns, ids, candidates in _candidate_sets(scores, k, slack):
        best = _topk_rows(candidates, k)
        top[columns] = best if ids is None else np.take_along_axis(ids, best, 1)
        kth = candidates[np.arange(columns.size)[:, None], best[:, -1:]]
        floor = kth - slack[columns][:, None]
        wide = np.flatnonzero(np.count_nonzero(candidates >= floor, axis=1) > k)
        if not wide.size:
            continue
        sub, kth, floor = candidates[wide], kth[wide], floor[wide]
        with np.errstate(invalid="ignore"):  # an infinite k-th has no band
            near = (sub >= floor) & (sub <= 2 * kth - floor) & (sub != kth)
        keep = (sub >= floor) & (sub > -np.inf) & near.any(axis=1, keepdims=True)
        keep[np.arange(wide.size)[:, None], best[wide]] = False
        flagged = _flagged(keep)
        if ids is not None:
            rows = ids[wide[:, None], np.maximum(flagged, 0)]
            flagged = np.where(flagged >= 0, rows, -1)
        extras.append((columns[wide], flagged))
    if not any(part.size for _, part in extras):
        return top, None
    extra = np.full((batch, max(part.shape[1] for _, part in extras)), -1)
    for columns, part in extras:
        extra[columns, : part.shape[1]] = part
    return top, extra


def _flagged(mask: np.ndarray) -> np.ndarray:
    """Column indices of each row's ``True`` entries, ascending, padded
    with ``-1`` to the fullest row."""
    line, at = np.nonzero(mask)
    counts = np.bincount(line, minlength=mask.shape[0])
    out = np.full((mask.shape[0], counts.max(initial=0)), -1, dtype=np.int64)
    out[line, np.arange(line.size) - np.repeat(np.cumsum(counts) - counts, counts)] = at
    return out


def _candidate_sets(scores: np.ndarray, k: int, slack):
    """The row sets :func:`topk_columns` ranks, as ``(columns, ids,
    candidate scores)`` groups: columns the block bound prunes (``k``
    blocks each, ``ids >= n`` scoring ``-inf``) and columns ranked over all
    ``n`` rows (``ids`` is ``None``: candidates are the rows themselves).
    ``slack`` widens the bound's margin per column."""
    n, batch = scores.shape
    if n < _PRUNE_RATIO * k * _BLOCK:
        yield np.arange(batch), None, np.ascontiguousarray(scores.T)
        return
    maxima = _block_maxima(scores)
    order = np.argpartition(-maxima, k, axis=0)
    columns = np.arange(batch)
    bound = maxima[order[:k], columns].min(axis=0)
    pruned = maxima[order[k], columns] < bound - slack
    pruned &= ~np.isnan(maxima).any(axis=0)
    fast = np.flatnonzero(pruned)
    if fast.size:
        blocks = np.sort(order[:k, fast], axis=0).T
        ids = (blocks[:, :, None] * _BLOCK + np.arange(_BLOCK)).reshape(
            fast.size, k * _BLOCK
        )
        candidates = scores[np.minimum(ids, n - 1), fast[:, None]]
        # rows past a short tail block: -inf never reaches the top k,
        # since k candidates score >= bound > the (k+1)-th block maximum
        candidates[ids >= n] = -np.inf
        yield fast, ids, candidates
    slow = np.flatnonzero(~pruned)
    if slow.size:
        yield slow, None, scores.T[slow]


def _block_maxima(scores: np.ndarray) -> np.ndarray:
    """Per-column maxima of each ``_BLOCK``-row block (and of the short
    tail block), shape ``(blocks, batch)``; NaN propagates."""
    n, batch = scores.shape
    full = n - n % _BLOCK
    maxima = scores[:full].reshape(full // _BLOCK, _BLOCK, batch).max(axis=1)
    if full < n:
        maxima = np.vstack((maxima, scores[full:].max(axis=0)))
    return maxima


def _topk_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Full-width tie-stable top-``k`` of each row of ``(batch, n)``,
    ``0 < k <= n``.  Uses ``argpartition`` to select the top ``k`` in
    linear time and only sorts those ``k`` entries."""
    batch, n = scores.shape
    rows = np.arange(batch)[:, None]
    if k < n:
        part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        # the k-th order statistic bounds the selection; entries strictly
        # above it are always in, boundary ties are filled lowest-index-first
        boundary = scores[rows, part].min(axis=1, keepdims=True)
        above = scores > boundary
        tied = scores == boundary
        need = k - above.sum(axis=1, keepdims=True)
        tie_rank = np.cumsum(tied, axis=1) - 1
        selected = above | (tied & (tie_rank < need))
        # nonzero walks row-major, so columns come out ascending per row
        cols = np.nonzero(selected)[1]
        if cols.size != batch * k:
            # a NaN boundary (fewer than k non-NaN scores) selects nothing
            # in its row; NaN ranks last, so a stable full sort of those
            # rows is the contract itself
            nan_bound = np.isnan(boundary[:, 0])
            result = np.empty((batch, k), dtype=np.int64)
            result[nan_bound] = np.argsort(
                -scores[nan_bound], axis=1, kind="stable"
            )[:, :k]
            result[~nan_bound] = _topk_rows(scores[~nan_bound], k)
            return result
        cols = cols.reshape(batch, k)
    else:
        cols = np.broadcast_to(np.arange(n), scores.shape)
    # stable sort over ascending-index columns: equal scores keep index order
    order = np.argsort(-scores[rows, cols], axis=1, kind="stable")
    return cols[rows, order].astype(np.int64)


class VectorIndex(ABC):
    """Top-k similarity search over a ``(n_rows, dimension)`` matrix.

    Indexes are mutable: :meth:`add` appends vectors (row ids keep
    growing), :meth:`remove` tombstones rows (their ids are never handed
    out again and they stop appearing in results) and :meth:`update_rows`
    swaps vectors in place.  Mutation copies the matrix on first write, so
    an index built over an embedding set's matrix never corrupts it.

    The matrix is *not* copied at construction: a read-only array — in
    particular an :meth:`EmbeddingStore.open_matrix_readonly` memory map
    whose pages are shared across shard processes — is queried in place,
    and only the first mutating call materialises a private writable copy.
    """

    def __init__(self, matrix: np.ndarray, metric: str = "cosine") -> None:
        if metric not in METRICS:
            raise ServingError(f"unknown metric {metric!r}; expected one of {METRICS}")
        # float32 and float64 matrices are indexed as-is — upcasting a
        # float32 store artifact (or its read-only mmap) to float64 would
        # silently double the resident memory the narrow dtype was chosen
        # to halve; anything else is normalised to float64
        matrix = np.asarray(matrix)
        if matrix.dtype not in (np.float32, np.float64):
            matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ServingError("index matrix must be two-dimensional")
        self.metric = metric
        self.matrix = matrix
        self._row_norms = np.linalg.norm(matrix, axis=1)
        self._active = np.ones(matrix.shape[0], dtype=bool)
        self._owns_matrix = False

    @property
    def n_rows(self) -> int:
        """Number of row ids ever issued (tombstoned rows included)."""
        return self.matrix.shape[0]

    @property
    def active_count(self) -> int:
        """Number of searchable (non-tombstoned) vectors."""
        return int(self._active.sum())

    @property
    def has_tombstones(self) -> bool:
        """Whether any row has been removed."""
        return self.active_count != self.n_rows

    @property
    def active_rows(self) -> np.ndarray:
        """Ids of all searchable rows, ascending."""
        return np.nonzero(self._active)[0]

    @property
    def dimension(self) -> int:
        """Dimensionality of the indexed vectors."""
        return self.matrix.shape[1]

    def memory_bytes(self) -> int:
        """Resident bytes this index needs to answer queries.

        The honest Pareto metric: everything the query path touches per
        scan — for a flat index that is the full matrix plus norms.  A
        compressed index (PQ) overrides this to count its codes and
        codebooks instead of the matrix, because its scan never reads the
        raw vectors (only the re-ranking shortlist gathers a handful of
        rows, which an mmap serves from disk).
        """
        return int(
            self.matrix.nbytes + self._row_norms.nbytes + self._active.nbytes
        )

    # ------------------------------------------------------------------ #
    # mutation plumbing
    # ------------------------------------------------------------------ #
    def _ensure_owned(self) -> None:
        """Copy-on-first-write: never mutate a caller's matrix in place.

        Also the only point where a read-only (e.g. memory-mapped) matrix
        is materialised into private writable memory.
        """
        if not self._owns_matrix:
            self.matrix = np.array(self.matrix, copy=True)
            self._owns_matrix = True

    def _prepare_new_vectors(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=self.matrix.dtype)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.ndim != 2 or vectors.shape[1] != self.dimension:
            raise ServingError(
                f"vectors have shape {vectors.shape}, expected "
                f"(count, {self.dimension})"
            )
        return vectors

    def _append_rows(self, vectors: np.ndarray) -> np.ndarray:
        """Grow the matrix by ``vectors``; returns the new row ids."""
        self._ensure_owned()
        start = self.n_rows
        self.matrix = np.vstack((self.matrix, vectors))
        self._row_norms = np.concatenate(
            (self._row_norms, np.linalg.norm(vectors, axis=1))
        )
        self._active = np.concatenate(
            (self._active, np.ones(vectors.shape[0], dtype=bool))
        )
        return np.arange(start, self.n_rows, dtype=np.int64)

    def _validate_rows(self, rows, require_active: bool = True) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ServingError(
                f"row ids outside 0..{self.n_rows - 1}"
            )
        if require_active and rows.size and not self._active[rows].all():
            raise ServingError("cannot touch a removed (tombstoned) row")
        return rows

    @abstractmethod
    def add(self, vectors: np.ndarray) -> np.ndarray:
        """Append vectors; returns their newly assigned row ids."""

    @abstractmethod
    def remove(self, rows) -> None:
        """Tombstone rows: they stop appearing in any query result."""

    @abstractmethod
    def update_rows(self, rows, vectors: np.ndarray) -> None:
        """Replace the vectors of existing rows (ids stay stable)."""

    def _prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        # queries score in the matrix dtype: a mixed float32/float64
        # matmul would upcast (i.e. copy) the whole matrix per batch
        queries = np.asarray(queries, dtype=self.matrix.dtype)
        if queries.ndim != 2 or queries.shape[1] != self.dimension:
            raise ServingError(
                f"query batch has shape {queries.shape}, expected "
                f"(batch, {self.dimension})"
            )
        return queries

    def _score_rows(
        self, rows: np.ndarray, row_norms: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """Similarity of every row against every query, shape ``(rows, batch)``.

        The cosine denominator follows the historical
        :meth:`TextValueEmbeddingSet.nearest` formula: any denominator
        below epsilon is clamped, so degenerate rows (zero or
        numerically-vanishing norm, e.g. near-cancellation during solving)
        score ~0 instead of having their noise direction rank at the top.
        """
        products = rows @ queries.T
        if self.metric == "dot":
            return products
        query_norms = np.linalg.norm(queries, axis=1)
        denom = row_norms[:, None] * (query_norms[None, :] + _EPSILON)
        # in place, same operations in the same order: bitwise the
        # out-of-place formula, without two more full-width temporaries
        np.maximum(denom, _EPSILON, out=denom)
        return np.divide(products, denom, out=products)

    def _select(
        self,
        scores: np.ndarray,
        k: int,
        queries: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` of ``(positions, batch)`` BLAS ``scores``, ties by id.

        BLAS rounding depends on a row's position in the call and on the
        batch width, so two copies of one vector can score an ulp apart,
        and which copy ranks first would depend on the batch.  Every
        column's top ``k`` and each candidate within the rounding bound
        (:meth:`_slack`) of its ``k``-th score are shortlisted, copies of
        one vector among them share their highest score
        (:meth:`_share_copy_scores`), and the answer is the first ``k`` on
        ``(score desc, row id asc)``.  ``ids`` maps positions to row ids,
        shape ``(batch, positions)`` (or one row for every query);
        ``None`` means positions are row ids.
        """
        slack = self._slack(queries)
        top, extra = _topk_band(scores, k, slack)
        lines = np.arange(top.shape[0])[:, None]
        if extra is None and ids is None:
            found = scores[top, lines]
            with np.errstate(invalid="ignore"):  # -inf - -inf: no pair
                gaps = found[:, :-1] - found[:, 1:]
            if not ((gaps > 0) & (gaps <= slack[:, None])).any():
                return top, found  # no copy can hide: already the answer
        band = top if extra is None else np.hstack((top, extra))
        valid = band >= 0
        position = np.where(valid, band, 0)
        found = scores[position, lines]
        found[~valid] = -np.inf
        rows = position if ids is None else ids[lines % ids.shape[0], position]
        rows = np.where(valid, rows, np.iinfo(np.int64).max)
        self._share_copy_scores(rows, found, slack)
        order = np.lexsort((rows, -found), axis=1)[:, : top.shape[1]]
        return (
            np.take_along_axis(rows, order, axis=1),
            np.take_along_axis(found, order, axis=1),
        )

    def _slack(self, queries: np.ndarray) -> np.ndarray:
        """Per query, a bound on how far apart BLAS can round the scores of
        two copies of one vector: each sum of ``d`` products is within
        ``d·eps/2`` of the exact one, relative to ``|row|·|query|``, so
        copies differ by at most ``d·eps`` plus the cosine division's
        rounding; twice that."""
        slack = 2 * self.dimension * float(np.finfo(self.matrix.dtype).eps)
        if self.metric == "cosine":
            return np.full(queries.shape[0], slack)
        largest = float(self._row_norms.max(initial=0.0))
        return slack * largest * np.linalg.norm(queries, axis=1)

    def _share_copy_scores(
        self, rows: np.ndarray, found: np.ndarray, slack: np.ndarray
    ) -> None:
        """Give every copy of one vector in an answer row its copies' best
        score, in place.  Copies score within ``slack`` of each other, so
        only pairs of unequal scores that close compare vectors."""
        order = np.argsort(found, axis=1)
        ranked = np.take_along_axis(found, order, axis=1)
        lines, firsts, seconds = [], [], []
        for shift in range(1, found.shape[1]):
            with np.errstate(invalid="ignore"):  # -inf - -inf: no pair
                gaps = ranked[:, shift:] - ranked[:, :-shift]
            close = gaps <= slack[:, None]
            if not close.any():
                break
            line, at = np.nonzero(close & (gaps > 0))
            lines.append(line)
            firsts.append(order[line, at])
            seconds.append(order[line, at + shift])
        if not lines:
            return
        line, first, second = map(np.concatenate, (lines, firsts, seconds))
        a, b = rows[line, first], rows[line, second]
        real = (a >= 0) & (a < self.n_rows) & (b >= 0) & (b < self.n_rows)
        copies = real.copy()
        copies[real] = (self.matrix[a[real]] == self.matrix[b[real]]).all(axis=1)
        line, first, second = line[copies], first[copies], second[copies]
        best = found.copy()
        np.maximum.at(best, (line, first), found[line, second])
        np.maximum.at(best, (line, second), found[line, first])
        found[:] = best

    def query(self, vector: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` row indices and scores for one query vector."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dimension,):
            raise ServingError(
                f"query vector has shape {vector.shape}, "
                f"expected ({self.dimension},)"
            )
        indices, scores = self.query_batch(vector[None, :], k)
        return indices[0], scores[0]

    @abstractmethod
    def query_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` search for a ``(batch, dimension)`` matrix of queries.

        Returns ``(indices, scores)`` arrays of shape ``(batch, k')`` with
        ``k' = min(k, reachable rows)``, each row sorted by descending
        score: asking for more neighbours than the index holds yields
        fewer columns, never fill values.  Only the IVF index pads — a row
        whose probed cells hold fewer candidates than another row's gets a
        tail of index ``-1`` / score ``-inf`` so the batch stays
        rectangular.
        """


class FlatIndex(VectorIndex):
    """Exact brute-force search, vectorised over the query batch."""

    def query_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        queries = self._prepare_queries(queries)
        if self.n_rows == 0:
            batch = queries.shape[0]
            return (
                np.empty((batch, 0), dtype=np.int64),
                np.empty((batch, 0), dtype=np.float64),
            )
        # (rows, batch), the GEMM's own layout: selection never transposes
        scores = self._score_rows(self.matrix, self._row_norms, queries)
        if self.has_tombstones:
            scores[~self._active] = -np.inf
        indices, top_scores = self._select(scores, k, queries)
        if self.has_tombstones:
            # a tombstoned row can only surface when k exceeds the number
            # of active rows; mark it like the IVF padding does
            indices[~np.isfinite(top_scores)] = -1
        return indices, top_scores

    def add(self, vectors: np.ndarray) -> np.ndarray:
        return self._append_rows(self._prepare_new_vectors(vectors))

    def remove(self, rows) -> None:
        rows = self._validate_rows(rows, require_active=False)
        self._active[rows] = False

    def update_rows(self, rows, vectors: np.ndarray) -> None:
        rows = self._validate_rows(rows)
        vectors = self._prepare_new_vectors(vectors)
        if vectors.shape[0] != rows.size:
            raise ServingError("update needs one vector per row id")
        self._ensure_owned()
        self.matrix[rows] = vectors
        self._row_norms[rows] = np.linalg.norm(vectors, axis=1)


class IVFIndex(VectorIndex):
    """Inverted-file index with a spherical k-means coarse quantiser.

    Parameters
    ----------
    matrix:
        The vectors to index.
    metric:
        ``"cosine"`` or ``"dot"``.  The coarse quantiser always clusters by
        direction (unit-normalised rows), which is exact for cosine and a
        reasonable partition for dot product; ``nprobe == n_cells`` is
        always exhaustive and therefore exact for both metrics.
    n_cells:
        Number of k-means cells; defaults to ``round(sqrt(n_rows))``.
    nprobe:
        Number of cells searched per query.
    train_iterations:
        Lloyd iterations of the k-means training pass.
    seed:
        Seed of the k-means initialisation.
    """

    #: ``imbalance()`` level beyond which the next query re-runs k-means.
    DEFAULT_RECLUSTER_THRESHOLD = 4.0

    def __init__(
        self,
        matrix: np.ndarray,
        metric: str = "cosine",
        n_cells: int | None = None,
        nprobe: int = 8,
        train_iterations: int = 10,
        seed: int = 0,
        recluster_threshold: float = DEFAULT_RECLUSTER_THRESHOLD,
    ) -> None:
        super().__init__(matrix, metric)
        if self.n_rows == 0:
            raise ServingError("cannot build an IVF index over an empty matrix")
        if n_cells is None:
            n_cells = max(1, int(round(np.sqrt(self.n_rows))))
        if n_cells <= 0:
            raise ServingError("n_cells must be positive")
        if nprobe <= 0:
            raise ServingError("nprobe must be positive")
        self.n_cells = min(int(n_cells), self.n_rows)
        self.nprobe = int(nprobe)
        self.recluster_threshold = float(recluster_threshold)
        self._train_iterations = int(train_iterations)
        self._seed = int(seed)
        self._needs_recluster = False
        self._reclusters = 0
        self._train(int(train_iterations), int(seed))

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #
    def _train(self, iterations: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        safe_norms = np.where(self._row_norms < _EPSILON, 1.0, self._row_norms)
        unit = self.matrix / safe_norms[:, None]

        chosen = rng.choice(self.n_rows, size=self.n_cells, replace=False)
        centroids = unit[chosen].copy()
        for _ in range(max(1, iterations)):
            assignment = np.argmax(unit @ centroids.T, axis=1)
            for cell in range(self.n_cells):
                members = np.nonzero(assignment == cell)[0]
                if members.size == 0:
                    # re-seed an empty cell on a random row to keep all
                    # cells usable
                    centroids[cell] = unit[int(rng.integers(self.n_rows))]
                    continue
                mean = unit[members].mean(axis=0)
                norm = np.linalg.norm(mean)
                centroids[cell] = mean / norm if norm > _EPSILON else mean
        # one final assignment against the finished centroids, so probing
        # and stored cell membership agree
        assignment = np.argmax(unit @ centroids.T, axis=1)
        self.centroids = centroids
        self._finalise(assignment)

    def _finalise(self, assignment: np.ndarray) -> None:
        """Build the per-cell search structures from a row→cell assignment."""
        self._assignment = np.asarray(assignment, dtype=np.int64)
        # contiguous per-cell copies: every probe becomes one dense matmul
        self._cell_ids: list[np.ndarray] = []
        self._cell_matrices: list[np.ndarray] = []
        self._cell_norms: list[np.ndarray] = []
        for cell in range(self.n_cells):
            members = np.nonzero(self._assignment == cell)[0].astype(np.int64)
            self._cell_ids.append(members)
            self._cell_matrices.append(np.ascontiguousarray(self.matrix[members]))
            self._cell_norms.append(self._row_norms[members])
        self._empty_cells = np.array(
            [ids.size == 0 for ids in self._cell_ids], dtype=bool
        )

    @property
    def assignments(self) -> np.ndarray:
        """The trained row→cell assignment, shape ``(n_rows,)``.

        Together with :attr:`centroids` this is the complete trained state:
        :meth:`from_state` rebuilds an identical index without re-running
        k-means (the basis of on-disk index persistence).
        """
        return self._assignment

    @classmethod
    def from_state(
        cls,
        matrix: np.ndarray,
        centroids: np.ndarray,
        assignments: np.ndarray,
        metric: str = "cosine",
        nprobe: int = 8,
    ) -> "IVFIndex":
        """Rebuild an index from persisted ``centroids`` + ``assignments``.

        Skips the k-means training pass entirely; the reconstructed index
        answers every query exactly like the one that was saved.
        """
        index = cls.__new__(cls)
        VectorIndex.__init__(index, matrix, metric)
        if index.n_rows == 0:
            raise ServingError("cannot restore an IVF index over an empty matrix")
        centroids = np.asarray(centroids, dtype=np.float64)
        assignments = np.asarray(assignments, dtype=np.int64)
        if centroids.ndim != 2 or centroids.shape[1] != index.dimension:
            raise ServingError(
                f"centroids have shape {centroids.shape}, expected "
                f"(n_cells, {index.dimension})"
            )
        if centroids.shape[0] == 0:
            raise ServingError("restored index needs at least one centroid")
        if assignments.shape != (index.n_rows,):
            raise ServingError(
                f"assignments have shape {assignments.shape}, expected "
                f"({index.n_rows},)"
            )
        if assignments.size and (
            assignments.min() < 0 or assignments.max() >= centroids.shape[0]
        ):
            raise ServingError(
                "assignments reference cells outside "
                f"0..{centroids.shape[0] - 1}"
            )
        if nprobe <= 0:
            raise ServingError("nprobe must be positive")
        index.n_cells = int(centroids.shape[0])
        index.nprobe = int(nprobe)
        index.recluster_threshold = cls.DEFAULT_RECLUSTER_THRESHOLD
        index._train_iterations = 10
        index._seed = 0
        index._needs_recluster = False
        index._reclusters = 0
        index.centroids = centroids
        index._finalise(assignments)
        return index

    @classmethod
    def from_partial_state(
        cls,
        matrix: np.ndarray,
        centroids: np.ndarray,
        assignments: np.ndarray,
        metric: str = "cosine",
        nprobe: int = 8,
    ) -> "IVFIndex":
        """Rebuild from persisted state where some rows lack an assignment.

        Rows whose assignment is ``-1`` (e.g. appended by a delta record
        after the index was saved) are assigned to their nearest centroid —
        the whole k-means training pass is still skipped.
        """
        assignments = np.asarray(assignments, dtype=np.int64).copy()
        centroids = np.asarray(centroids, dtype=np.float64)
        matrix = np.asarray(matrix, dtype=np.float64)
        missing = np.nonzero(assignments < 0)[0]
        if missing.size:
            if centroids.ndim != 2 or centroids.shape[1] != matrix.shape[1]:
                raise ServingError(
                    f"centroids have shape {centroids.shape}, expected "
                    f"(n_cells, {matrix.shape[1]})"
                )
            vectors = matrix[missing]
            norms = np.linalg.norm(vectors, axis=1)
            safe = np.where(norms < _EPSILON, 1.0, norms)
            assignments[missing] = np.argmax(
                (vectors / safe[:, None]) @ centroids.T, axis=1
            )
        return cls.from_state(
            matrix, centroids, assignments, metric=metric, nprobe=nprobe
        )

    def cell_sizes(self) -> list[int]:
        """Number of vectors stored in each cell."""
        return [ids.size for ids in self._cell_ids]

    def memory_bytes(self) -> int:
        """Matrix + norms + centroids + the contiguous per-cell copies."""
        return super().memory_bytes() + int(
            self.centroids.nbytes
            + self._assignment.nbytes
            + sum(m.nbytes for m in self._cell_matrices)
            + sum(ids.nbytes for ids in self._cell_ids)
            + sum(norms.nbytes for norms in self._cell_norms)
        )

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def imbalance(self) -> float:
        """``max cell size / mean active cell load`` (1.0 = perfectly even)."""
        active = self.active_count
        if active == 0:
            return 1.0
        largest = max(ids.size for ids in self._cell_ids)
        return largest / (active / self.n_cells)

    @property
    def needs_recluster(self) -> bool:
        """Whether the next query will re-run the coarse quantiser."""
        return self._needs_recluster

    @property
    def recluster_count(self) -> int:
        """How many times the quantiser has been lazily retrained."""
        return self._reclusters

    def _note_mutation(self) -> None:
        if self.imbalance() > self.recluster_threshold:
            self._needs_recluster = True

    def _cell_append(self, cell: int, rows: np.ndarray) -> None:
        self._cell_ids[cell] = np.concatenate((self._cell_ids[cell], rows))
        self._cell_matrices[cell] = np.vstack(
            (self._cell_matrices[cell], self.matrix[rows])
        )
        self._cell_norms[cell] = np.concatenate(
            (self._cell_norms[cell], self._row_norms[rows])
        )
        self._empty_cells[cell] = False

    def _cell_discard(self, rows: np.ndarray) -> None:
        for cell in np.unique(self._assignment[rows]):
            if cell < 0:
                continue
            keep = ~np.isin(self._cell_ids[cell], rows)
            self._cell_ids[cell] = self._cell_ids[cell][keep]
            self._cell_matrices[cell] = self._cell_matrices[cell][keep]
            self._cell_norms[cell] = self._cell_norms[cell][keep]
            self._empty_cells[cell] = self._cell_ids[cell].size == 0

    def _assign_to_cells(self, vectors: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(vectors, axis=1)
        safe = np.where(norms < _EPSILON, 1.0, norms)
        return np.argmax((vectors / safe[:, None]) @ self.centroids.T, axis=1)

    def add(self, vectors: np.ndarray) -> np.ndarray:
        """Append vectors, assigning each to its nearest centroid.

        No re-training happens on the spot; when the accumulated inserts
        leave the cells imbalanced past :attr:`recluster_threshold`, the
        next query lazily re-runs the coarse quantiser.
        """
        vectors = self._prepare_new_vectors(vectors)
        ids = self._append_rows(vectors)
        assigned = self._assign_to_cells(vectors)
        self._assignment = np.concatenate((self._assignment, assigned))
        for cell in np.unique(assigned):
            self._cell_append(int(cell), ids[assigned == cell])
        self._note_mutation()
        return ids

    def remove(self, rows) -> None:
        rows = self._validate_rows(rows, require_active=False)
        rows = rows[self._active[rows]]
        if not rows.size:
            return
        self._active[rows] = False
        self._cell_discard(rows)
        self._assignment[rows] = -1
        self._note_mutation()

    def update_rows(self, rows, vectors: np.ndarray) -> None:
        """Swap vectors in place; rows migrate to their nearest centroid."""
        rows = self._validate_rows(rows)
        vectors = self._prepare_new_vectors(vectors)
        if vectors.shape[0] != rows.size:
            raise ServingError("update needs one vector per row id")
        self._ensure_owned()
        self._cell_discard(rows)
        self.matrix[rows] = vectors
        self._row_norms[rows] = np.linalg.norm(vectors, axis=1)
        assigned = self._assign_to_cells(vectors)
        self._assignment[rows] = assigned
        for cell in np.unique(assigned):
            self._cell_append(int(cell), rows[assigned == cell])
        self._note_mutation()

    def rebalance(self) -> None:
        """Re-run the spherical k-means quantiser over the active rows."""
        rows = self.active_rows
        if rows.size == 0:
            self._needs_recluster = False
            return
        rng = np.random.default_rng(self._seed + self._reclusters + 1)
        norms = self._row_norms[rows]
        safe = np.where(norms < _EPSILON, 1.0, norms)
        unit = self.matrix[rows] / safe[:, None]
        n_cells = min(self.n_cells, rows.size)
        chosen = rng.choice(rows.size, size=n_cells, replace=False)
        centroids = unit[chosen].copy()
        for _ in range(max(1, self._train_iterations)):
            assignment = np.argmax(unit @ centroids.T, axis=1)
            for cell in range(n_cells):
                members = np.nonzero(assignment == cell)[0]
                if members.size == 0:
                    centroids[cell] = unit[int(rng.integers(rows.size))]
                    continue
                mean = unit[members].mean(axis=0)
                norm = np.linalg.norm(mean)
                centroids[cell] = mean / norm if norm > _EPSILON else mean
        assignment = np.argmax(unit @ centroids.T, axis=1)
        full = np.full(self.n_rows, -1, dtype=np.int64)
        full[rows] = assignment
        self.n_cells = n_cells
        self.centroids = centroids
        self._finalise(full)
        self._needs_recluster = False
        self._reclusters += 1

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def _probed_cells(self, queries: np.ndarray) -> np.ndarray:
        query_norms = np.linalg.norm(queries, axis=1)
        safe = np.where(query_norms < _EPSILON, 1.0, query_norms)
        centroid_scores = (queries / safe[:, None]) @ self.centroids.T
        # never spend a probe on an empty cell (a reseeded centroid can sit
        # on top of a query yet hold no vectors)
        centroid_scores[:, self._empty_cells] = -np.inf
        return topk_descending(centroid_scores, min(self.nprobe, self.n_cells))

    def query_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._needs_recluster:
            self.rebalance()  # lazy: piles of adds/removes settle here
        queries = self._prepare_queries(queries)
        batch = queries.shape[0]
        probed = self._probed_cells(queries)

        cell_queries: dict[int, list[int]] = {}
        for row, cells in enumerate(probed):
            for cell in cells:
                cell_queries.setdefault(int(cell), []).append(row)

        counts = np.zeros(batch, dtype=np.int64)
        for cell, rows in cell_queries.items():
            counts[rows] += self._cell_ids[cell].size
        width = int(counts.max()) if batch else 0

        candidate_ids = np.full((batch, width), -1, dtype=np.int64)
        candidate_scores = np.full((batch, width), -np.inf, dtype=np.float64)
        fill = np.zeros(batch, dtype=np.int64)
        for cell, rows in cell_queries.items():
            ids = self._cell_ids[cell]
            if ids.size == 0:
                continue
            block = self._score_rows(
                self._cell_matrices[cell], self._cell_norms[cell], queries[rows]
            )
            for position, row in enumerate(rows):
                start = fill[row]
                candidate_ids[row, start:start + ids.size] = ids
                candidate_scores[row, start:start + ids.size] = block[:, position]
                fill[row] += ids.size

        k = min(int(k), width) if width else 0
        if k <= 0:
            return (
                np.empty((batch, 0), dtype=np.int64),
                np.empty((batch, 0), dtype=np.float64),
            )
        indices, scores = self._select(
            candidate_scores.T, k, queries, candidate_ids
        )
        indices[~np.isfinite(scores)] = -1
        return indices, scores
