"""Workload inputs, generated from the workload seed alone.

Every input goes through the public ``repro`` API (dataset generator,
extraction, solver) or is built here from the seed: the program under
test only ever receives the generated database, deltas and query vectors.
"""

from __future__ import annotations

import numpy as np

from repro import (
    ColumnType,
    Database,
    RetroHyperparameters,
    RetroSolver,
    extract_text_values,
)
from repro.db.database import build_table_schema
from repro.datasets import generate_tmdb
from repro.datasets import vocabulary as vocab
from repro.db.delta import DatabaseDelta
from repro.retrofit import TextValueEmbeddingSet
from repro.retrofit.initialization import initialise_vectors
from repro.text.tokenizer import Tokenizer

#: The build corpus: ~5k text values, 64-dimensional word vectors.
BUILD_MOVIES = 1000
#: The bulk-scan corpus: 5x10^4 text values.
SCAN_VALUES = 50_000
DIMENSION = 64


def tmdb(seed: int, movies: int = BUILD_MOVIES):
    return generate_tmdb(
        num_movies=movies, seed=seed, embedding_dimension=DIMENSION
    )


def served_corpus(dataset):
    """The offline build behind the HTTP workloads: the RN solve.

    Returns ``(embeddings, base_matrix, tokenizer, hyperparams)`` —
    what the serving tier's incremental retrofitter continues from.
    """
    extraction = extract_text_values(dataset.database)
    tokenizer = Tokenizer(dataset.embedding)
    base = initialise_vectors(extraction, dataset.embedding, tokenizer)
    hyperparams = RetroHyperparameters.paper_rn_default()
    matrix, _ = RetroSolver(extraction, base.matrix, hyperparams).solve(
        method="series"
    )
    embeddings = TextValueEmbeddingSet(extraction, matrix, name="RN")
    return embeddings, base.matrix, tokenizer, hyperparams


def scan_corpus(seed: int) -> TextValueEmbeddingSet:
    """The bulk-scan corpus: one text column of SCAN_VALUES values whose
    vectors are drawn around 256 cluster centres.

    Made directly from the seed: generating and solving a TMDB database
    this size would cost more than the measured window, and the exact
    flat scan's work depends only on the matrix shape.
    """
    database = Database("scan")
    database.create_table(build_table_schema(
        "items", [("id", ColumnType.INTEGER), ("text", ColumnType.TEXT)],
        primary_key="id",
    ))
    rng = np.random.default_rng([seed, 3])
    words = [word for pool in vocab.MOVIE_GENRES.values() for word in pool]
    database.insert_many("items", (
        {"id": i, "text": f"{words[int(rng.integers(0, len(words)))]} {i}"}
        for i in range(SCAN_VALUES)
    ))
    extraction = extract_text_values(database)
    centres = rng.normal(size=(256, DIMENSION))
    matrix = centres[rng.integers(0, 256, len(extraction))]
    matrix += 0.5 * rng.normal(size=matrix.shape)
    return TextValueEmbeddingSet(extraction, matrix, name="scan")


def queries(matrix: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """Stored vectors plus 2 % noise: distinct, near the data distribution.

    Rows without a vector (values with no in-vocabulary token) are never
    drawn: a query near zero has no meaningful cosine neighbours.
    """
    nonzero = np.flatnonzero(np.linalg.norm(matrix, axis=1) > 1e-9)
    rows = nonzero[rng.integers(0, nonzero.size, size=n)]
    out = np.asarray(matrix[rows], dtype=np.float64).copy()
    scale = np.maximum(np.linalg.norm(out, axis=1, keepdims=True), 1e-9)
    out += rng.normal(0.0, 0.02, out.shape) * scale
    return out


def _next_id(table) -> int:
    return max((row["id"] for row in table), default=0) + 1


def churn_delta(database, rng: np.random.Generator) -> DatabaseDelta:
    """One 1-movie churn batch: a new director and movie with its links
    and a review, an overview rewrite and a review deletion."""
    movies = database.table("movies")
    persons = database.table("persons")
    reviews = database.table("reviews")

    def pick(pool):
        return pool[int(rng.integers(0, len(pool)))]

    country = pick(vocab.COUNTRIES)
    genre = pick(list(vocab.MOVIE_GENRES))
    words = vocab.MOVIE_GENRES[genre]
    names = set(persons.distinct_values("name"))
    name = f"{pick(country.first_names)} {pick(country.last_names)}"
    while name in names:
        name = f"{name} {pick(country.last_names)}"
    titles = set(movies.distinct_values("title"))
    title = f"{pick(words)} {pick(vocab.TITLE_FILLER_WORDS)}"
    while title in titles:
        title = f"{title} {pick(vocab.TITLE_FILLER_WORDS)}"

    person_id, movie_id = _next_id(persons), _next_id(movies)
    delta = DatabaseDelta()
    delta.insert("persons", {"id": person_id, "name": name})
    delta.insert("movies", {
        "id": movie_id,
        "title": title,
        "original_language": country.language,
        "overview": " ".join([pick(words) for _ in range(8)] + [country.demonym]),
        "budget": float(rng.uniform(1e6, 9e7)),
        "revenue": float(rng.uniform(1e6, 3e8)),
        "popularity": float(rng.lognormal(1.2, 0.6)),
        "release_year": 2026,
        "collection_id": None,
    })
    for table, column, other in (
        ("movie_directors", "person_id", person_id),
        ("movie_countries", "country_id",
         int(rng.integers(1, len(database.table("countries")) + 1))),
        ("movie_keywords", "keyword_id",
         int(rng.integers(1, len(database.table("keywords")) + 1))),
    ):
        delta.insert(table, {
            "id": _next_id(database.table(table)), "movie_id": movie_id,
            column: other,
        })
    mood = vocab.POSITIVE_WORDS if rng.random() < 0.6 else vocab.NEGATIVE_WORDS
    delta.insert("reviews", {
        "id": _next_id(reviews), "movie_id": movie_id,
        "text": " ".join([pick(mood) for _ in range(5)] + [pick(words)] * 2),
    })
    victim = movies.rows[int(rng.integers(0, len(movies)))]
    delta.update("movies", victim["id"], overview=" ".join(
        [pick(words) for _ in range(7)] + [pick(vocab.TITLE_FILLER_WORDS)]
    ))
    delta.delete("reviews", reviews.rows[int(rng.integers(0, len(reviews)))]["id"])
    return delta


def churn_stream(seed: int, n: int) -> list[DatabaseDelta]:
    """``n`` churn deltas, each valid against the build database after
    the previous ones (generated against a private copy of it)."""
    scratch = tmdb(seed).database
    rng = np.random.default_rng([seed, 7])
    stream = []
    for _ in range(n):
        delta = churn_delta(scratch, rng)
        delta.apply_to(scratch)
        stream.append(delta)
    return stream
