"""The ``build`` workload: a database becomes text-value vectors.

One build runs every offline stage of the paper's Table 2 over the same
database — extraction, initialisation, the RN and RO solves, DeepWalk
(graph, walks, skip-gram) — then saves the three vector sets to a store
and builds the serving index.  No serving layer runs.
"""

from __future__ import annotations

import hashlib
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import RetroHyperparameters, RetroSolver, extract_text_values
from repro.deepwalk import SkipGramConfig, SkipGramModel
from repro.graph import RandomWalkGenerator, build_graph
from repro.graph.builder import text_value_node_id
from repro.graph.random_walk import PAD
from repro.retrofit import TextValueEmbeddingSet
from repro.retrofit.initialization import initialise_vectors
from repro.serving import EmbeddingStore, default_index_factory
from repro.text.tokenizer import Tokenizer

import inputs
from harness import Outcome, Tracer, median_setup, summarise

#: DeepWalk sized so one build fits a run: 2 walks of 10 steps per node,
#: one skip-gram epoch (the library default is 10 walks of 20, 2 epochs).
WALK_LENGTH = 10
WALKS_PER_NODE = 2
SGNS_EPOCHS = 1
#: Database of the warm-up build that is part of set-up.
WARMUP_MOVIES = 300


class Stages:
    """Wall time of each stage of one build, recorded next to its span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.seconds: dict[str, float] = {}

    def run(self, name: str, fn, *args, **kwargs):
        began = time.perf_counter()
        with self.tracer.span(name):
            result = fn(*args, **kwargs)
        self.seconds[name] = time.perf_counter() - began
        return result


def deepwalk_matrix(extraction, corpus, model) -> np.ndarray:
    """Skip-gram vectors aligned with the extraction's rows."""
    matrix = np.zeros((len(extraction), model.config.dimension))
    for record in extraction.records:
        node_id = text_value_node_id(record.index)
        if node_id in model:
            matrix[record.index] = model.vector(node_id)
    return matrix


def build_once(dataset, store: EmbeddingStore, name: str, tracer: Tracer,
               seed: int) -> dict:
    stages = Stages(tracer)
    began = time.perf_counter()
    with tracer.span("build"):
        extraction = stages.run(
            "extraction.extract", extract_text_values, dataset.database
        )
        tokenizer = Tokenizer(dataset.embedding)
        base = stages.run(
            "initialization.init", initialise_vectors, extraction,
            dataset.embedding, tokenizer,
        )
        rn, rn_report = stages.run(
            "retro.solve_rn",
            RetroSolver(extraction, base.matrix,
                        RetroHyperparameters.paper_rn_default()).solve,
            method="series",
        )
        ro, ro_report = stages.run(
            "retro.solve_ro",
            RetroSolver(extraction, base.matrix,
                        RetroHyperparameters.paper_ro_default()).solve,
            method="optimization",
        )
        graph = stages.run("graph.build", build_graph, extraction)
        corpus = stages.run(
            "graph.walks",
            RandomWalkGenerator(graph, walk_length=WALK_LENGTH,
                                walks_per_node=WALKS_PER_NODE, seed=seed).walk_corpus,
        )
        model = stages.run(
            "deepwalk.sgns",
            lambda: SkipGramModel.from_corpus(corpus, SkipGramConfig(
                dimension=inputs.DIMENSION, epochs=SGNS_EPOCHS, seed=seed,
            )).train(),
        )
        dw = deepwalk_matrix(extraction, corpus, model)
        sets = {
            "rn": TextValueEmbeddingSet(extraction, rn, name="RN"),
            "ro": TextValueEmbeddingSet(extraction, ro, name="RO"),
            "dw": TextValueEmbeddingSet(extraction, dw, name="DW"),
        }
        paths = stages.run("store.save", lambda: [
            store.save_embedding_set(f"{name}-{kind}", vectors)
            for kind, vectors in sets.items()
        ])
        stages.run("index.build", default_index_factory(), rn)
    return {
        "seconds": time.perf_counter() - began,
        "stages": stages.seconds,
        "sets": sets,
        "reports": {"rn": rn_report, "ro": ro_report},
        "values": len(extraction),
        "walk_tokens": int((corpus.matrix != PAD).sum()),
        "store_bytes": sum(
            f.stat().st_size
            for p in map(Path, paths) for f in p.parent.glob(f"{p.stem}.*")
        ),
    }


def digest(matrix: np.ndarray) -> str:
    array = np.ascontiguousarray(matrix)
    return hashlib.sha256(str(array.dtype).encode() + array.tobytes()).hexdigest()


def build_checks(store: EmbeddingStore, name: str, result: dict) -> list[str]:
    problems = []
    for kind, report in result["reports"].items():
        if not report.converged:
            problems.append(
                f"{kind} solve did not converge in {report.iterations} iterations"
            )
    for kind, expected in result["digests"].items():
        reloaded = store.load_embedding_set(f"{name}-{kind}")
        if digest(reloaded.matrix) != expected:
            problems.append(f"store reload of {kind} differs from the build")
    return problems


def build(seed: int, seconds: float, workdir: Path, tracer: Tracer) -> Outcome:
    dataset = inputs.tmdb(seed)
    warmup = inputs.tmdb(seed, WARMUP_MOVIES)

    def setup() -> EmbeddingStore:
        store = EmbeddingStore(tempfile.mkdtemp(prefix="build-store-", dir=workdir))
        build_once(warmup, store, "warmup", Tracer(False), seed)
        return store

    store, setups = median_setup(setup, lambda store: None)

    results, violations = [], []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        result = build_once(dataset, store, f"b{len(results)}", tracer, seed)
        # keep digests, not matrices: memory must not grow with the number
        # of builds that fit the window
        result["digests"] = {
            kind: digest(vectors.matrix) for kind, vectors in result.pop("sets").items()
        }
        results.append(result)
    wall = time.perf_counter() - started
    for number, result in enumerate(results):
        violations += build_checks(store, f"b{number}", result)

    summary = summarise([r["seconds"] for r in results])
    values = results[0]["values"]

    def median_stage(*names):
        return statistics.median(
            sum(r["stages"][n] for n in names) for r in results
        )

    return Outcome(
        metrics={
            "ops_per_s": (values * len(results) / wall, "1/s"),
            "p50_ms": (summary["p50_ms"], "ms"),
            "tail_ms": (summary["tail_ms"], "ms"),
        },
        detail={
            "setup_s_each": setups,
            "builds": len(results),
            "values": values,
            "build_rn_s": median_stage("retro.solve_rn"),
            "build_ro_s": median_stage("retro.solve_ro"),
            "build_dw_s": median_stage("graph.build", "graph.walks", "deepwalk.sgns"),
            "build_tail_pct": summary["tail_pct"],
            "stage_s": {name: median_stage(name) for name in results[0]["stages"]},
            "rn_iterations": [r["reports"]["rn"].iterations for r in results],
            "ro_iterations": [r["reports"]["ro"].iterations for r in results],
        },
        setup_s=statistics.median(setups),
        attempted=len(results),
        violations=violations,
    )
