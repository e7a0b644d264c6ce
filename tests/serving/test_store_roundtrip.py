"""Persistence round-trips of embedding sets and full pipeline results."""

import json
import os

import numpy as np
import pytest

from repro.errors import ReproError, StoreFormatError
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline, RetroResult
from repro.serving.store import (
    EmbeddingStore,
    STORE_VERSION,
    extraction_from_dict,
    extraction_to_dict,
)


@pytest.fixture(scope="module")
def tmdb_result(small_tmdb):
    pipeline = RetroPipeline(
        small_tmdb.database,
        small_tmdb.embedding,
        hyperparams=RetroHyperparameters(alpha=1.0, beta=0.5, gamma=2.0, delta=1.0),
        method="series",
    )
    return pipeline.run(include_node_embeddings=True, track_loss=True)


class TestReadOnlyMatrixAccess:
    """The checksum-once mmap read path (npz → .npy sidecar → memmap)."""

    @pytest.fixture()
    def saved(self, tmdb_extraction, tmdb_base, tmp_path):
        embeddings = TextValueEmbeddingSet(
            tmdb_extraction, tmdb_base.matrix.copy(), name="PV"
        )
        store = EmbeddingStore(tmp_path / "store")
        store.save_embedding_set("pv", embeddings, version=3)
        return store, embeddings

    def test_mapped_matrix_is_read_only_and_bit_exact(self, saved):
        store, embeddings = saved
        mapped = store.open_matrix_readonly("pv")
        assert isinstance(mapped, np.memmap)
        assert not mapped.flags.writeable
        assert np.array_equal(np.asarray(mapped), embeddings.matrix)

    def test_sidecar_extracted_once_then_reused(self, saved):
        store, _ = saved
        store.open_matrix_readonly("pv")
        sidecars = list(store.root.glob("pv.*.matrix.npy"))
        assert len(sidecars) == 1
        stamp = sidecars[0].stat().st_mtime_ns
        store.open_matrix_readonly("pv")
        assert sidecars[0].stat().st_mtime_ns == stamp  # not re-extracted
        assert not list(store.root.glob("*.tmp.sidecar.npy"))

    def test_unknown_array_raises(self, saved):
        store, _ = saved
        with pytest.raises(StoreFormatError, match="no array"):
            store.open_matrix_readonly("pv", array="nope")

    def test_load_embedding_set_readonly(self, saved):
        store, embeddings = saved
        loaded, version = store.load_embedding_set_readonly("pv")
        assert version == 3
        assert loaded.name == "PV"
        assert not loaded.matrix.flags.writeable
        assert np.array_equal(np.asarray(loaded.matrix), embeddings.matrix)
        assert loaded.extraction.texts == embeddings.extraction.texts

    def test_resave_garbage_collects_old_sidecar(self, saved):
        store, embeddings = saved
        store.open_matrix_readonly("pv")
        (old_sidecar,) = store.root.glob("pv.*.matrix.npy")
        os.utime(old_sidecar, (1, 1))  # age it past the grace period
        changed = TextValueEmbeddingSet(
            embeddings.extraction, embeddings.matrix + 1.0, name="PV"
        )
        store.save_embedding_set("pv", changed, version=4)
        assert not old_sidecar.exists()
        # the new artifact maps fine and sees the new bytes
        mapped = store.open_matrix_readonly("pv")
        assert np.array_equal(np.asarray(mapped), changed.matrix)

    def test_live_sidecar_survives_gc(self, saved):
        store, _ = saved
        store.open_matrix_readonly("pv")
        (sidecar,) = store.root.glob("pv.*.matrix.npy")
        os.utime(sidecar, (1, 1))  # ancient, yet referenced by the header
        header = json.loads((store.root / "pv.json").read_text())
        store._drop_stale_matrices("pv", keep=header["matrix_file"])
        assert sidecar.exists()


class TestExtractionSerialisation:
    def test_roundtrip_preserves_everything(self, tmdb_extraction):
        rebuilt = extraction_from_dict(extraction_to_dict(tmdb_extraction))
        assert rebuilt.texts == tmdb_extraction.texts
        assert rebuilt.categories == tmdb_extraction.categories
        assert len(rebuilt.relation_groups) == len(tmdb_extraction.relation_groups)
        for old, new in zip(tmdb_extraction.relation_groups, rebuilt.relation_groups):
            assert (old.name, old.kind, old.pairs) == (new.name, new.kind, new.pairs)
        for record in tmdb_extraction.records:
            assert rebuilt.index_of(record.category, record.text) == record.index

    def test_malformed_payload_raises(self):
        with pytest.raises(StoreFormatError):
            extraction_from_dict({"records": [[0, "a"]], "categories": {},
                                  "relation_groups": []})
        with pytest.raises(StoreFormatError):
            extraction_from_dict({})

    def test_misnumbered_records_raise(self, tmdb_extraction):
        payload = extraction_to_dict(tmdb_extraction)
        payload["records"][0][0] = 5
        with pytest.raises(StoreFormatError):
            extraction_from_dict(payload)


class TestEmbeddingSetRoundtrip:
    def test_bit_exact_matrix_and_order(self, tmdb_extraction, tmdb_base, tmp_path):
        embeddings = TextValueEmbeddingSet(
            tmdb_extraction, tmdb_base.matrix.copy(), name="PV"
        )
        store = EmbeddingStore(tmp_path / "store")
        store.save_embedding_set("pv", embeddings)
        loaded = store.load_embedding_set("pv")
        assert loaded.name == "PV"
        assert loaded.matrix.dtype == embeddings.matrix.dtype
        assert np.array_equal(loaded.matrix, embeddings.matrix)
        assert loaded.extraction.texts == tmdb_extraction.texts
        assert list(loaded.extraction.categories) == list(tmdb_extraction.categories)

    def test_listing_and_presence(self, tmdb_extraction, tmdb_base, tmp_path):
        embeddings = TextValueEmbeddingSet(tmdb_extraction, tmdb_base.matrix, "PV")
        store = EmbeddingStore(tmp_path / "store")
        assert store.list_artifacts() == []
        store.save_embedding_set("one", embeddings)
        store.save_embedding_set("two", embeddings)
        assert store.list_artifacts() == ["one", "two"]
        assert store.has_artifact("one") and not store.has_artifact("three")
        assert store.artifact_kind("one") == "embedding_set"


class TestRetroResultRoundtrip:
    def test_full_roundtrip(self, tmdb_result, tmp_path):
        tmdb_result.save(tmp_path / "model")
        loaded = RetroResult.load(tmp_path / "model")
        assert np.array_equal(loaded.embeddings.matrix, tmdb_result.embeddings.matrix)
        assert np.array_equal(loaded.base.matrix, tmdb_result.base.matrix)
        assert np.array_equal(loaded.base.oov_mask, tmdb_result.base.oov_mask)
        assert np.array_equal(loaded.plain.matrix, tmdb_result.plain.matrix)
        assert loaded.base.coverage == tmdb_result.base.coverage
        assert loaded.hyperparams == tmdb_result.hyperparams
        assert loaded.report.method == tmdb_result.report.method
        assert loaded.report.iterations == tmdb_result.report.iterations
        assert loaded.report.loss_history == tmdb_result.report.loss_history
        assert loaded.node_embeddings is not None
        assert np.array_equal(
            loaded.node_embeddings.matrix, tmdb_result.node_embeddings.matrix
        )
        assert loaded.node_embeddings.node_ids == tmdb_result.node_embeddings.node_ids
        assert loaded.combined is not None
        assert np.array_equal(loaded.combined.matrix, tmdb_result.combined.matrix)

    def test_loaded_result_answers_queries(self, tmdb_result, small_tmdb, tmp_path):
        tmdb_result.save(tmp_path / "model")
        loaded = RetroResult.load(tmp_path / "model")
        title = next(iter(small_tmdb.movie_language))
        vector = loaded.vector_for("movies.title", title)
        assert np.array_equal(vector, tmdb_result.vector_for("movies.title", title))
        hits = loaded.embeddings.nearest(vector, k=3, category="movies.title")
        assert hits[0][1] == title

    def test_pipeline_save_facade(self, tmdb_result, small_tmdb, tmp_path):
        pipeline = RetroPipeline(small_tmdb.database, small_tmdb.embedding)
        pipeline.save(tmdb_result, tmp_path / "model", name="run1")
        loaded = RetroResult.load(tmp_path / "model", name="run1")
        assert np.array_equal(loaded.embeddings.matrix, tmdb_result.embeddings.matrix)


class TestStoreValidation:
    @pytest.fixture()
    def saved(self, tmdb_result, tmp_path):
        root = tmp_path / "model"
        tmdb_result.save(root)
        return root

    def test_missing_artifact(self, saved):
        with pytest.raises(StoreFormatError, match="no artifact"):
            EmbeddingStore(saved).load_result("nope")

    def test_corrupted_matrix_file(self, saved):
        matrix_path = next(saved.glob("result.*.npz"))
        payload = bytearray(matrix_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        matrix_path.write_bytes(bytes(payload))
        with pytest.raises(StoreFormatError, match="corrupt"):
            RetroResult.load(saved)

    def test_version_mismatch(self, saved):
        header_path = saved / "result.json"
        header = json.loads(header_path.read_text())
        header["version"] = STORE_VERSION + 1
        header_path.write_text(json.dumps(header))
        with pytest.raises(StoreFormatError, match="version"):
            RetroResult.load(saved)

    def test_foreign_format_marker(self, saved):
        header_path = saved / "result.json"
        header = json.loads(header_path.read_text())
        header["format"] = "something-else"
        header_path.write_text(json.dumps(header))
        with pytest.raises(StoreFormatError):
            RetroResult.load(saved)

    def test_header_is_compact_json(self, saved):
        text = (saved / "result.json").read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        header = json.loads(text)
        assert text == json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"

    def test_indented_header_still_loads_and_verifies(self, tmdb_result, saved):
        """Stores saved with ``indent=2`` headers stay readable, and their
        matrix checksums are still checked."""
        header_path = saved / "result.json"
        header = json.loads(header_path.read_text())
        header_path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
        loaded = RetroResult.load(saved)
        assert np.array_equal(loaded.embeddings.matrix, tmdb_result.embeddings.matrix)
        matrix_path = saved / header["matrix_file"]
        payload = bytearray(matrix_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        matrix_path.write_bytes(bytes(payload))
        with pytest.raises(StoreFormatError, match="corrupt"):
            RetroResult.load(saved)

    def test_unparseable_header(self, saved):
        (saved / "result.json").write_text("{not json")
        with pytest.raises(StoreFormatError, match="unreadable"):
            RetroResult.load(saved)

    def test_kind_mismatch(self, saved):
        with pytest.raises(StoreFormatError, match="expected"):
            EmbeddingStore(saved).load_embedding_set("result")

    def test_invalid_artifact_names(self, saved):
        store = EmbeddingStore(saved)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(StoreFormatError):
                store.artifact_kind(bad)

    def test_errors_are_repro_errors(self, saved):
        with pytest.raises(ReproError):
            EmbeddingStore(saved).load_result("nope")

    def test_overwrite_drops_stale_matrix_files(self, tmdb_result, saved):
        # mutate nothing; saving the same result twice must leave exactly
        # one content-addressed matrix file and a loadable artifact
        tmdb_result.save(saved)
        matrices = list(saved.glob("result.*.npz"))
        assert len(matrices) == 1
        loaded = RetroResult.load(saved)
        assert np.array_equal(loaded.embeddings.matrix, tmdb_result.embeddings.matrix)

    def test_out_of_range_category_index_rejected(self, saved):
        header_path = saved / "result.json"
        header = json.loads(header_path.read_text())
        header["extraction"]["categories"][0][1][0] = -3
        header_path.write_text(json.dumps(header))
        with pytest.raises(StoreFormatError, match="outside"):
            RetroResult.load(saved)

    def test_out_of_range_relation_pair_rejected(self, saved):
        header_path = saved / "result.json"
        header = json.loads(header_path.read_text())
        n = len(header["extraction"]["records"])
        header["extraction"]["relation_groups"][0]["pairs"][0] = [0, n + 5]
        header_path.write_text(json.dumps(header))
        with pytest.raises(StoreFormatError, match="outside"):
            RetroResult.load(saved)

    def test_bad_matrix_file_reference_rejected(self, saved):
        header_path = saved / "result.json"
        header = json.loads(header_path.read_text())
        header["matrix_file"] = "../escape.npz"
        header_path.write_text(json.dumps(header))
        with pytest.raises(StoreFormatError, match="matrix_file"):
            RetroResult.load(saved)
