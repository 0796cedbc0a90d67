"""Index persistence and the size accounting behind Table II."""

import pytest

from repro.config import MiningParams
from repro.index import (
    a2f_size_bytes,
    a2i_size_bytes,
    build_indexes,
    load_indexes,
    pickled_size_bytes,
    prague_index_size_bytes,
    save_indexes,
)
from repro.testing import small_database


@pytest.fixture(scope="module")
def db():
    return small_database(seed=4, num_graphs=20, max_nodes=6)


@pytest.fixture(scope="module")
def idx(db):
    return build_indexes(db, MiningParams(0.2, 2, 4))


class TestSizes:
    def test_pickled_size_positive(self):
        assert pickled_size_bytes({"a": 1}) > 0

    def test_components_sum(self, idx):
        parts = a2f_size_bytes(idx)
        total = prague_index_size_bytes(idx)
        assert total == parts["mf_bytes"] + parts["df_bytes"] + a2i_size_bytes(idx)

    def test_mf_and_df_both_accounted(self, idx):
        parts = a2f_size_bytes(idx)
        assert parts["mf_bytes"] > 0
        # beta=2, max_edges=4 -> DF fragments exist in this corpus
        assert parts["df_bytes"] > 0


class TestSaveLoad:
    def test_round_trip(self, idx, tmp_path):
        path = tmp_path / "indexes.pkl"
        written = save_indexes(idx, path)
        assert written == path.stat().st_size
        loaded = load_indexes(path)
        assert set(loaded.frequent) == set(idx.frequent)
        assert set(loaded.difs) == set(idx.difs)
        assert loaded.params == idx.params
        assert loaded.db_size == idx.db_size

    def test_loaded_indexes_probe_identically(self, idx, tmp_path):
        path = tmp_path / "indexes.pkl"
        save_indexes(idx, path)
        loaded = load_indexes(path)
        for code in idx.frequent:
            a = idx.a2f.fsg_ids(idx.a2f.lookup(code))
            b = loaded.a2f.fsg_ids(loaded.a2f.lookup(code))
            assert a == b
