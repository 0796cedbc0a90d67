"""Index builder: assembly, parameterisation, content-hash caching."""

import warnings

import pytest

from repro import obs
from repro.config import MiningParams
from repro.index import build_indexes, database_fingerprint
from repro.testing import small_database


@pytest.fixture(scope="module")
def db():
    return small_database(seed=4, num_graphs=20, max_nodes=6)


class TestBuild:
    def test_catalogs_consistent_with_indexes(self, db):
        idx = build_indexes(db, MiningParams(0.2, 2, 4))
        assert len(idx.a2f) == len(idx.frequent)
        assert len(idx.a2i) == len(idx.difs)
        assert idx.db_size == len(db)

    def test_absolute_support(self, db):
        idx = build_indexes(db, MiningParams(0.2, 2, 4))
        assert idx.min_support_abs == 4  # ceil(0.2 * 20)

    def test_alpha_bounds_enforced(self, db):
        with pytest.raises(ValueError):
            build_indexes(db, MiningParams(min_support=1.5))

    def test_default_params(self, db):
        idx = build_indexes(db)
        assert idx.params.min_support == 0.1


class TestCaching:
    def test_cache_round_trip(self, db, tmp_path):
        params = MiningParams(0.2, 2, 4)
        first = build_indexes(db, params, cache_dir=tmp_path)
        files = list(tmp_path.glob("indexes_*.pkl"))
        assert len(files) == 1
        second = build_indexes(db, params, cache_dir=tmp_path)
        assert set(second.frequent) == set(first.frequent)
        assert set(second.difs) == set(first.difs)
        for code, frag in first.frequent.items():
            assert second.frequent[code].fsg_ids == frag.fsg_ids

    def test_truncated_cache_is_rebuilt_and_rewritten(self, db, tmp_path):
        """Regression: a truncated cache file raised ``UnpicklingError``
        instead of triggering a rebuild."""
        params = MiningParams(0.2, 2, 4)
        first = build_indexes(db, params, cache_dir=tmp_path)
        (path,) = tmp_path.glob("indexes_*.pkl")
        intact = path.read_bytes()
        path.write_bytes(intact[: len(intact) // 2])
        with obs.trace():
            with pytest.warns(RuntimeWarning, match="rebuilding"):
                second = build_indexes(db, params, cache_dir=tmp_path)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("index.cache.corrupt", 0) == 1
        assert set(second.frequent) == set(first.frequent)
        assert set(second.difs) == set(first.difs)
        assert path.read_bytes() == intact  # rewritten in full
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_indexes(db, params, cache_dir=tmp_path)  # clean hit

    def test_cache_name_is_versioned_and_write_is_atomic(self, db, tmp_path):
        from repro.index.builder import CACHE_FORMAT

        build_indexes(db, MiningParams(0.2, 2, 4), cache_dir=tmp_path)
        names = [p.name for p in tmp_path.iterdir()]
        assert len(names) == 1  # no temporary file left behind
        assert names[0].startswith(f"indexes_v{CACHE_FORMAT}_")

    def test_fingerprint_depends_on_params(self, db):
        fp1 = database_fingerprint(db, MiningParams(0.2, 2, 4))
        fp2 = database_fingerprint(db, MiningParams(0.3, 2, 4))
        assert fp1 != fp2

    def test_fingerprint_depends_on_contents(self, db):
        other = small_database(seed=5, num_graphs=20, max_nodes=6)
        params = MiningParams(0.2, 2, 4)
        assert database_fingerprint(db, params) != database_fingerprint(
            other, params
        )

    def test_fingerprint_stable(self, db):
        params = MiningParams(0.2, 2, 4)
        assert database_fingerprint(db, params) == database_fingerprint(db, params)
