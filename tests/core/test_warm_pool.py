"""The warm verification pool and the arena plane, end to end.

Lifecycle (spawn once, reuse, respawn on reconfigure/TTL/breakage), the
candidate-count floor, arena invalidation on ``db.add()``, the serial
fallback when the arena cannot be published, the postmortem rate limiter,
and the answer-invariance acceptance sweep: serial and warm pool must return
byte-identical results — through plain ``verify_batch`` calls and through
the differential oracle's full-session replays.
"""

import os
import time
import warnings
from unittest import mock

import pytest

import repro.core.pool as pool_mod
import repro.core.verification as verif
from repro import obs
from repro.core.verification import sim_verify_scan, verify_batch
from repro.datasets import generate_aids_like
from repro.graph.generators import random_connected_subgraph
from repro.obs.recorder import RECORDER
from repro.oracle.diff import first_divergence
from repro.oracle.fuzzer import generate_trace
from repro.oracle.replay import OracleConfig, replay_trace
from repro.testing import small_database


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    """Every test starts and ends poolless, with a low dispatch floor."""
    monkeypatch.setattr(verif, "POOL_MIN_CANDIDATES", 16)
    pool_mod.shutdown()
    yield
    pool_mod.shutdown()


@pytest.fixture(scope="module")
def corpus():
    return generate_aids_like(60, seed=11)


def _query(db, seed, edges=4):
    import random

    rng = random.Random(seed)
    while True:
        g = db[rng.randrange(len(db))]
        sub = random_connected_subgraph(rng, g, min(edges, g.num_edges))
        if sub is not None:
            return sub


class TestWarmPoolLifecycle:
    def test_second_dispatch_reuses_the_pool(self, corpus):
        query = _query(corpus, seed=1)
        ids = list(corpus.ids())
        with obs.trace():
            first = verify_batch(query, ids, corpus, workers=2)
            second = verify_batch(query, ids, corpus, workers=2)
            counters = obs.full_snapshot()["counters"]
        assert first == second
        assert counters.get("verify.pool.spawns", 0) == 1
        assert counters.get("verify.pool.reuses", 0) == 1

    def test_worker_count_change_respawns(self, corpus):
        query = _query(corpus, seed=2)
        ids = list(corpus.ids())
        with obs.trace():
            verify_batch(query, ids, corpus, workers=2)
            verify_batch(query, ids, corpus, workers=3)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.spawns", 0) == 2
        assert counters.get("verify.pool.respawns", 0) == 1

    def test_idle_ttl_recycles_the_pool(self, corpus, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_TTL", "0.01")
        query = _query(corpus, seed=3)
        ids = list(corpus.ids())
        with obs.trace():
            verify_batch(query, ids, corpus, workers=2)
            time.sleep(0.05)
            verify_batch(query, ids, corpus, workers=2)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.expired", 0) == 1
        assert counters.get("verify.pool.spawns", 0) == 2

    def test_ttl_zero_disables_expiry(self, corpus, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_TTL", "0")
        query = _query(corpus, seed=3)
        ids = list(corpus.ids())
        with obs.trace():
            verify_batch(query, ids, corpus, workers=2)
            time.sleep(0.02)
            verify_batch(query, ids, corpus, workers=2)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.expired", 0) == 0
        assert counters.get("verify.pool.reuses", 0) == 1

    def test_broken_pool_is_respawned_on_next_dispatch(self, corpus):
        ids = list(range(32))
        with pytest.warns(RuntimeWarning, match="serial"):
            out = verif._run_batch(
                _identity_worker,
                lambda chunk: (chunk, lambda g: g),  # lambda: unpicklable
                ids,
                workers=2,
            )
        assert out == ids
        # The failed dispatch tore the pool down; the next one respawns
        # cleanly and succeeds without a fallback.
        query = _query(corpus, seed=4)
        with obs.trace():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pooled = verify_batch(
                    query, list(corpus.ids()), corpus, workers=2
                )
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.fallbacks", 0) == 0
        assert pooled == verify_batch(
            query, list(corpus.ids()), corpus, workers=1
        )

    def test_shutdown_unlinks_published_arenas(self, corpus):
        from multiprocessing import shared_memory

        query = _query(corpus, seed=5)
        verify_batch(query, list(corpus.ids()), corpus, workers=2)
        arena = pool_mod.arena_for(corpus)
        if arena is None:
            pytest.skip("shared memory unavailable on this platform")
        name = arena.publish()
        pool_mod.shutdown()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestDispatchFloor:
    def test_small_batches_stay_serial(self, corpus, monkeypatch):
        monkeypatch.setattr(verif, "POOL_MIN_CANDIDATES", 1000)
        query = _query(corpus, seed=6)
        with obs.trace():
            verify_batch(query, list(corpus.ids()), corpus, workers=4)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.serial", 0) == 1
        assert counters.get("verify.pool.runs", 0) == 0

    def test_floor_is_inclusive_below(self, corpus, monkeypatch):
        monkeypatch.setattr(verif, "POOL_MIN_CANDIDATES", 16)
        query = _query(corpus, seed=6)
        with obs.trace():
            verify_batch(query, list(corpus.ids())[:15], corpus, workers=4)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.serial", 0) == 1
        assert counters.get("verify.pool.runs", 0) == 0


class TestArenaPlane:
    def test_db_add_invalidates_the_arena(self):
        db = small_database(seed=21, num_graphs=20)
        first = pool_mod.arena_for(db)
        if first is None:
            pytest.skip("shared memory unavailable on this platform")
        version = first.version
        assert pool_mod.arena_for(db) is first  # stable while db is stable
        db.add(db[0].copy())
        second = pool_mod.arena_for(db)
        assert second is not first
        assert second.version != version
        pool_mod.shutdown()

    def test_unpublishable_arena_verifies_serially(
        self, corpus, monkeypatch
    ):
        """No shared memory: the pooled batch runs in-process, is counted,
        spawns no pool and leaves no segment behind."""
        import glob

        from repro.index.arena import IndexArena

        before = set(glob.glob("/dev/shm/psm_*"))
        monkeypatch.setattr(IndexArena, "publish", lambda self: None)
        query = _query(corpus, seed=10)
        fragments = [_query(corpus, seed=s, edges=3) for s in (8, 9)]
        ids = list(corpus.ids())
        with obs.trace():
            pooled = verify_batch(query, ids, corpus, workers=3)
            pooled_sim = sim_verify_scan(fragments, ids, corpus, workers=3)
            counters = obs.full_snapshot()["counters"]
        assert pooled == verify_batch(query, ids, corpus, workers=1)
        assert pooled_sim == sim_verify_scan(fragments, ids, corpus, workers=1)
        assert counters.get("arena.unavailable", 0) == 2
        assert counters.get("verify.serial", 0) == 2
        assert counters.get("verify.pool.runs", 0) == 0
        assert counters.get("verify.pool.spawns", 0) == 0
        assert pool_mod.POOL._pool is None
        assert pool_mod.arena_segment_bytes() == 0
        assert set(glob.glob("/dev/shm/psm_*")) <= before

    def test_resolve_distinguishes_mismatch_from_missing_attach(
        self, monkeypatch
    ):
        """Regression: a stale forked worker's version mismatch used to be
        reported as 'worker initializer failed?'."""
        class _Stub:
            version = "stale-version"

            def items(self, ids):  # pragma: no cover - never reached
                raise AssertionError

        payload = ("fresh-version", [1, 2])
        monkeypatch.setattr(pool_mod, "_WORKER_ARENA", _Stub())
        with obs.trace():
            with pytest.raises(RuntimeError, match="version mismatch"):
                pool_mod.resolve_items(payload)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("arena.version_mismatch", 0) == 1

        monkeypatch.setattr(pool_mod, "_WORKER_ARENA", None)
        with pytest.raises(RuntimeError, match="no arena attached"):
            pool_mod.resolve_items(payload)


class TestAnswerInvariance:
    def test_verify_batch_matches_serial(self, corpus):
        query = _query(corpus, seed=7)
        ids = list(corpus.ids())
        serial = verify_batch(query, ids, corpus, workers=1)
        pooled = verify_batch(query, ids, corpus, workers=4)
        assert pooled == serial

    def test_sim_verify_scan_matches_serial(self, corpus):
        fragments = [_query(corpus, seed=s, edges=3) for s in (8, 9)]
        ids = list(corpus.ids())
        serial = sim_verify_scan(fragments, ids, corpus, workers=1)
        pooled = sim_verify_scan(fragments, ids, corpus, workers=4)
        assert pooled == serial

    def test_oracle_replay_divergence_free(self):
        """Full-session acceptance: a pooled replay of a trace is
        observation-identical to the serial reference."""
        trace = generate_trace(seed=13)
        reference = replay_trace(trace, OracleConfig(workers=1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cell = replay_trace(trace, OracleConfig(workers=4))
        divergence = first_divergence(
            reference.observations, cell.observations,
            "workers=1", cell.config.name,
        )
        assert divergence is None


class TestPostmortemRateLimit:
    def test_one_bundle_per_exception_type(self, tmp_path):
        verif.reset_postmortem_limiter()
        RECORDER.force(True)
        RECORDER.reset()
        try:
            with mock.patch.dict(
                os.environ, {"REPRO_POSTMORTEM_DIR": str(tmp_path)}
            ):
                for _ in range(3):
                    with pytest.warns(RuntimeWarning, match="serial"):
                        verif._run_batch(
                            _identity_worker,
                            lambda chunk: (chunk, lambda g: g),
                            list(range(32)),
                            workers=2,
                        )
        finally:
            RECORDER.force(None)
            RECORDER.reset()
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 1

    def test_unwritten_bundle_does_not_consume_the_slot(self, tmp_path):
        verif.reset_postmortem_limiter()
        RECORDER.force(True)
        RECORDER.reset()
        try:
            # First fallback: no dir configured, nothing written...
            with mock.patch.dict(os.environ, {"REPRO_POSTMORTEM_DIR": ""}):
                with pytest.warns(RuntimeWarning, match="serial"):
                    verif._run_batch(
                        _identity_worker,
                        lambda chunk: (chunk, lambda g: g),
                        list(range(16)),
                        workers=2,
                    )
            # ...so the same exception type still dumps once a dir exists.
            with mock.patch.dict(
                os.environ, {"REPRO_POSTMORTEM_DIR": str(tmp_path)}
            ):
                with pytest.warns(RuntimeWarning, match="serial"):
                    verif._run_batch(
                        _identity_worker,
                        lambda chunk: (chunk, lambda g: g),
                        list(range(16)),
                        workers=2,
                    )
        finally:
            RECORDER.force(None)
            RECORDER.reset()
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 1

    def test_reset_reopens_the_slot(self, tmp_path):
        verif.reset_postmortem_limiter()
        RECORDER.force(True)
        RECORDER.reset()
        try:
            with mock.patch.dict(
                os.environ, {"REPRO_POSTMORTEM_DIR": str(tmp_path)}
            ):
                for _ in range(2):
                    verif.reset_postmortem_limiter()
                    with pytest.warns(RuntimeWarning, match="serial"):
                        verif._run_batch(
                            _identity_worker,
                            lambda chunk: (chunk, lambda g: g),
                            list(range(16)),
                            workers=2,
                        )
        finally:
            RECORDER.force(None)
            RECORDER.reset()
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 2


def _identity_worker(payload):
    chunk, transform = payload
    return [transform(gid) for gid in chunk]
