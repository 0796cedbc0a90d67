"""``db.add()`` between replays: invalidation must preserve answer parity.

Grow the database after the arena was built and warmed, then prove (a) the
pooled replay still matches the serial reference observation-for-observation
and (b) the arena was rebuilt for the grown database.

The corpus is a private replica — the shared ``corpus_for`` cache must never
see a mutated database.
"""

import warnings

import pytest

import repro.core.pool as pool_mod
from repro.index import build_indexes
from repro.oracle.corpus import CorpusSpec, OracleCorpus
from repro.oracle.diff import first_divergence
from repro.oracle.fuzzer import generate_trace
from repro.oracle.replay import OracleConfig, replay_trace
from repro.testing import small_database


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    monkeypatch.setattr("repro.core.verification.POOL_MIN_CANDIDATES", 16)
    pool_mod.shutdown()
    yield
    pool_mod.shutdown()


def _private_corpus(spec: CorpusSpec) -> OracleCorpus:
    db = small_database(
        seed=spec.seed,
        num_graphs=spec.num_graphs,
        labels=spec.labels,
        min_nodes=spec.min_nodes,
        max_nodes=spec.max_nodes,
    )
    return OracleCorpus(
        spec=spec, db=db, indexes=build_indexes(db, spec.mining_params())
    )


def test_db_add_invalidation_keeps_pooled_run_parity():
    spec = CorpusSpec(seed=31)
    trace = generate_trace(seed=17, spec=spec)
    corpus = _private_corpus(spec)
    pooled = OracleConfig(workers=3)

    # First pooled replay: leaves a published arena behind.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        replay_trace(trace, pooled, corpus=corpus)
    arena = pool_mod.arena_for(corpus.db)
    if arena is None:
        pytest.skip("shared memory unavailable on this platform")

    corpus.db.add(corpus.db[0].copy())  # invalidates on next arena_for

    reference = replay_trace(trace, OracleConfig(workers=1), corpus=corpus)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cell = replay_trace(trace, pooled, corpus=corpus)
    divergence = first_divergence(
        reference.observations, cell.observations,
        "workers=1", cell.config.name,
    )
    assert divergence is None

    rebuilt = pool_mod.arena_for(corpus.db)
    assert rebuilt is not arena
    assert rebuilt.version != arena.version
    assert rebuilt.db_size == len(corpus.db)
