"""Oracle matrix cell: sharded-built indexes answer like serial-built ones.

The sharded-build equivalence property (`tests/index/test_sharded_build.py`)
is stated at the catalog level; this cell pins it at the *answer* level,
where it actually matters: the same fuzzed formulation trace is replayed
against a corpus whose indexes were built serially and one whose indexes
came out of the sharded pipeline, across cache × workers cells, and the
observation streams must be identical step for step.
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

SPEC = CorpusSpec(seed=47)

#: Cells that exercise distinct hot paths against the sharded indexes: the
#: serial reference, the uncached canonical coder, and the pooled plane.
CELLS = (
    OracleConfig(workers=1),
    OracleConfig(canonical_cache=False, workers=1),
    OracleConfig(workers=3),
)


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    monkeypatch.setattr("repro.core.verification.POOL_MIN_CANDIDATES", 16)
    pool_mod.shutdown()
    yield
    pool_mod.shutdown()


def _corpus(workers: int) -> OracleCorpus:
    db = small_database(
        seed=SPEC.seed,
        num_graphs=SPEC.num_graphs,
        labels=SPEC.labels,
        min_nodes=SPEC.min_nodes,
        max_nodes=SPEC.max_nodes,
    )
    indexes = build_indexes(db, SPEC.mining_params(), workers=workers)
    return OracleCorpus(spec=SPEC, db=db, indexes=indexes)


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: c.name)
def test_sharded_indexes_replay_identically(cell):
    trace = generate_trace(seed=23, spec=SPEC)
    serial_corpus = _corpus(workers=1)
    sharded_corpus = _corpus(workers=3)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reference = replay_trace(trace, cell, corpus=serial_corpus)
        candidate = replay_trace(trace, cell, corpus=sharded_corpus)

    divergence = first_divergence(
        reference.observations,
        candidate.observations,
        f"serial-build/{cell.name}",
        f"sharded-build/{cell.name}",
    )
    assert divergence is None
