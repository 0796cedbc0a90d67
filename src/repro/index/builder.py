"""Offline index construction: mine ``F`` and ``Id``, build A2F and A2I.

This is GBLENDER's / PRAGUE's preprocessing phase: gSpan extracts the frequent
fragments [13], the DIF generator derives the discriminative infrequent
fragments, and both are packaged into the action-aware indexes that the online
algorithms probe at every formulation step.

Index construction at realistic scales is minutes of CPU, so
:func:`build_indexes` supports an on-disk cache keyed by a content hash of the
database and the mining parameters (used by the test/benchmark fixtures).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.config import MiningParams, build_workers
from repro.graph.database import GraphDatabase
from repro.index.a2f import A2FIndex
from repro.index.a2i import A2IIndex
from repro.mining.dif import mine_difs
from repro.mining.fragments import FragmentCatalog
from repro.mining.gspan import mine_frequent_fragments
from repro.obs.metrics import count

#: Version of the ``cache_dir`` file layout, part of every cache file name:
#: bump it when the pickled catalogs change shape, so stale files are never
#: read.
CACHE_FORMAT = 2


@dataclass
class ActionAwareIndexes:
    """The full offline artefact: both indexes plus the raw catalogs."""

    a2f: A2FIndex
    a2i: A2IIndex
    frequent: FragmentCatalog
    difs: FragmentCatalog
    params: MiningParams
    db_size: int

    @property
    def min_support_abs(self) -> int:
        return self.params.absolute_support(self.db_size)


def database_fingerprint(db: GraphDatabase, params: MiningParams) -> str:
    """Stable content hash of (database, mining parameters) for caching."""
    h = hashlib.sha256()
    h.update(
        f"{params.min_support}|{params.size_threshold}|"
        f"{params.max_fragment_edges}|{len(db)}".encode()
    )
    for _, g in db.items():
        h.update(b"t")
        for node in sorted(g.nodes(), key=repr):
            h.update(f"v{node}{g.label(node)}".encode())
        for u, v in sorted(g.edges(), key=repr):
            h.update(f"e{u}{v}{g.edge_label(u, v)}".encode())
    return h.hexdigest()[:24]


def build_indexes(
    db: GraphDatabase,
    params: Optional[MiningParams] = None,
    cache_dir: Optional[Path] = None,
    workers: Optional[int] = None,
    progress=None,
) -> ActionAwareIndexes:
    """Mine and build the A2F/A2I indexes for ``db``.

    With ``cache_dir`` set, a previous build for the identical database and
    parameters is loaded from disk instead of re-mined.  A cache file that
    cannot be read (truncated, or written by other code) is reported with a
    ``RuntimeWarning``, counted as ``index.cache.corrupt``, rebuilt and
    rewritten.  Files are written to a temporary name and renamed into
    place, so a crashed writer never leaves a partial cache behind.

    ``workers`` defaults to the ``REPRO_BUILD_WORKERS`` knob.
    ``workers == 1`` is the serial mining path; more workers route through
    the sharded pipeline (:mod:`repro.index.sharded`) with one shard per
    worker, which produces equivalent indexes and reports per-shard
    ``progress`` events (also mirrored into the flight recorder, so
    ``repro top`` shows build progress).
    """
    params = params or MiningParams()
    workers = build_workers() if workers is None else max(1, workers)
    cache_path: Optional[Path] = None
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache_path = cache_dir / (
            f"indexes_v{CACHE_FORMAT}_{database_fingerprint(db, params)}.pkl"
        )
        if cache_path.exists():
            try:
                with cache_path.open("rb") as handle:
                    frequent, difs = pickle.load(handle)
            # Truncated data, a pickle of another shape, or classes that no
            # longer import: all mean "rebuild", never "fail the build".
            except (OSError, EOFError, pickle.UnpicklingError, ValueError,
                    TypeError, AttributeError, ImportError) as exc:
                count("index.cache.corrupt")
                warnings.warn(
                    f"index cache {cache_path} is unreadable "
                    f"({type(exc).__name__}: {exc}); rebuilding",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                return _assemble(db, params, frequent, difs)

    if workers > 1:
        from repro.index.sharded import mine_sharded

        frequent, difs = mine_sharded(db, params, workers, progress=progress)
    else:
        min_sup = params.absolute_support(len(db))
        frequent = mine_frequent_fragments(db, min_sup, params.max_fragment_edges)
        difs = mine_difs(db, frequent, min_sup, params.max_fragment_edges)

    if cache_path is not None:
        with tempfile.NamedTemporaryFile(
            "wb", dir=cache_path.parent, suffix=".tmp", delete=False
        ) as handle:
            pickle.dump((frequent, difs), handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(handle.name, cache_path)
    return _assemble(db, params, frequent, difs)


def _assemble(
    db: GraphDatabase,
    params: MiningParams,
    frequent: FragmentCatalog,
    difs: FragmentCatalog,
) -> ActionAwareIndexes:
    return ActionAwareIndexes(
        a2f=A2FIndex(frequent, params.size_threshold),
        a2i=A2IIndex(difs),
        frequent=frequent,
        difs=difs,
        params=params,
        db_size=len(db),
    )
