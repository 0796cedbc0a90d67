"""Exact substructure candidate generation — Algorithm 3 (ExactSubCandidates).

Given the SPIG vertex of a query fragment:

* a frequent fragment's candidates are its exact FSG ids from the A2F-index;
* a DIF's candidates are its exact FSG ids from the A2I-index;
* a NIF intersects the FSG ids of its frequent largest-proper subgraphs (Φ)
  and of all its DIF subgraphs (Υ) — a superset of the true answer that the
  final *Run* verification filters.

Emptiness of the returned set is *sound*: an empty ``Rq`` proves the fragment
has no exact match in the database (the trigger for PRAGUE's modify/similar
option dialogue).

The Φ/Υ intersection runs on int bitmasks (:mod:`repro.core.candidates`) —
graph ids are dense, so each AND is word-parallel — ordered smallest
candidate list first with an early exit on empty.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.core.candidates import bits_of, ids_of, intersect_all
from repro.index.builder import ActionAwareIndexes
from repro.spig.spig import SpigVertex


def exact_sub_candidates(
    vertex: SpigVertex,
    indexes: ActionAwareIndexes,
    db_ids: FrozenSet[int],
) -> FrozenSet[int]:
    """``Rq`` for the fragment represented by ``vertex``.

    The id-set form of :func:`exact_sub_candidates_bits`: indexed fragments
    return their stored FSG ids as they are, and only the Φ/Υ intersection
    of a NIF runs on bitmasks.
    """
    fl = vertex.fragment_list
    if fl.dead:
        # The fragment uses a label absent from the database: no match.
        return frozenset()
    if fl.freq_id is not None:
        return indexes.a2f.fsg_ids(fl.freq_id)
    if fl.dif_id is not None:
        return indexes.a2i.fsg_ids(fl.dif_id)
    if not fl.phi and not fl.upsilon:
        # Fragment larger than the mining bound with no indexed subgraph
        # information at all — no pruning is possible (cannot happen for
        # queries within the paper's ≤ 10-edge envelope).
        return db_ids
    return ids_of(_phi_upsilon_bits(vertex, indexes, bits_of(db_ids)))


def exact_sub_candidates_bits(
    vertex: SpigVertex,
    indexes: ActionAwareIndexes,
    db_bits: int,
) -> int:
    """``Rq`` as an int bitmask — the word-parallel form of Algorithm 3.

    ``db_bits`` plays the role of ``db_ids`` for the no-information fallback
    (``full_mask(len(db))``).
    """
    fl = vertex.fragment_list
    if fl.dead:
        return 0
    if fl.freq_id is not None:
        return indexes.a2f.fsg_bits(fl.freq_id)
    if fl.dif_id is not None:
        return indexes.a2i.fsg_bits(fl.dif_id)
    if not fl.phi and not fl.upsilon:
        return db_bits
    return _phi_upsilon_bits(vertex, indexes, db_bits)


def _phi_upsilon_bits(
    vertex: SpigVertex, indexes: ActionAwareIndexes, db_bits: int
) -> int:
    fl = vertex.fragment_list
    masks = [indexes.a2f.fsg_bits(a2f_id) for a2f_id in fl.phi]
    masks += [indexes.a2i.fsg_bits(a2i_id) for a2i_id in fl.upsilon]
    return intersect_all(masks, db_bits)
