"""Bitset candidate algebra agrees with plain set algebra everywhere:
primitive ops, Algorithm 3's Φ/Υ intersection, Algorithm 4's Rfree/Rver
buckets and Algorithm 6's deletion suggestion.

The expected values are computed here, from the indexes' FSG-id sets with
Python set operations (or, for the deletion suggestion, by brute force over
every deletable edge) — independent of the bitmask code under test."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import candidates as cand
from repro.core.exact import exact_sub_candidates, exact_sub_candidates_bits
from repro.core.modify import deletable_edges
from repro.core.similar import similar_sub_candidates
from repro.graph.generators import perturb_with_new_edge
from repro.query_graph import VisualQuery
from repro.spig import SpigManager
from repro.testing import connected_order, sample_subgraph

id_sets = st.sets(st.integers(0, 200), max_size=60)


class TestPrimitives:
    @given(ids=id_sets)
    def test_bits_roundtrip(self, ids):
        mask = cand.bits_of(ids)
        assert cand.ids_of(mask) == frozenset(ids)
        assert list(cand.iter_ids(mask)) == sorted(ids)
        assert cand.count(mask) == len(ids)

    @given(a=id_sets, b=id_sets)
    def test_union_intersection_difference(self, a, b):
        ba, bb = cand.bits_of(a), cand.bits_of(b)
        assert cand.ids_of(ba | bb) == frozenset(a | b)
        assert cand.ids_of(ba & bb) == frozenset(a & b)
        assert cand.ids_of(ba & ~bb) == frozenset(a - b)

    @given(sets=st.lists(id_sets, min_size=1, max_size=6))
    def test_intersect_all_matches_set_fold(self, sets):
        expected = frozenset.intersection(*map(frozenset, sets))
        got = cand.intersect_all([cand.bits_of(s) for s in sets])
        assert cand.ids_of(got) == expected

    @given(n=st.integers(0, 300))
    def test_full_mask(self, n):
        assert cand.ids_of(cand.full_mask(n)) == frozenset(range(n))
        assert cand.count(cand.full_mask(n)) == n


# ----------------------------------------------------------------------
# randomized SPIG/A2F fixtures: every vertex of every level
# ----------------------------------------------------------------------
def _spig_state(indexes, g):
    query = VisualQuery()
    for node in g.nodes():
        query.add_node(node, g.label(node))
    manager = SpigManager(indexes)
    for u, v in connected_order(g):
        eid = query.add_edge(u, v, g.edge_label(u, v))
        manager.on_new_edge(query, eid)
    return query, manager


def _sample_query(seed, db):
    rng = random.Random(seed)
    q = sample_subgraph(rng, db, 2, 5)
    if rng.random() < 0.5:
        q = perturb_with_new_edge(rng, q, db.node_label_universe())
    return q, rng.randint(1, 3)


def _set_fold(vertex, indexes, db_ids):
    """Algorithm 3 with frozenset intersections: the expected ``Rq``."""
    fl = vertex.fragment_list
    if fl.dead:
        return frozenset()
    if fl.freq_id is not None:
        return indexes.a2f.fsg_ids(fl.freq_id)
    if fl.dif_id is not None:
        return indexes.a2i.fsg_ids(fl.dif_id)
    rq = frozenset(db_ids)
    for a2f_id in fl.phi:
        rq &= indexes.a2f.fsg_ids(a2f_id)
    for a2i_id in fl.upsilon:
        rq &= indexes.a2i.fsg_ids(a2i_id)
    return rq


class TestAlgorithm3Equivalence:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=30, deadline=None)
    def test_bits_agree_with_sets_on_every_vertex(
        self, seed, small_db, small_indexes
    ):
        q, _ = _sample_query(seed, small_db)
        query, manager = _spig_state(small_indexes, q)
        db_ids = frozenset(small_db.ids())
        db_bits = cand.bits_of(db_ids)
        for level in range(1, query.num_edges + 1):
            for vertex in manager.vertices_at_level(level):
                via_sets = _set_fold(vertex, small_indexes, db_ids)
                via_bits = cand.ids_of(
                    exact_sub_candidates_bits(vertex, small_indexes, db_bits)
                )
                assert via_bits == via_sets

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=20, deadline=None)
    def test_public_api_agrees_with_set_fold(
        self, seed, small_db, small_indexes
    ):
        """exact_sub_candidates (the ids wrapper) returns the set-fold Rq."""
        q, _ = _sample_query(seed, small_db)
        query, manager = _spig_state(small_indexes, q)
        db_ids = frozenset(small_db.ids())
        vertex = manager.target_vertex(query)
        assert exact_sub_candidates(vertex, small_indexes, db_ids) == (
            _set_fold(vertex, small_indexes, db_ids)
        )


class TestAlgorithm4Equivalence:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=20, deadline=None)
    def test_rfree_rver_agree_with_set_algebra(
        self, seed, small_db, small_indexes
    ):
        q, sigma = _sample_query(seed, small_db)
        query, manager = _spig_state(small_indexes, q)
        db_ids = frozenset(small_db.ids())
        cands = similar_sub_candidates(
            query, sigma, manager, small_indexes, db_ids
        )
        for level in cands.levels():
            free, ver = set(), set()
            for vertex in manager.vertices_at_level(level):
                rq = _set_fold(vertex, small_indexes, db_ids)
                if vertex.fragment_list.is_indexed:
                    free |= rq
                else:
                    ver |= rq
            assert set(cands.free_at(level)) == free
            assert set(cands.ver_at(level)) == ver - free


class TestAlgorithm6Equivalence:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=15, deadline=None)
    def test_suggestion_matches_brute_force(
        self, seed, small_db, small_indexes
    ):
        from repro.core.modify import suggest_deletion

        q, _ = _sample_query(seed, small_db)
        query, manager = _spig_state(small_indexes, q)
        db_ids = frozenset(small_db.ids())
        ids = query.edge_id_set()
        best = None
        for eid in deletable_edges(query):
            rest = ids - {eid}
            if not rest:
                continue
            rq = _set_fold(manager.vertex_for(rest), small_indexes, db_ids)
            if best is None or len(rq) > len(best[1]):
                best = (eid, rq)
        got = suggest_deletion(query, manager, small_indexes, db_ids)
        if best is None:
            assert got is None
        else:
            assert (got.edge_id, got.candidates) == best
