"""Inputs, answers and statistics shared by the benchmark workloads.

Everything here is driven by the ``--seed`` argument: the corpus, the script
pool and the order scripts are replayed in.  The program only ever sees the
generated inputs, through its public entry points.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.baselines.naive import naive_containment_search, naive_similarity_search
from repro.core.prague import RunReport
from repro.datasets.aids import generate_aids_like
from repro.datasets.queries import sample_containment_query, standard_similarity_workload
from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import compile_pattern
from repro.graph.labeled_graph import Graph

#: The corpus every workload uses: |D| = 1000 AIDS-like graphs.
CORPUS_SIZE = 1000
#: alpha = 0.1, beta = 4; the online index stops at 5-edge fragments.
ALPHA, BETA = 0.1, 4
ONLINE_MAX_EDGES = 5
#: The similarity budget every session uses (the program's default).
SIGMA = 3
#: The 2 s per drawn edge the GUI offers as cover (Section VIII-B).
EDGE_WINDOW_S = 2.0

#: Script pool shape: containment queries of 3-8 edges, a share of them with
#: a Modify gesture before Run, plus 7-edge similarity queries whose exact
#: candidate set empties while they are drawn.  Run is bimodal: queries
#: within the index's 5-edge bound are mostly answered without verification,
#: larger ones always verify.  Small queries are weighted 2:1 so the SRT
#: median sits inside the verification-free mode rather than on the steep
#: edge between the modes, where a one-percent shift in the mix moves it by
#: half.  Modify is bimodal too: an explicit deletion takes about 0.1 ms and
#: one that asks for the engine's suggestion about 0.5 ms.  Suggestions are
#: weighted 3:1 for the same reason.  The pool is large enough that every
#: seed samples nearly the same mix.
CONTAINMENT_SCRIPTS = 360
CONTAINMENT_SIZES = (3, 4, 5, 6, 7, 8, 3, 4, 5)
MODIFY_EVERY = 4
#: Of the Modify scripts, every ``EXPLICIT_EVERY``-th deletes an explicit
#: edge; the rest accept the engine's suggestion.
EXPLICIT_EVERY = 4
SIMILARITY_SCRIPTS = 4

#: A gesture: the op name and its arguments, in the vocabulary shared by the
#: in-process engine and the service protocol.
Gesture = Tuple[str, tuple]
#: A normalised Run answer: ("exact", ids) or ("similar", ((id, dist), ...)).
Answer = Tuple[str, tuple]


@dataclass(frozen=True)
class Script:
    """One formulation session: the query drawn edge by edge, then Run.

    ``delete`` is the Modify gesture before Run: ``None`` for no Modify,
    ``0`` to accept the engine's suggestion, ``k`` to delete the k-th drawn
    edge (edge ids are assigned 1, 2, ... in drawing order).
    """

    name: str
    nodes: Tuple[Tuple[int, str], ...]
    edges: Tuple[Tuple[int, int, Optional[str]], ...]
    delete: Optional[int] = None
    undo_redo: bool = False

    def gestures(self) -> List[Gesture]:
        out: List[Gesture] = [("add_node", (n, label)) for n, label in self.nodes]
        for i, (u, v, label) in enumerate(self.edges):
            out.append(("add_edge", (u, v, label)))
            if self.undo_redo and i == len(self.edges) - 2:
                out.append(("undo", ()))
                out.append(("redo", ()))
        if self.delete is not None:
            out.append(("delete_edge", (self.delete or None,)))
        out.append(("run", ()))
        return out

    def final_graph(self, deleted_edge_id: Optional[int]) -> Graph:
        """The query as it stands at Run, built from the script alone."""
        g = Graph()
        kept = [
            e for i, e in enumerate(self.edges, start=1) if i != deleted_edge_id
        ]
        used = {n for u, v, _ in kept for n in (u, v)}
        for node, label in self.nodes:
            if node in used:
                g.add_node(node, label)
        for u, v, label in kept:
            g.add_edge(u, v, label)
        return g


def make_corpus(seed: int, size: int = CORPUS_SIZE) -> GraphDatabase:
    return generate_aids_like(size, seed=seed)


def _script_from_spec(name: str, spec, **kw) -> Script:
    return Script(
        name=name,
        nodes=tuple(sorted(spec.nodes.items())),
        edges=tuple((u, v, spec.edge_labels.get((u, v))) for u, v in spec.edges),
        **kw,
    )


def containment_pool(
    db: GraphDatabase, seed: int, count: int = CONTAINMENT_SCRIPTS,
    sizes: Sequence[int] = CONTAINMENT_SIZES, undo_redo: bool = False,
) -> List[Script]:
    """Sampled subgraphs with ``sizes`` edges in turn; every
    ``MODIFY_EVERY``-th script deletes an edge before Run, every
    ``EXPLICIT_EVERY``-th of those an explicit edge, the rest the engine's
    suggestion."""
    rng = random.Random(seed * 7919 + 1)
    out: List[Script] = []
    for i in range(count):
        spec = sample_containment_query(
            db, rng, sizes[i % len(sizes)], name=f"C{i}")
        delete = None
        if i % MODIFY_EVERY == MODIFY_EVERY - 1:
            explicit = (i // MODIFY_EVERY) % EXPLICIT_EVERY == EXPLICIT_EVERY - 1
            delete = len(spec.edges) if explicit else 0
        out.append(_script_from_spec(
            f"C{i}", spec, delete=delete, undo_redo=undo_redo,
        ))
    return out


def similarity_pool(db, indexes, seed: int, count: int = SIMILARITY_SCRIPTS) -> List[Script]:
    """7-edge queries whose Rq empties while drawn (the Q1-Q4 analogues)."""
    chosen = standard_similarity_workload(
        db, indexes, seed=seed, num_queries=count, sigma=SIGMA, pool_size=2 * count,
    )
    return [
        _script_from_spec(f"S{i}", wq.spec)
        for i, wq in enumerate(chosen.values())
    ]


# ----------------------------------------------------------------------
# answers and the oracle
# ----------------------------------------------------------------------
def answer_of_report(report: RunReport) -> Answer:
    if report.results.exact_ids:
        return ("exact", tuple(sorted(report.results.exact_ids)))
    return ("similar", tuple(sorted(
        (m.graph_id, m.distance) for m in report.results.similar
    )))


def answer_of_payload(run: dict) -> Answer:
    if run["exact"]:
        return ("exact", tuple(sorted(run["exact"])))
    return ("similar", tuple(sorted(
        (m["graph_id"], m["distance"]) for m in run["similar"]
    )))


def naive_answer(query: Graph, db: GraphDatabase) -> Answer:
    """The index-free scan: exact matches if any, else every graph within
    sigma (distance 0 is impossible once containment found nothing)."""
    exact = naive_containment_search(query, db)
    if exact:
        return ("exact", tuple(exact))
    similar = naive_similarity_search(query, db, SIGMA)
    return ("similar", tuple(sorted((g, d) for g, d in similar.items() if d > 0)))


@dataclass
class AnswerBook:
    """First answer seen per distinct (script, deleted edge); repeats must match."""

    answers: Dict[Tuple[str, Optional[int]], Answer] = field(default_factory=dict)
    scripts: Dict[str, Script] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    def record(self, script: Script, deleted: Optional[int], answer: Answer) -> None:
        key = (script.name, deleted)
        self.scripts[script.name] = script
        first = self.answers.setdefault(key, answer)
        if first != answer:
            self.mismatches.append(f"{script.name}: repeat answer differs")

    def inject_wrong_answer(self) -> None:
        """Drop one id from the first answer (self-test of the checker)."""
        key = next(iter(self.answers))
        kind, ids = self.answers[key]
        self.answers[key] = (kind, ids[1:] if ids else ((-1, 0),))

    def check_naive(self, db: GraphDatabase) -> List[str]:
        """Each distinct script once against the naive scan."""
        bad = list(self.mismatches)
        keys = list(self.answers)
        queries = [self.scripts[name].final_graph(deleted) for name, deleted in keys]
        for (name, deleted), expected in zip(keys, oracle_map(_naive_task, queries, db)):
            if self.answers[(name, deleted)] != expected:
                bad.append(f"{name} (deleted {deleted}): answer != naive scan")
        return bad


#: The corpus an oracle worker scans (set once per worker process).
_ORACLE_DB: Optional[GraphDatabase] = None
ORACLE_WORKERS = 2


def _oracle_init(db: GraphDatabase) -> None:
    global _ORACLE_DB
    _ORACLE_DB = db


def _naive_task(query: Graph) -> Answer:
    return naive_answer(query, _ORACLE_DB)


def _triples(g: Graph) -> FrozenSet[Tuple[str, str, str]]:
    """The labelled edge kinds of ``g``."""
    out = set()
    for u, v in g.edges():
        a, b = sorted((g.label(u), g.label(v)))
        out.add((a, str(g.edge_label(u, v)), b))
    return frozenset(out)


#: Oracle worker state: each data graph's labelled edge kinds.
_GRAPH_TRIPLES: Dict[int, FrozenSet[Tuple[str, str, str]]] = {}


def _support_task(graph: Graph) -> FrozenSet[int]:
    """Ids of the data graphs containing ``graph``: a naive scan that skips a
    data graph only when it lacks one of the fragment's labelled edge kinds."""
    db = _ORACLE_DB
    if not _GRAPH_TRIPLES:
        _GRAPH_TRIPLES.update((gid, _triples(g)) for gid, g in db.items())
    needed = _triples(graph)
    pattern = compile_pattern(graph, db.label_frequencies())
    return frozenset(
        gid for gid, g in db.items()
        if needed <= _GRAPH_TRIPLES[gid] and pattern.embeds_in(g)
    )


def check_catalogs(indexes, db: GraphDatabase, inject: bool = False) -> List[str]:
    """Every catalog entry's supporting ids equal a naive containment scan of
    its graph; frequent entries meet alpha and DIFs miss it.

    Only the fragment graphs and id sets are read, never the canonical codes,
    so the check holds whatever the code representation.  ``inject`` drops
    one claimed id first (self-test of the checker).
    """
    min_support = indexes.min_support_abs
    entries = [("frequent", f) for f in indexes.frequent.values()] + \
        [("DIF", f) for f in indexes.difs.values()]
    scans = oracle_map(_support_task, [f.graph for _, f in entries], db)
    problems: List[str] = []
    for n, ((kind, fragment), scanned) in enumerate(zip(entries, scans)):
        claimed = set(fragment.fsg_ids)
        if inject and n == 0:
            claimed.pop()
        if claimed != scanned:
            problems.append(f"{kind} fragment #{n}: supporting ids != naive scan")
        if (len(scanned) >= min_support) != (kind == "frequent"):
            problems.append(f"{kind} fragment #{n}: support {len(scanned)} "
                            f"on the wrong side of {min_support}")
    return problems


def oracle_map(task, items: list, db: GraphDatabase) -> list:
    """``task`` over ``items`` in two spawned workers that hold ``db``.

    The oracle runs outside every timed window; two workers halve its wall
    time on the two-core machines the benchmark is sized for.
    """
    if not items:
        return []
    context = multiprocessing.get_context("spawn")
    with context.Pool(ORACLE_WORKERS, initializer=_oracle_init,
                      initargs=(db,)) as pool:
        out = pool.map(task, items, chunksize=1)
        pool.close()
        pool.join()
    return out


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 < pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """VmHWM of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Phases(dict):
    """Wall seconds per phase of one run, reported on standard error."""

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self[name] = self.get(name, 0.0) + time.perf_counter() - start
