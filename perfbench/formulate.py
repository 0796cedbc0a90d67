"""The ``formulate`` workload: in-process sessions in a closed loop.

Set-up builds the index cold (read the corpus, mine <= 5-edge fragments,
publish the shared plane), three times.  Then one caller replays seeded
scripts against ``PragueEngine`` sessions from ``SharedPlane.engine()``, each
session started as soon as the last one ran.  Afterwards every catalog entry
and every distinct script is checked against naive scans.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from repro.config import MiningParams
from repro.core.plane import SharedPlane
from repro.graph.canonical import cache_stats, clear_cache
from repro.graph.serialization import read_database, write_database
from repro.index import persistence
from repro.index.builder import build_indexes
from repro.obs.srt import build_ledger

import common
import tracing

SETUPS = 3


@dataclass
class LoopStats:
    """What the closed loop measured (times in seconds)."""

    wall: float = 0.0
    sessions: int = 0
    failed: int = 0
    new: List[float] = field(default_factory=list)
    modify: List[float] = field(default_factory=list)
    srt: List[float] = field(default_factory=list)
    actions: List[float] = field(default_factory=list)

    def metrics(self) -> dict:
        return {
            "sessions_per_s": self.sessions / self.wall,
            "new_p50_s": common.median(self.new),
            "modify_p50_s": common.median(self.modify),
            "srt_p50_s": common.median(self.srt),
            "action_p50_s": common.median(self.actions),
            "capacity_actions_per_s": len(self.actions) / self.wall,
        }


def replay(plane: SharedPlane, script: common.Script, stats: LoopStats,
           book: common.AnswerBook) -> None:
    """One session: draw, maybe Modify, Run.  Every engine call is timed;
    adding a node triggers no processing and is not an action."""
    engine = plane.engine()
    events = []
    deleted: Optional[int] = None
    run_s = 0.0
    for op, args in script.gestures():
        if op == "add_node":
            engine.add_node(*args)
            continue
        start = time.perf_counter()
        if op == "add_edge":
            engine.add_edge(*args)
            elapsed = time.perf_counter() - start
            stats.new.append(elapsed)
        elif op == "delete_edge":
            report = engine.delete_edge(*args)
            elapsed = time.perf_counter() - start
            deleted = report.edge_id
            stats.modify.append(elapsed)
        else:
            run = engine.run()
            elapsed = run_s = time.perf_counter() - start
        stats.actions.append(elapsed)
        if op != "run":
            events.append((op, elapsed, common.EDGE_WINDOW_S))
    stats.srt.append(build_ledger(events, run_seconds=run_s).srt_seconds)
    stats.sessions += 1
    book.record(script, deleted, common.answer_of_report(run))


def rounds(pool: Sequence[common.Script], seed: int) -> Iterator[common.Script]:
    """Endless seeded replay order: each script once per shuffled round."""
    rng = random.Random(seed * 104729 + 3)
    while True:
        block = list(pool)
        rng.shuffle(block)
        yield from block


def attempt(plane: SharedPlane, script: common.Script, stats: LoopStats,
            book: common.AnswerBook) -> None:
    """A session that raises counts as failed; the loop goes on."""
    try:
        replay(plane, script, stats, book)
    except Exception as exc:  # counted against those attempted
        stats.failed += 1
        book.mismatches.append(f"{script.name}: {type(exc).__name__}: {exc}")


def closed_loop(plane: SharedPlane, pool, seed: int, seconds: float,
                book: common.AnswerBook) -> LoopStats:
    stats = LoopStats()
    order = rounds(pool, seed)
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        attempt(plane, next(order), stats, book)
    stats.wall = time.perf_counter() - start
    return stats


def traced_loop(plane: SharedPlane, pool, seed: int, seconds: float,
                book: common.AnswerBook, tracer: tracing.Tracer):
    """Each script twice, traced and untraced, alternating which goes first.

    Returns (traced wall, untraced wall, sessions attempted, failed); the
    canonical-code cache deltas over the loop land in the tracer's counters.
    """
    plain, traced = LoopStats(), LoopStats()
    before = cache_stats()
    order = rounds(pool, seed)
    deadline = time.perf_counter() + seconds
    for n in itertools.count():
        if time.perf_counter() >= deadline:
            break
        script = next(order)
        for traced_turn in ((False, True) if n % 2 == 0 else (True, False)):
            if traced_turn:
                tracing.install_engine(tracer)
                tracer.set_trace(f"s{n}")
            start = time.perf_counter()
            attempt(plane, script, traced if traced_turn else plain, book)
            elapsed = time.perf_counter() - start
            if traced_turn:
                tracer.unwrap()
                traced.wall += elapsed
            else:
                plain.wall += elapsed
    tracer.counters.update(tracing.canonical_delta(before, cache_stats()))
    failed = plain.failed + traced.failed
    return traced.wall, plain.wall, plain.sessions + traced.sessions + failed, failed


def set_up(corpus: Path):
    """Read the corpus, build the <= 5-edge index cold, publish the plane.

    Returns (plane, setup seconds).
    """
    clear_cache()
    gc.collect()
    start = time.perf_counter()
    db = read_database(corpus)
    indexes = build_indexes(
        db, MiningParams(common.ALPHA, common.BETA, common.ONLINE_MAX_EDGES))
    plane = SharedPlane(db, indexes)
    plane.warm()
    return plane, time.perf_counter() - start


def run(args, work: Path) -> dict:
    phase = common.Phases()
    with phase("inputs"):
        corpus = work / "corpus.lg"
        write_database(common.make_corpus(args.seed, args.size), corpus)
    tracer = tracing.Tracer()
    setups = []
    plane = None
    with phase("setup"):
        for i in range(SETUPS):
            plane = None  # drop the previous plane so its arena is retired
            if args.trace and i == SETUPS - 1:
                tracer.set_trace("setup")
                tracing.install_build(tracer)
                tracing.install_engine(tracer)
            plane, setup_s = set_up(corpus)
            setups.append(setup_s)
        if args.trace:
            tracing.install_persistence(tracer, persistence)
        start = time.perf_counter()
        index_bytes = persistence.save_indexes(plane.indexes, work / "index.pkl")
        save_s = time.perf_counter() - start
        tracer.unwrap()
    with phase("inputs"):
        pool = common.containment_pool(plane.db, args.seed) + \
            common.similarity_pool(plane.db, plane.indexes, args.seed)
    clear_cache()  # the online phase starts as cold as a fresh server
    book = common.AnswerBook()
    with phase("measure"):
        if args.trace:
            traced_s, plain_s, attempted, failed = traced_loop(
                plane, pool, args.seed, args.seconds, book, tracer)
            traced_wall = setups[-1] + save_s + traced_s
            reference = common.median(setups[:-1]) + save_s + plain_s
            metrics = tracing.layer_metrics(
                tracer.spans, tracer.counters, traced_wall, traced_wall / reference,
            )
            tracer.dump(work / "spans.json")
        else:
            stats = closed_loop(plane, pool, args.seed, args.seconds, book)
            metrics = {
                **stats.metrics(),
                "setup_s": common.median(setups),
                "index_bytes": index_bytes,
                "peak_rss_mb": common.peak_rss_mb_self(),
            }
            attempted, failed = stats.sessions + stats.failed, stats.failed
    if args.inject_wrong_answer:
        book.inject_wrong_answer()
    with phase("check"):
        problems = common.check_catalogs(
            plane.indexes, plane.db, args.inject_wrong_answer,
        ) + book.check_naive(plane.db)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "phases": phase}
