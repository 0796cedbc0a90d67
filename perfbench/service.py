"""The ``service`` workload: ``repro serve`` driven over loopback.

The corpus and a 5-edge index are written beforehand with ``repro generate``
and ``repro index``; each run boots a fresh server from them.  One generator
process drives it over two keep-alive ``ServiceClient`` connections, one
thread each:

* a closed loop at saturation, where every request pays the delayed-ACK
  stall of back-to-back requests: all end-to-end metrics come from here;
* in the traced run only, also an open loop: each connection's gestures fall
  due on a fixed schedule (``OPEN_RATE`` actions/s in total, below the
  closed loop's capacity of about 44 actions/s), each timed from when it
  was due.
  The connections idle between gestures and mostly miss the stall, so its
  latencies (``loadgen.open_p50_s``/``loadgen.open_p90_s``) track machine
  speed: over ten seeds their spread was too wide for an end-to-end bound.

A session is create -> nodes -> edges (with an undo/redo) -> maybe Modify ->
Run -> close.  A traced run boots the server through ``serve_traced.py``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.core.plane import SharedPlane
from repro.core.undo import UndoableEngine
from repro.graph.serialization import read_database
from repro.index.persistence import load_indexes
from repro.obs.srt import build_ledger
from repro.service import ServiceClient, ServiceClientError

import common
import tracing
from formulate import rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONNECTIONS = 2
#: Gestures per second over both connections in the traced open loop.
OPEN_RATE = 20.0
SETUPS = 3
BOOT_TIMEOUT_S = 120.0
#: Service sessions draw 3-edge queries, which the index answers without
#: verification, so engine work stays small next to the transport this
#: workload is about (formulate measures the large queries) and a run fits
#: as many sessions as it can.  With 4- and 5-edge queries in the mix,
#: whether one verified Run landed among the ~25 closed-loop sessions moved
#: srt_p99_s by up to half from seed to seed.
SCRIPTS = 120
SIZES = (3,)


def repro_cli(*argv: str) -> None:
    """Run one ``python -m repro`` command to completion."""
    subprocess.run(
        [sys.executable, "-m", "repro", *argv], check=True,
        stdout=subprocess.DEVNULL, timeout=600,
    )


class Server:
    """One ``repro serve`` process, from spawn to its first /healthz 200."""

    def __init__(self, corpus: Path, index: Path, work: Path,
                 spans: Optional[Path] = None) -> None:
        serve = ["serve", str(corpus), str(index), "--port", "0"]
        if spans is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"), str(spans), *serve]
        self.stderr = open(work / "server.err", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.stderr,
        )
        try:
            self.port = self._await_port(start + BOOT_TIMEOUT_S)
            with ServiceClient(port=self.port) as probe:
                probe.health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("server did not come up in time")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
            line += chunk
        # "serving PRAGUE sessions on http://HOST:PORT (...)"
        return int(line.split(b"http://", 1)[1].split(b" ", 1)[0].rsplit(b":", 1)[1])

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (a clean shutdown), and wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


@dataclass
class Lane:
    """One connection's measurements."""

    # open loop: every request, timed from when it was due, and how late
    # the generator sent it
    open_latency: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    # closed loop: per-request latencies and client-observed SRT
    actions: List[float] = field(default_factory=list)
    new: List[float] = field(default_factory=list)
    modify: List[float] = field(default_factory=list)
    srt: List[float] = field(default_factory=list)
    closed_actions: int = 0
    closed_sessions: int = 0
    closed_wall: float = 0.0
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0


class Generator:
    """Drives sessions over one connection, on a schedule or back to back."""

    def __init__(self, port: int, lane_id: int, book: common.AnswerBook,
                 tracer: Optional[tracing.Tracer]) -> None:
        self.client = ServiceClient(port=port, timeout=60.0)
        self.lane_id = lane_id
        self.book = book
        self.tracer = tracer
        self.lane = Lane()
        self.requests = 0

    def _request(self, method: str, path: str, payload=None):
        self.requests += 1
        rid = f"b{self.lane_id}-{self.requests}"
        self.lane.attempted += 1
        return self.client.request(method, path, payload, request_id=rid)

    def _wait_until(self, due: float) -> None:
        delay = due - time.perf_counter()
        if delay <= 0:
            return
        if self.tracer is not None:
            self.tracer.span_call("loadgen.wait", time.sleep, (delay,), {})
        else:
            time.sleep(delay)

    def session(self, script: common.Script, due: Iterator[Optional[float]],
                open_loop: bool) -> int:
        """One whole session; returns the number of requests it sent."""
        sent = 0
        events = []
        deleted = None
        run_payload = None
        sid = None
        try:
            steps = [("create", ())] + script.gestures() + [("close", ())]
            for op, args in steps:
                when = next(due)
                if when is not None:
                    self._wait_until(when)
                start = time.perf_counter()
                origin = when if when is not None else start
                if op == "create":
                    sid = self._request("POST", "/v1/sessions", {})["session"]
                elif op == "close":
                    self._request("DELETE", f"/v1/sessions/{sid}")
                else:
                    data = self._request(
                        "POST", f"/v1/sessions/{sid}/actions",
                        {"op": op, "args": list(args)},
                    )
                    self._engine_time(data)
                done = time.perf_counter()
                sent += 1
                latency = done - origin
                if op == "delete_edge":
                    deleted = data["step"]["edge_id"]
                elif op == "run":
                    run_payload = data["run"]
                    run_s = latency
                if open_loop:
                    self.lane.open_latency.append(latency)
                    self.lane.late.append(start - origin)
                    continue
                self.lane.actions.append(latency)
                if op == "add_edge":
                    self.lane.new.append(latency)
                elif op == "delete_edge":
                    self.lane.modify.append(latency)
                if op in ("add_edge", "delete_edge", "undo", "redo"):
                    events.append((op, latency, common.EDGE_WINDOW_S))
        except (ServiceClientError, OSError, KeyError) as exc:
            self.lane.failed += 1
            self.book.mismatches.append(
                f"{script.name} over the service: {type(exc).__name__}: {exc}")
            return sent
        if not open_loop:
            self.lane.srt.append(
                build_ledger(events, run_seconds=run_s).srt_seconds)
        self.book.record(script, deleted, common.answer_of_payload(run_payload))
        return sent

    def _engine_time(self, data: dict) -> None:
        if self.tracer is None:
            return
        for key in ("step", "run"):
            if data.get(key):
                self.tracer.add("service.engine_s", data[key]["processing_seconds"])

    def open_loop(self, order, seconds: float) -> None:
        """Gestures fall due every ``CONNECTIONS / OPEN_RATE`` s."""
        start = time.perf_counter()
        interval = CONNECTIONS / OPEN_RATE
        first = start + self.lane_id * interval / CONNECTIONS
        slots = (first + k * interval for k in range(10 ** 9))
        while time.perf_counter() < start + seconds:
            self.session(next(order), slots, open_loop=True)

    def closed_loop(self, order, seconds: Optional[float],
                    sessions: Optional[int]) -> None:
        """Back to back, for ``seconds`` or for a fixed number of sessions."""
        start = time.perf_counter()
        never = iter(lambda: None, 0)
        done = 0
        while (time.perf_counter() < start + seconds) if sessions is None \
                else done < sessions:
            self.lane.closed_actions += self.session(next(order), never, False)
            done += 1
        self.lane.closed_sessions = done
        self.lane.closed_wall = time.perf_counter() - start


def drive(port: int, pool, seed: int, book: common.AnswerBook, phases,
          tracer: Optional[tracing.Tracer] = None) -> List[Lane]:
    """Run ``phases`` (("open", seconds) / ("closed", seconds, sessions))
    on every connection in parallel, one thread each."""
    gens = [Generator(port, c, book, tracer) for c in range(CONNECTIONS)]
    orders = [rounds(pool, seed * 31 + c) for c in range(CONNECTIONS)]
    errors: List[BaseException] = []

    def lane(c: int) -> None:
        gen = gens[c]
        start = time.perf_counter()
        try:
            for phase in phases:
                if phase[0] == "open":
                    gen.open_loop(orders[c], phase[1])
                else:
                    gen.closed_loop(orders[c], phase[1], phase[2][c] if phase[2] else None)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)
        finally:
            gen.lane.wall = time.perf_counter() - start
            gen.client.close()

    threads = [threading.Thread(target=lane, args=(c,)) for c in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return [g.lane for g in gens]


def in_process_answers(corpus: Path, index: Path, book: common.AnswerBook) -> List[str]:
    """Replay each distinct script in-process; the service must agree."""
    plane = SharedPlane(read_database(corpus), load_indexes(index))
    bad = []
    for (name, deleted), answer in book.answers.items():
        script = book.scripts[name]
        engine = UndoableEngine(plane.engine())
        run = None
        for op, args in script.gestures():
            result = getattr(engine, op)(*args)
            if op == "run":
                run = result
        if common.answer_of_report(run) != answer:
            bad.append(f"{name}: service answer != in-process engine answer")
    return bad


def _lanes_metrics(lanes: List[Lane]) -> Dict[str, float]:
    merged = Lane()
    for lane in lanes:
        for key in ("actions", "new", "modify", "srt"):
            getattr(merged, key).extend(getattr(lane, key))
    return {
        "action_p50_s": common.median(merged.actions),
        "new_p50_s": common.median(merged.new),
        "modify_p50_s": common.median(merged.modify),
        "srt_p50_s": common.median(merged.srt),
        "capacity_actions_per_s": sum(l.closed_actions / l.closed_wall for l in lanes),
        "sessions_per_s": sum(l.closed_sessions / l.closed_wall for l in lanes),
    }


def run(args, work: Path) -> dict:
    phase = common.Phases()
    corpus, index = work / "corpus.lg", work / "index.pkl"
    with phase("inputs"):
        repro_cli("generate", "--kind", "aids", "--size", str(args.size),
                  "--seed", str(args.seed), "--out", str(corpus))
        repro_cli(
            "index", str(corpus), "--alpha", str(common.ALPHA), "--beta",
            str(common.BETA), "--max-edges", str(common.ONLINE_MAX_EDGES),
            "--out", str(index),
        )
        db = read_database(corpus)
        pool = common.containment_pool(db, args.seed, SCRIPTS, SIZES, undo_redo=True)
    book = common.AnswerBook()
    if args.trace:
        with phase("measure"):
            metrics, attempted, failed = _traced(
                args, work, corpus, index, pool, book)
    else:
        setups = []
        with phase("setup"):
            for i in range(SETUPS):
                server = Server(corpus, index, work)
                setups.append(server.setup_s)
                if i < SETUPS - 1:
                    server.stop()
        with phase("measure"):
            try:
                lanes = drive(server.port, pool, args.seed, book,
                              [("closed", args.seconds, None)])
                rss = server.peak_rss_mb()
            finally:
                server.stop()
        metrics = {
            **_lanes_metrics(lanes),
            "setup_s": common.median(setups),
            "peak_rss_mb": rss,
            "index_bytes": index.stat().st_size,
        }
        attempted = sum(l.attempted for l in lanes)
        failed = sum(l.failed for l in lanes)
    if args.inject_wrong_answer:
        book.inject_wrong_answer()
    with phase("check"):
        problems = book.check_naive(db) + in_process_answers(corpus, index, book)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "phases": phase}


def _traced(args, work, corpus, index, pool, book):
    """Untraced reference, then the same closed-loop sessions and an open
    loop against a server booted through the tracing launcher (half of
    ``--seconds`` each)."""
    closed_s = open_s = args.seconds / 2
    server = Server(corpus, index, work)
    try:
        reference = drive(server.port, pool, args.seed, book,
                          [("closed", closed_s, None)])
    finally:
        server.stop()
    sessions = [lane.closed_sessions for lane in reference]
    spans_path = work / "server-spans.json"
    tracer = tracing.Tracer()
    server = Server(corpus, index, work, spans=spans_path)
    tracing.install_client(tracer)
    try:
        lanes = drive(server.port, pool, args.seed, book,
                      [("closed", None, sessions), ("open", open_s)], tracer)
    finally:
        tracer.unwrap()
        server.stop()
    dumped = json.loads(spans_path.read_text())
    for key, value in dumped["counters"].items():
        tracer.add(key, value)
    tracer.add("service.failed", sum(l.failed for l in lanes))
    late = [x for l in lanes for x in l.late]
    opened = [x for l in lanes for x in l.open_latency]
    tracer.add("loadgen.late_p99_s", common.percentile(late, 99))
    tracer.add("loadgen.open_p50_s", common.percentile(opened, 50))
    tracer.add("loadgen.open_p90_s", common.percentile(opened, 90))
    spans = tracing.merge_server(tracer.spans, [tuple(s) for s in dumped["spans"]])
    wall = server.setup_s + sum(l.wall for l in lanes)
    traced_closed = sum(l.closed_wall for l in lanes)
    plain_closed = sum(l.closed_wall for l in reference)
    metrics = tracing.layer_metrics(spans, tracer.counters, wall,
                                    traced_closed / plain_closed)
    attempted = sum(l.attempted for l in lanes + reference)
    failed = sum(l.failed for l in lanes + reference)
    return metrics, attempted, failed
